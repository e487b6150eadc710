"""Pinned output bytes of the simulation kernels and the campaign estimator.

Each digest below is the SHA-256 of a rendered output: a cycle CSV, the
flip counts of an ensemble run, the ``repr`` of a campaign estimate, or
the summary JSON of a ``nedmsim campaign`` run. The cycle digests were
recorded on the kernel as it drew before any fast path existed, so a
speedup that changes which key a cycle draws from fails here. The quantum
digest pins the single Binomial(trials, P) draw of artifact version 0.6.0
and the stochastic digest the single Binomial(trials, f) draw of 0.7.0,
so they also fail if numpy's binomial sampler changes its stream.
The estimator digests pin its error model (pair slope, cycle asymmetry,
inverse-variance weights) to the last bit. A deliberate change of stream
layout or of the estimator must bump the artifact version and re-pin
these digests in the same change; the summary digest moves with every
version bump, because the summary embeds the artifact version.
"""

import hashlib
import math

import pytest

from nedmsim.cli import main
from nedmsim.comagnetometer import (
    COUNTING_MODES,
    CampaignConfig,
    run_campaign,
    simulate_cycle,
)
from nedmsim.config import parse_config_text
from nedmsim.ensemble import simulate_quantum, simulate_stochastic
from nedmsim.formats import CYCLES_HEADER, cycles_to_rows, render_csv
from nedmsim.inference import campaign_estimator
from nedmsim.streams import DOMAIN_CYCLE, substream
from nedmsim.weak_measurement import DipoleState, flip_probability

XI = 1e21
# the trial count the ensemble digests below were recorded at
TRIALS = 3 * 65536 + 17

CAMPAIGN_DIGESTS = {
    "binomial": "a6b988d802f8aa218cc7a8409172cac1f9e8f70a21969e07975ff1517b003968",
    "poisson": "1990987b8d1ef8154104aaab6ea7c24516dd4f60f76bef01df2ecd34198c870d",
    "expected": "fcfca16268247e2dc53435e7f80000a8432e235a41b8a8cae8a81d45af3f09ce",
}
ESTIMATOR_DIGESTS = {
    "binomial": "77c42542f4f435259deb5397b5a135cb81e905e013f8b50625becb932212d254",
    "poisson": "60ecf16236fc0e16d6e99095c64b1d330cd22ac22ae654f579ee18e8158efead",
    "expected": "a4a25a22bcb7c26cced1ccdaee8e47fbeb2a466f202d99e051defc8e88aa4cf1",
}
CAMPAIGN_SUMMARY_DIGEST = "d539f6f8eeede2ee25d07d91ea77c29f63a8855cdd01705597fa88c88f7faf67"
# field drift, clock noise and a fringe contrast below 1 all enter the
# estimator's error model; the drift moves a few percent of the cycles
# onto a fringe extremum, where they saturate and their pairs get no weight
ESTIMATOR_INI = """\
[campaign]
true_dn_e_cm = 3e-22
b_drift_sd_tesla = 1e-10
f_hg_noise_sd_rel = 1e-8
visibility = 0.8
cycles = 2000
seed = 20261018
counting_mode = {mode}
"""
QUANTUM_DIGEST = "5122d92d62c7e34bb5cadfeff1d44668f925241385bb810e897e574f34eef254"
STOCHASTIC_DIGEST = "458fd4bb48b3ae44e515cbbfb63b7813cd3f0a0b06423715214a8b757d5a83a0"

QUANTUM_STATES = {
    "p0": DipoleState(0.0, 2.0 / XI),
    "p1": DipoleState(0.5 * math.pi / XI, 0.0),
    "interior": DipoleState(0.3 / XI, 0.7 / XI),
}
STOCHASTIC_STATES = (
    DipoleState(0.0, 1.0 / XI),
    DipoleState(0.3 / XI, 0.7 / XI),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", sorted(CAMPAIGN_DIGESTS))
def test_campaign_csv_bytes(mode):
    config = CampaignConfig(
        true_dn=3e-22,
        b_drift_sd=1e-12,
        f_hg_noise_sd=1e-8,
        cycles=4000,
        seed=20_261_018,
        counting_mode=mode,
    )
    text = render_csv(CYCLES_HEADER, cycles_to_rows(run_campaign(config)))
    assert sha256(text) == CAMPAIGN_DIGESTS[mode]


@pytest.mark.parametrize("mode", sorted(ESTIMATOR_DIGESTS))
def test_campaign_estimate_bytes(mode):
    config = parse_config_text(ESTIMATOR_INI.format(mode=mode)).campaign
    estimate = campaign_estimator(run_campaign(config), config)
    assert sha256(repr(estimate)) == ESTIMATOR_DIGESTS[mode]


@pytest.mark.parametrize("mode", COUNTING_MODES)
def test_campaign_equals_cycles_on_new_substreams(mode):
    # the reference for run_campaign's re-keyed generator: one new generator
    # per cycle. The estimator config has saturating cycles in both
    # sampling modes
    configs = (
        CampaignConfig(true_dn=3e-22, b_drift_sd=1e-12, f_hg_noise_sd=1e-8,
                       cycles=200, seed=20_261_018, counting_mode=mode),
        parse_config_text(ESTIMATOR_INI.format(mode=mode)).campaign,
    )
    for config in configs:
        reference = [
            simulate_cycle(config, i, 1 - 2 * (i % 2), substream(config.seed, DOMAIN_CYCLE, i))
            for i in range(config.cycles)
        ]
        assert run_campaign(config) == reference


def test_campaign_summary_bytes(tmp_path, monkeypatch):
    # relative paths, because the summary embeds the run's manifest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "campaign.ini").write_text(ESTIMATOR_INI.format(mode="binomial"))
    assert main(["campaign", "--config", "campaign.ini", "--out", "cycles.csv"]) == 0
    summary = (tmp_path / "cycles.summary.json").read_text()
    assert sha256(summary) == CAMPAIGN_SUMMARY_DIGEST


def test_quantum_counts_bytes():
    assert flip_probability(QUANTUM_STATES["p0"], XI) == 0.0
    assert flip_probability(QUANTUM_STATES["p1"], XI) == 1.0
    counts = [
        f"{name},{simulate_quantum(state, XI, TRIALS, seed=5).flips}"
        for name, state in QUANTUM_STATES.items()
    ]
    assert sha256("\n".join(counts)) == QUANTUM_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_stochastic_counts_bytes(workers):
    counts = [
        str(simulate_stochastic(state, XI, TRIALS, seed=5, workers=workers).flips)
        for state in STOCHASTIC_STATES
    ]
    assert sha256("\n".join(counts)) == STOCHASTIC_DIGEST
