"""Pinned output bytes of the simulation kernels and the campaign estimator.

Each digest below is the SHA-256 of a rendered output: a cycle CSV, the
flip counts of an ensemble run, the ``repr`` of a campaign estimate, or
the summary JSON of a ``nedmsim campaign`` run. The cycle digests pin
the block layout of artifact version 0.11.0 (the ``nedmsim.streams``
docstring), so a change of which substream a quantity draws from fails
here; the layout tests below rebuild it one cycle at a time. The quantum
digest pins the single Binomial(trials, P) draw of artifact version 0.6.0
and the stochastic digest the single Binomial(trials, f) draw of 0.7.0,
so they also fail if numpy's binomial sampler changes its stream.
The estimator digests pin its error model (phase variance from the cycle
asymmetry, phase-unit pair weights, the dipole per unit phase) to the last
bit, as of artifact version 0.13.0. A deliberate change of stream
layout or of the estimator must bump the artifact version and re-pin
these digests in the same change; the summary digest moves with every
version bump, because the summary embeds the artifact version.
"""

import dataclasses
import hashlib
import math
from collections import namedtuple

import numpy as np
import pytest

from nedmsim.cli import main
from nedmsim.comagnetometer import (
    CAMPAIGN_BLOCK,
    COUNTING_MODES,
    CampaignConfig,
    CycleTable,
    _measured_phase,
    campaign_estimator,
    extract_dn_pair,
    run_campaign,
)
from nedmsim.config import parse_config_text
from nedmsim.ensemble import simulate_quantum, simulate_stochastic
from nedmsim.formats import CYCLES_HEADER, cycles_to_rows, render_csv
from nedmsim.quantities import PhysicalConstants, UnitSystem
from nedmsim.spin_dynamics import _phase, asymmetry, up_probability
from nedmsim.streams import DOMAIN_CYCLE, substream
from nedmsim.weak_measurement import DipoleState, flip_probability

XI = 1e21
# the trial count the ensemble digests below were recorded at
TRIALS = 3 * 65536 + 17

CAMPAIGN_DIGESTS = {
    "binomial": "e4d7ed2e0dab13ced91aa3604d9edcebb96e44d95f75e8ba5f467baf1b880f53",
    "poisson": "4a42cf3f15e791eb7a0edc10b36770482d7ce6b67f4751ef7b3f17ea95575179",
    "expected": "d24449defea50100d68f02d790e145ad01a37836ff1c01520b0ba02af6d53825",
}
ESTIMATOR_DIGESTS = {
    "binomial": "16d1a4b673fa6bc84679a99f1d6ea5d4c68f51493811dd6108d57addc04bdb11",
    "poisson": "60c72777932bb10abf1ea983f27baeaa3a288ac5bad6734c1daa59bb86de6ad3",
    "expected": "c84f7e2d580f11877a668c6e23589f1257f0151276f0ed54298df79db7c072c9",
}
CAMPAIGN_SUMMARY_DIGEST = "ce139bdf12a36258d829cc4850801a4563f2385538753c94938a95f614f4110c"
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


# one cycle of a table, its fields as Python numbers
Cycle = namedtuple("Cycle", CycleTable._fields)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cycles(table: CycleTable) -> list[Cycle]:
    return [Cycle(*row) for row in zip(*(column.tolist() for column in table))]


def table_of(cycle_list: list[Cycle]) -> CycleTable:
    """A table whose columns numpy infers from the cycles' Python numbers."""
    return CycleTable(*map(np.array, zip(*cycle_list)))


def assert_same_table(a: CycleTable, b: CycleTable) -> None:
    """Column by column: the same values (nan equal to nan) and dtypes."""
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y, strict=True)


def head(table: CycleTable, count: int) -> CycleTable:
    """The table's first count cycles (a slice of the table itself takes fields)."""
    return CycleTable(*(column[:count] for column in table))


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


def reference_campaign(config: CampaignConfig) -> list[Cycle]:
    """The campaign one cycle at a time, from the layout in the streams docstring.

    Each block opens its three substreams; each cycle takes its drift, its
    counts and its clock noise from them by scalar draws, and in poisson
    mode a block draws its CAMPAIGN_BLOCK totals first. Counts are ints in
    the sampling modes and floats in expected mode.
    """
    constants, units = PhysicalConstants(), UnitSystem()
    n = config.neutrons_per_cycle
    records = []
    for start in range(0, config.cycles, CAMPAIGN_BLOCK):
        drift, counts, clock = (
            substream(config.seed, DOMAIN_CYCLE, 3 * (start // CAMPAIGN_BLOCK) + q)
            for q in range(3)
        )
        if config.counting_mode == "poisson":
            totals = counts.poisson(n, CAMPAIGN_BLOCK).tolist()
        for i in range(start, min(start + CAMPAIGN_BLOCK, config.cycles)):
            polarity = 1 - 2 * (i % 2)
            b = config.b_nominal + drift.normal(0.0, config.b_drift_sd)
            phi = _phase(constants.mu_n, b, config.true_dn, polarity * config.e_magnitude,
                         config.free_time, units)
            p_up = up_probability(phi, config.visibility)
            if config.counting_mode == "expected":
                n_up = n * float(p_up)
                n_down = n - n_up
            else:
                total = totals[i - start] if config.counting_mode == "poisson" else n
                n_up = int(counts.binomial(total, p_up))
                n_down = total - n_up
            f_n = math.nan
            if n_up + n_down > 0:
                phi_hat = _measured_phase(phi, asymmetry(n_up, n_down), config.visibility)
                f_n = float(phi_hat) / (2.0 * math.pi * config.free_time)
            f_hg = abs(constants.gamma_hg * b) / (2.0 * math.pi)
            f_hg *= 1.0 + clock.normal(0.0, config.f_hg_noise_sd)
            r = f_n / f_hg + config.delta_r_sys if f_hg != 0 else math.nan
            records.append(Cycle(i, polarity, n_up, n_down, f_n, f_hg, r))
    return records


def layout_configs(mode: str) -> tuple[CampaignConfig, ...]:
    # a drifting config, the same over two blocks, and the estimator config,
    # whose cycles saturate in both sampling modes
    drifting = CampaignConfig(true_dn=3e-22, b_drift_sd=1e-12, f_hg_noise_sd=1e-8,
                              cycles=200, seed=20_261_018, counting_mode=mode)
    return (
        drifting,
        dataclasses.replace(drifting, cycles=CAMPAIGN_BLOCK + 200),
        parse_config_text(ESTIMATOR_INI.format(mode=mode)).campaign,
    )


@pytest.mark.parametrize("mode", COUNTING_MODES)
def test_campaign_equals_documented_block_layout(mode):
    for config in layout_configs(mode):
        table, reference = run_campaign(config), table_of(reference_campaign(config))
        assert reference.index.size == config.cycles
        assert_same_table(table, reference)
        counts = np.float64 if mode == "expected" else np.int64
        assert [column.dtype for column in table] == [np.int64] * 2 + [counts] * 2 + [
            np.float64] * 3


@pytest.mark.parametrize("mode", COUNTING_MODES)
def test_campaign_extends_across_a_block_boundary(mode):
    # cycles come in pairs, so the longest campaign is CAMPAIGN_BLOCK + 4
    def campaign(cycles):
        return run_campaign(CampaignConfig(true_dn=3e-22, b_drift_sd=1e-12, f_hg_noise_sd=1e-8,
                                           cycles=cycles, seed=7, counting_mode=mode))

    longest = campaign(CAMPAIGN_BLOCK + 4)
    assert_same_table(head(longest, 6), campaign(6))
    assert_same_table(head(longest, CAMPAIGN_BLOCK), campaign(CAMPAIGN_BLOCK))
    assert longest.index.tolist() == list(range(CAMPAIGN_BLOCK + 4))


def cycle_ratio_variance(record: Cycle, config: CampaignConfig) -> float:
    """Counting variance of one cycle's R = f_n / f_hg, by the delta method in floats.

    Var(A) = (1 - A^2)/N; A = V cos(phi) gives |dA/dphi| = sqrt(V^2 - A^2),
    and R = phi / (2 pi t f_hg). A cycle without counts, or one at or past
    the fringe's extremum (|A| >= V), has no phase sensitivity.
    """
    total = record.n_up + record.n_down
    if total == 0:
        return math.inf
    a = (record.n_up - record.n_down) / total
    v = config.visibility
    if not abs(a) < v:
        return math.inf
    var_phi = (1.0 - a * a) / total / (v * v - a * a)
    return var_phi / (2.0 * math.pi * config.free_time * record.f_hg) ** 2


def per_pair_estimate(records, config) -> tuple[float, float, int]:
    """dn_hat, standard error and pairs kept, one pair at a time, in ratio units."""
    units = UnitSystem()
    estimates, weights = [], []
    for a, b in zip(records[0::2], records[1::2]):
        plus, minus = (a, b) if a.polarity == 1 else (b, a)
        if not (math.isfinite(plus.r) and math.isfinite(minus.r)):
            continue
        f_hg_pair = 0.5 * (plus.f_hg + minus.f_hg)
        estimates.append(extract_dn_pair(plus.r, minus.r, config.e_magnitude, f_hg_pair, units))
        slope = extract_dn_pair(1.0, 0.0, config.e_magnitude, f_hg_pair, units)
        variance = slope * slope * (cycle_ratio_variance(plus, config)
                                    + cycle_ratio_variance(minus, config))
        weights.append(1.0 / variance if math.isfinite(variance) and variance > 0 else 0.0)
    if config.counting_mode == "expected":
        return math.fsum(estimates) / len(estimates), 0.0, len(estimates)
    total = math.fsum(weights)
    dn_hat = math.fsum(w * e for w, e in zip(weights, estimates)) / total
    return dn_hat, math.sqrt(1.0 / total), sum(w > 0 for w in weights)


@pytest.mark.parametrize("mode", COUNTING_MODES)
def test_vector_estimator_matches_per_pair_formula(mode):
    config = parse_config_text(ESTIMATOR_INI.format(mode=mode)).campaign
    records = cycles(run_campaign(config))
    # a pair with a non-finite ratio is skipped, and a pair may come minus first
    records[6] = records[6]._replace(r=math.nan)
    records[11] = records[11]._replace(r=math.inf)
    records[20], records[21] = records[21], records[20]
    estimate = campaign_estimator(table_of(records), config)
    dn_hat, se, pairs = per_pair_estimate(records, config)
    if mode != "expected":  # saturated cycles get no weight in the sampling modes
        assert pairs < config.cycles // 2 - 2
    assert estimate.n_pairs == pairs
    assert estimate.dn_hat == pytest.approx(dn_hat, rel=1e-12, abs=0.0)
    assert estimate.standard_error == pytest.approx(se, rel=1e-12, abs=0.0)


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
