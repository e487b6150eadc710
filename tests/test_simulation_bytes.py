"""Pinned output bytes of the simulation kernels.

Each digest below is the SHA-256 of a rendered output: a cycle CSV, or
the flip counts of an ensemble run. They were recorded on the kernels as
they drew before any fast path existed, so a speedup that changes which
uniform lands on which trial, or which key a cycle draws from, fails here.
A deliberate change of stream layout must bump the artifact version and
re-pin these digests in the same change.
"""

import hashlib
import math

import pytest

from nedmsim.comagnetometer import CampaignConfig, run_campaign
from nedmsim.ensemble import simulate_quantum, simulate_stochastic
from nedmsim.formats import CYCLES_HEADER, cycles_to_rows, render_csv
from nedmsim.streams import BLOCK_TRIALS
from nedmsim.weak_measurement import DipoleState, flip_probability

XI = 1e21
# three full blocks and a partial one
TRIALS = 3 * BLOCK_TRIALS + 17

CAMPAIGN_DIGESTS = {
    "binomial": "a6b988d802f8aa218cc7a8409172cac1f9e8f70a21969e07975ff1517b003968",
    "poisson": "1990987b8d1ef8154104aaab6ea7c24516dd4f60f76bef01df2ecd34198c870d",
    "expected": "fcfca16268247e2dc53435e7f80000a8432e235a41b8a8cae8a81d45af3f09ce",
}
QUANTUM_DIGEST = "b50fbf385ef6c7791dd8370ee36643c13a19cdd3ff9792ffbcc9ec79172e84cc"
STOCHASTIC_DIGEST = "e5e2bdd9e3efbaa0fc5e613ee6f3cc875a3fe9f00426499f52c20dbd610b8744"

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
