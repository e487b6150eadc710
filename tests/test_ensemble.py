"""Quantum vs stochastic counting models and their analytic expectation."""

import math
import threading

import numpy as np
import pytest

import nedmsim.ensemble as ensemble
from nedmsim.ensemble import (
    EnsembleRun,
    _worker_count,
    expected_stochastic_fraction,
    simulate_quantum,
    simulate_stochastic,
)
from nedmsim.streams import BLOCK_TRIALS, DOMAIN_QUANTUM, substream
from nedmsim.weak_measurement import DipoleState, flip_probability


def gauss_hermite_sin2_mean(dn: float, delta: float, xi: float, nodes: int = 400) -> float:
    """Independent oracle: E[sin(d xi)^2] over Normal(dn, delta) by quadrature."""
    if delta == 0.0:
        return math.sin(dn * xi) ** 2
    x, w = pytest.importorskip("scipy.special").roots_hermite(nodes)
    d = dn + math.sqrt(2.0) * delta * x
    return float(np.dot(w, np.sin(d * xi) ** 2)) / math.sqrt(math.pi)


def test_expected_fraction_matches_quadrature_oracle():
    xi = 1e14
    for dn_xi in (0.0, 0.3, 1.0, 2.5):
        for delta_xi in (0.0, 0.01, 0.3, 1.0, 2.0):
            state = DipoleState(dn_xi / xi, delta_xi / xi)
            oracle = gauss_hermite_sin2_mean(state.d_n, state.delta, xi)
            assert expected_stochastic_fraction(state, xi) == pytest.approx(
                oracle, abs=1e-12
            )


def test_expected_fraction_limits():
    xi = 1e14
    # delta -> 0 reduces to the deterministic sin^2
    st = DipoleState(0.5 / xi, 0.0)
    assert expected_stochastic_fraction(st, xi) == pytest.approx(math.sin(0.5) ** 2, rel=1e-15)
    # small-delta fixture at dn = 0: (1 - exp(-0.0002))/2
    st = DipoleState(0.0, 0.01 / xi)
    assert expected_stochastic_fraction(st, xi) == pytest.approx(9.999000066662767e-05, rel=1e-12)
    # fully randomized phase saturates at 1/2
    st = DipoleState(0.0, 10.0 / xi)
    assert expected_stochastic_fraction(st, xi) == pytest.approx(0.5, abs=1e-15)


def test_zero_state_never_flips_either_model():
    st = DipoleState(0.0, 0.0)
    assert simulate_quantum(st, 1e14, 10_000, seed=1).flips == 0
    assert simulate_stochastic(st, 1e14, 10_000, seed=1).flips == 0


def test_quantum_cp_null_zero_flips_with_large_uncertainty():
    st = DipoleState(0.0, 1e-15)
    run = simulate_quantum(st, 1e14, 200_000, seed=9)
    assert run.flips == 0


def test_certain_flip_fills_every_trial():
    xi = 1e14
    st = DipoleState((math.pi / 2.0) / xi, 0.0)
    run = simulate_quantum(st, xi, 10_000, seed=0)
    assert run.flips == run.trials == 10_000


@pytest.mark.parametrize(
    "dn_xi, delta_xi, flips", [(0.0, 2.0, 0), (math.pi / 2.0, 0.0, 10**9)], ids=["p0", "p1"]
)
def test_exact_probability_draws_nothing(monkeypatch, dn_xi, delta_xi, flips):
    # P exactly 0 or 1 fixes the count: no substream is built, no thread is
    # started, and 1e9 trials return at once
    def forbidden(*args, **kwargs):
        raise AssertionError("the fast path must not draw or start threads")

    monkeypatch.setattr(ensemble, "substream", forbidden)
    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", forbidden)
    xi = 1e14
    state = DipoleState(dn_xi / xi, delta_xi / xi)
    assert flip_probability(state, xi) == (1.0 if flips else 0.0)
    threads = threading.active_count()
    run = simulate_quantum(state, xi, 10**9, seed=3, workers=2)
    assert run.flips == flips
    assert threading.active_count() == threads


def test_interior_probability_draws_once_without_threads(monkeypatch):
    # an interior P is one binomial draw from one substream, at any worker count
    keys = []

    def counting_substream(*key):
        keys.append(key)
        return substream(*key)

    def forbidden(*args, **kwargs):
        raise AssertionError("the quantum model must not start threads")

    monkeypatch.setattr(ensemble, "substream", counting_substream)
    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", forbidden)
    xi = 1e14
    state = DipoleState(0.6 / xi, 0.5 / xi)
    assert 0.0 < flip_probability(state, xi) < 1.0
    threads = threading.active_count()
    run = simulate_quantum(state, xi, 10 * BLOCK_TRIALS, seed=3, workers=2)
    assert keys == [(3, DOMAIN_QUANTUM, 0)]
    assert 0 < run.flips < run.trials
    assert threading.active_count() == threads


def test_quantum_count_is_binomial_over_seeds():
    # 400 seeds of n = 10,000 trials at P = sin(0.6)^2 exp(-0.25): the mean
    # count lies within 5 SE of nP, and the dispersion index (sample
    # variance over nP(1-P)) within the 99.99% band of chi2_399 / 399,
    # [0.7478, 1.2994] (scipy.stats.chi2.ppf at 5e-5 and 1 - 5e-5)
    xi, n, seeds = 1e14, 10_000, 400
    state = DipoleState(0.6 / xi, 0.5 / xi)
    p = flip_probability(state, xi)
    counts = np.array([simulate_quantum(state, xi, n, seed=s).flips for s in range(seeds)])
    variance = n * p * (1.0 - p)
    assert abs(counts.mean() - n * p) <= 5.0 * math.sqrt(variance / seeds)
    assert 0.7478 <= counts.var(ddof=1) / variance <= 1.2994


def test_seed_determinism():
    st = DipoleState(0.0, 1e-15)
    a = simulate_stochastic(st, 1e14, 50_000, seed=123)
    b = simulate_stochastic(st, 1e14, 50_000, seed=123)
    c = simulate_stochastic(st, 1e14, 50_000, seed=124)
    assert a.flips == b.flips
    assert a.flips != c.flips  # distinct substreams in practice


def test_worker_count_does_not_change_results():
    st = DipoleState(0.0, 1e-15)
    trials = 3 * BLOCK_TRIALS + 17
    for sim in (simulate_stochastic, simulate_quantum):
        serial = sim(st, 1e14, trials, seed=5, workers=1)
        threaded = sim(st, 1e14, trials, seed=5, workers=4)
        assert serial.flips == threaded.flips


def test_stochastic_mean_converges_small_kick():
    # dn = 0, xi*delta = 0.01, 1e7 trials: within 5 SE of 9.999e-5
    xi = 1e14
    st = DipoleState(0.0, 0.01 / xi)
    expected = expected_stochastic_fraction(st, xi)
    run = simulate_stochastic(st, xi, 10_000_000, seed=77)
    se = math.sqrt(expected * (1 - expected) / run.trials)
    assert abs(run.fraction - expected) <= 5.0 * se


def test_stochastic_mean_property_over_seeds():
    # every seed lands within 5 standard errors at small scale
    xi = 1e14
    st = DipoleState(0.3 / xi, 0.5 / xi)
    expected = expected_stochastic_fraction(st, xi)
    trials = 20_000
    se = math.sqrt(expected * (1 - expected) / trials)
    misses = 0
    for seed in range(100):
        run = simulate_stochastic(st, xi, trials, seed=seed)
        if abs(run.fraction - expected) > 5.0 * se:
            misses += 1
    assert misses == 0


def test_run_validation():
    st = DipoleState(0.0, 0.0)
    with pytest.raises(ValueError):
        EnsembleRun("quantum", 10, 11, 0, 1.0, st)
    with pytest.raises(ValueError):
        EnsembleRun("classical", 10, 1, 0, 1.0, st)
    with pytest.raises(ValueError):
        simulate_quantum(st, 1e14, 0, seed=0)
    # numpy's binomial takes an int64 count; refused before any block is listed
    for sim in (simulate_quantum, simulate_stochastic):
        with pytest.raises(ValueError, match="trials"):
            sim(st, 1e14, 2**63, seed=0)


def test_worker_count_clamped_to_cores_and_blocks(monkeypatch):
    # computed only: no thread is started
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 4)
    blocks = -(-(10**9) // BLOCK_TRIALS)
    assert blocks == 15259
    assert _worker_count(10**9, blocks) == 4
    assert _worker_count(3, blocks) == 3
    assert _worker_count(64, 2) == 2
    assert _worker_count(0, 10) == 1
    monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)
    assert _worker_count(8, 10) == 1
