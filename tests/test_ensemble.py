"""Quantum vs stochastic counting models and their analytic expectation."""

import math
import threading

import numpy as np
import pytest

import nedmsim.ensemble as ensemble
from nedmsim.ensemble import (
    EnsembleRun,
    expected_stochastic_fraction,
    simulate_quantum,
    simulate_stochastic,
)
from nedmsim.streams import DOMAIN_QUANTUM, DOMAIN_STOCHASTIC, substream
from nedmsim.weak_measurement import DipoleState, flip_probability


def gauss_hermite_sin2_mean(dn: float, delta: float, xi: float, nodes: int = 400) -> float:
    """Independent oracle: E[sin(d xi)^2] over Normal(dn, delta) by quadrature."""
    if delta == 0.0:
        return math.sin(dn * xi) ** 2
    x, w = pytest.importorskip("scipy.special").roots_hermite(nodes)
    d = dn + math.sqrt(2.0) * delta * x
    return float(np.dot(w, np.sin(d * xi) ** 2)) / math.sqrt(math.pi)


def per_trial_stochastic_flips(state: DipoleState, xi: float, trials: int, seed: int) -> int:
    """Independent oracle: the stochastic model neutron by neutron.

    Per trial d ~ Normal(d_n, delta), then one uniform against sin(d xi)^2,
    in blocks of 65,536 trials keyed (seed, DOMAIN_STOCHASTIC, block).
    """
    flips = 0
    for b, start in enumerate(range(0, trials, 65536)):
        rng = substream(seed, DOMAIN_STOCHASTIC, b)
        m = min(65536, trials - start)
        p = np.sin((state.d_n + state.delta * rng.standard_normal(m)) * xi) ** 2
        flips += int(np.count_nonzero(rng.random(m) < p))
    return flips


def test_expected_fraction_matches_quadrature_oracle():
    xi = 1e14
    for dn_xi in (0.0, 0.3, 1.0, 2.5):
        for delta_xi in (0.0, 0.01, 0.3, 1.0, 2.0):
            state = DipoleState(dn_xi / xi, delta_xi / xi)
            oracle = gauss_hermite_sin2_mean(state.d_n, state.delta, xi)
            assert expected_stochastic_fraction(state, xi) == pytest.approx(
                oracle, abs=1e-12
            )


@pytest.mark.parametrize("dn_xi", [0.0, 1e-9, 1e-6, 0.3])
@pytest.mark.parametrize("delta_xi", [0.0, 1e-9, 1e-5, 0.5])
def test_expected_fraction_matches_mpmath(dn_xi, delta_xi):
    # the closed form (1 - cos(2 d_n xi) exp(-2 xi^2 delta^2))/2 at 50
    # digits from the exact double inputs: no cancellation at small phases
    mp = pytest.importorskip("mpmath")
    xi = 1e14
    state = DipoleState(dn_xi / xi, delta_xi / xi)
    with mp.workdps(50):
        phase = mp.mpf(state.d_n) * mp.mpf(xi)
        spread = mp.mpf(state.delta) * mp.mpf(xi)
        exact = (1 - mp.cos(2 * phase) * mp.exp(-2 * spread**2)) / 2
    fraction = expected_stochastic_fraction(state, xi)
    if dn_xi == delta_xi == 0.0:
        assert fraction == 0.0
    else:
        assert fraction == pytest.approx(float(exact), rel=1e-14, abs=0.0)


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


def test_expected_fraction_squares_by_multiplication_bytes():
    # pow(x, 2) misses x * x in the last bit for about one x in a thousand.
    # Along delta = 0 the result is sin^2 alone, and along dn = 0 it is the
    # envelope term alone, so a last-bit change in either square shows there
    def reference(d_n, delta, xi):
        s = xi * delta
        two_s2 = 2.0 * (s * s)
        sine = math.sin(d_n * xi)
        return -0.5 * math.expm1(-two_s2) + math.exp(-two_s2) * (sine * sine)

    xi = 1e21
    xi_delta = [0.0, *np.geomspace(1e-9, 10.0, 20_000).tolist()]
    dn_xi = [0.0, *np.geomspace(1e-9, 3.2, 20_000).tolist()]
    grid = [(a, b) for a in xi_delta[::67] for b in dn_xi[::67]]
    grid += [(a, 0.0) for a in xi_delta] + [(0.0, b) for b in dn_xi]
    states = [DipoleState(b / xi, a / xi) for a, b in grid]
    assert [expected_stochastic_fraction(st, xi) for st in states] == [
        reference(st.d_n, st.delta, xi) for st in states
    ]


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
    xi = 1e14
    state = DipoleState(dn_xi / xi, delta_xi / xi)
    assert flip_probability(state, xi) == (1.0 if flips else 0.0)
    threads = threading.active_count()
    run = simulate_quantum(state, xi, 10**9, seed=3, workers=2)
    assert run.flips == flips
    assert threading.active_count() == threads


def test_interior_probability_draws_once_without_threads(monkeypatch):
    # an interior probability is one binomial draw from one substream, in
    # either model and at any worker count
    keys = []

    def counting_substream(*key):
        keys.append(key)
        return substream(*key)

    monkeypatch.setattr(ensemble, "substream", counting_substream)
    xi = 1e14
    state = DipoleState(0.6 / xi, 0.5 / xi)
    assert 0.0 < flip_probability(state, xi) < 1.0
    threads = threading.active_count()
    models = ((simulate_quantum, DOMAIN_QUANTUM), (simulate_stochastic, DOMAIN_STOCHASTIC))
    for sim, domain in models:
        keys.clear()
        run = sim(state, xi, 10 * 65536, seed=3, workers=2)
        assert keys == [(3, domain, 0)]
        assert 0 < run.flips < run.trials
    assert threading.active_count() == threads


def test_quantum_count_is_binomial_over_seeds():
    # 400 seeds of n = 10,000 trials at d_n xi = 0.6, delta xi = 0.5, for
    # the quantum P = sin(0.6)^2 exp(-0.25) and the stochastic fraction:
    # the mean count lies within 5 SE of np, and the dispersion index
    # (sample variance over np(1-p)) within the 99.99% band of
    # chi2_399 / 399, [0.7478, 1.2994] (scipy.stats.chi2.ppf at 5e-5 and
    # 1 - 5e-5)
    xi, n, seeds = 1e14, 10_000, 400
    state = DipoleState(0.6 / xi, 0.5 / xi)
    for sim, p in (
        (simulate_quantum, flip_probability(state, xi)),
        (simulate_stochastic, expected_stochastic_fraction(state, xi)),
    ):
        counts = np.array([sim(state, xi, n, seed=s).flips for s in range(seeds)])
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
    trials = 3 * 65536 + 17
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


@pytest.mark.parametrize(
    "delta_xi, trials, seed",
    [(0.1, 10**6, 1), (0.01, 10**7, 77)],
    ids=["criterion3", "small_kick"],
)
def test_per_trial_oracle_matches_expected_fraction(delta_xi, trials, seed):
    # the neutron-by-neutron model lands within 5 SE of the closed form at
    # d_n = 0, and separates from the quantum count (exactly 0) at > 5 sigma
    xi = 1e14
    state = DipoleState(0.0, delta_xi / xi)
    expected = expected_stochastic_fraction(state, xi)
    fraction = per_trial_stochastic_flips(state, xi, trials, seed) / trials
    assert abs(fraction - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / trials)
    pooled = fraction / 2.0
    assert fraction / math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials) > 5.0
    assert simulate_quantum(state, xi, trials, seed).flips == 0


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
    # numpy's binomial takes an int64 count; refused before anything is drawn
    for sim in (simulate_quantum, simulate_stochastic):
        with pytest.raises(ValueError, match="trials"):
            sim(st, 1e14, 2**63, seed=0)
