"""Likelihood, joint fit, profile bounds, and the campaign estimator."""

import dataclasses
import math
import re
from statistics import NormalDist

import numpy as np
import pytest

from nedmsim.comagnetometer import CampaignConfig, CycleTable, campaign_estimator, run_campaign
from nedmsim.inference import (
    FIT_DELTA_WIDTHS,
    GRID_POINTS_MAX,
    FlipDataset,
    NonConvergenceError,
    SearchBox,
    fit,
    log_likelihood,
    search_ceilings,
    upper_bound,
)
from nedmsim.inference import (
    _MAX_ROUNDS,
    _P_CEIL,
    _P_FLOOR,
    _crossing,
    _grid_axis,
    _maximize,
    _profile,
    _rounds,
)
from nedmsim.streams import substream
from nedmsim.weak_measurement import (
    DipoleState,
    flip_envelope,
    flip_oscillation,
    flip_probability,
)
from test_pinned_edges import FIT_BOX, FIT_CASES, interior_dataset

XI_MAX = 1e21


def brute_log_likelihood(dn, delta, dataset):
    """Independent scalar-math implementation used as the grid oracle."""
    total = 0.0
    for xi, n, k in zip(dataset.xi.tolist(), dataset.trials.tolist(), dataset.flips.tolist()):
        p = math.sin(dn * xi) ** 2 * math.exp(-((xi * delta) ** 2))
        p = min(max(p, 1e-300), 1.0 - 1e-16)
        total += k * math.log(p) + (n - k) * math.log1p(-p)
    return total


def make_dataset(dn_xi=0.3, delta_xi=1.0, trials=10**6, seed=0, points=8):
    xis = XI_MAX * np.arange(1, points + 1) / points
    state = DipoleState(dn_xi / XI_MAX, delta_xi / XI_MAX)
    rng = substream(seed, 9, 0)
    flips = rng.binomial(trials, flip_probability(state, xis))
    return FlipDataset(xi=xis, trials=np.full(points, trials), flips=flips)


def default_box(**overrides):
    params = dict(dn_max=1.0 / XI_MAX, delta_max=3.0 / XI_MAX)
    params.update(overrides)
    return SearchBox(**params)


def zero_flip_dataset(scale=1.0):
    # two-decade log design, trials weighted for equal dipole sensitivity
    xis = np.geomspace(XI_MAX / 100.0, XI_MAX, 8)
    weights = (XI_MAX / xis) ** 2
    trials = np.maximum(1, np.round(scale * 8e6 * weights / weights.sum())).astype(np.int64)
    return FlipDataset(xi=xis, trials=trials, flips=np.zeros(8, dtype=np.int64))


def test_log_likelihood_zero_flips_at_null_is_zero():
    ds = FlipDataset([1e20, 1e21], [1000, 1000], [0, 0])
    assert log_likelihood(0.0, 0.0, ds) == 0.0
    assert log_likelihood(0.0, 1e-21, ds) == 0.0


@pytest.mark.parametrize(
    "d_n, delta, bad",
    [
        (0.0, math.nan, "delta must be finite, got nan"),
        (math.nan, 0.0, "d_n must be finite, got nan"),
        (math.inf, 0.0, "d_n must be finite, got inf"),
        (0.0, math.inf, "delta must be finite, got inf"),
        (np.array([1e-22, -math.inf]), 1e-22, "d_n must be finite, got -inf"),
        (1e-22, np.array([[0.0], [math.nan]]), "delta must be finite, got nan"),
    ],
)
def test_log_likelihood_refuses_nonfinite_arguments(d_n, delta, bad):
    ds = make_dataset(seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
        log_likelihood(d_n, delta, ds)


def int64_product_log_likelihood(d_n, delta, dataset):
    """The likelihood with its count factors left int64, as numpy casts them
    inside each product; the terms and their order are the package's."""
    p = flip_oscillation(d_n, dataset.xi) * flip_envelope(delta, dataset.xi)
    terms = np.log1p(-np.minimum(p, _P_CEIL)) * (dataset.trials - dataset.flips)
    if dataset.flips.any():
        terms += np.log(np.maximum(p, _P_FLOOR)) * dataset.flips
    return float(terms.sum())


def test_count_factors_cast_once_give_the_int64_products_bytes():
    # counts that a double does not hold, beside a point without flips:
    # 2**53 + 1 rounds when cast, and 2**62 + 511 misses round to 2**62,
    # where casting 2**62 + 513 trials and 2 flips apart would give 2**62 + 1024
    xi, trials = [1e20, 3e20, 1e21], [2**62 + 1, 1000, 2**62 + 513]
    flips = [2**53 + 1, 0, 2]
    ds = FlipDataset(xi=xi, trials=trials, flips=flips)
    no_flips = FlipDataset(xi=xi, trials=trials, flips=[0, 0, 0])
    pairs = [(0.0, 0.0), (1e-22, 0.0), (3e-22, 1e-22), (1e-21, 5e-22)]
    for data in (ds, no_flips):
        for d_n, delta in pairs:
            got = log_likelihood(d_n, delta, data)
            assert got.hex() == int64_product_log_likelihood(d_n, delta, data).hex()
    # a replaced dataset casts its own counts, in either direction
    for replaced, fresh in (
        (dataclasses.replace(ds, flips=[0, 0, 0]), no_flips),
        (dataclasses.replace(no_flips, flips=flips), ds),
    ):
        for d_n, delta in pairs:
            assert log_likelihood(d_n, delta, replaced).hex() == (
                log_likelihood(d_n, delta, fresh).hex()
            )


def test_log_likelihood_reorder_invariance():
    ds = make_dataset(seed=4)
    perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    shuffled = FlipDataset(xi=ds.xi[perm], trials=ds.trials[perm], flips=ds.flips[perm])
    a = log_likelihood(2e-22, 8e-22, ds)
    b = log_likelihood(2e-22, 8e-22, shuffled)
    assert b == pytest.approx(a, rel=1e-12)


def test_log_likelihood_against_brute_grid():
    ds = make_dataset(seed=8)
    dns = _grid_axis(0.0, 1.0 / XI_MAX, 50)
    des = _grid_axis(0.0, 3.0 / XI_MAX, 50)
    grid = log_likelihood(dns[:, None], des[None, :], ds)
    brute = np.array([[brute_log_likelihood(d, e, ds) for e in des] for d in dns])
    assert np.allclose(grid, brute, rtol=1e-10, atol=1e-6)
    # likelihood-ratio ordering is reproduced
    assert np.unravel_index(np.argmax(grid), grid.shape) == np.unravel_index(
        np.argmax(brute), brute.shape
    )
    order_pkg = np.argsort(grid.ravel()[::7])
    order_brt = np.argsort(brute.ravel()[::7])
    assert np.array_equal(order_pkg, order_brt)


def test_grid_and_scalar_likelihood_agree_exactly():
    # a grid call equals its float calls byte for byte
    ds = make_dataset(seed=2)
    dns = _grid_axis(0.0, 1.0 / XI_MAX, 7)
    des = _grid_axis(0.0, 3.0 / XI_MAX, 5)
    scalar = np.array([[log_likelihood(d, e, ds) for e in des] for d in dns])
    assert np.array_equal(log_likelihood(dns[:, None], des[None, :], ds), scalar)


def test_single_point_mle_identity():
    # with one point the optimum likelihood equals the binomial identity
    xi, n, k = 1e21, 10**6, 37_500
    ds = FlipDataset([xi], [n], [k])
    target = k * math.log(k / n) + (n - k) * math.log1p(-k / n)
    _, _, best, converged = _maximize(
        ds, SearchBox(dn_max=0.5 * math.pi / xi, delta_max=1.0 / xi)
    )
    assert converged
    assert best == pytest.approx(target, abs=1e-6)


def _dense_max(ll_of, lo, hi, points=20001):
    """Brute-force maximum of ll_of on [lo, hi]: a dense grid, then a dense
    grid over the two cells around its best point."""
    x = np.linspace(lo, hi, points)
    for _ in range(2):
        vals = ll_of(x)
        k = int(np.argmax(vals))
        step = x[1] - x[0]
        best = vals[k]
        x = np.linspace(max(lo, x[k] - step), min(hi, x[k] + step), points)
    return best


def _dense_max_2d(dataset, box, points=401):
    """Brute-force maximum log likelihood on the box: a dense linear 2-D
    grid, then a dense grid over the 2 x 2 cells around its best point."""
    dn = np.linspace(box.dn_min, box.dn_max, points)
    de = np.linspace(box.delta_min, box.delta_max, points)
    for _ in range(2):
        vals = log_likelihood(dn[:, None], de[None, :], dataset)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = float(vals[i, j])
        dn_step, de_step = dn[1] - dn[0], de[1] - de[0]
        dn = np.linspace(
            max(box.dn_min, dn[i] - dn_step), min(box.dn_max, dn[i] + dn_step), points
        )
        de = np.linspace(
            max(box.delta_min, de[j] - de_step), min(box.delta_max, de[j] + de_step), points
        )
    return best


def random_dataset(seed):
    """A seeded table with a random design, truth and trial count per point."""
    rng = substream(seed, 9, 1)
    points = int(rng.integers(3, 11))
    xis = XI_MAX * np.sort(rng.uniform(0.05, 1.0, points))
    xis[-1] = XI_MAX
    state = DipoleState(rng.uniform(0.0, 0.9) / XI_MAX, rng.uniform(0.0, 2.5) / XI_MAX)
    trials = rng.integers(10**3, 10**6, points)
    flips = rng.binomial(trials, flip_probability(state, xis))
    return FlipDataset(xi=xis, trials=trials, flips=flips)


def _guard_cases():
    cases = {f"pinned_{name}": (ds, FIT_BOX) for name, ds in FIT_CASES.items()}
    for seed in range(6):
        ds = random_dataset(seed)
        dn_max, delta_max = search_ceilings(ds, FIT_DELTA_WIDTHS)
        cases[f"random{seed}_pinned_box"] = (ds, FIT_BOX)
        cases[f"random{seed}_default_box"] = (ds, SearchBox(dn_max=dn_max, delta_max=delta_max))
    return cases


GUARD_CASES = _guard_cases()


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_fit_maximum_not_below_dense_grid(name):
    # the optimizer may trust its coarse grid only as far as a brute-force
    # search agrees: its maximum must not fall below a dense grid's by more
    # than rounding at log likelihoods of a few 1e6
    dataset, box = GUARD_CASES[name]
    result = fit(dataset, box)
    assert result.max_log_likelihood >= _dense_max_2d(dataset, box) - 1e-6


@pytest.mark.parametrize("axis", ["dn", "delta", "dn_at_delta_max"])
def test_profile_matches_coarse_grid_and_brute_force(axis):
    ds = make_dataset(seed=3)
    box = default_box()
    if axis == "dn_at_delta_max":
        # the pinned delta xi = 2.5 table at the bound's 1-width delta ceiling:
        # each row's nuisance maximum lies on the box edge delta_max
        ds = interior_dataset(0.3, 2.5)
        box = SearchBox(dn_max=0.5 * math.pi / XI_MAX, delta_max=1.0 / XI_MAX)
        axis = "dn"
    if axis == "dn":
        values = np.array([0.0, 0.1, 0.29, 0.3, 0.31, 0.5, 1.0]) / XI_MAX
        lo, hi, n = box.delta_min, box.delta_max, 33
        coarse = log_likelihood(values[:, None], _grid_axis(lo, hi, n)[None, :], ds)
    else:
        values = np.array([0.0, 0.5, 0.97, 1.0, 1.03, 2.0, 3.0]) / XI_MAX
        lo, hi, n = box.dn_min, box.dn_max, 65
        coarse = log_likelihood(_grid_axis(lo, hi, n)[:, None], values[None, :], ds).T
    profile, nuisance = _profile(ds, axis, values, box)
    # the best value evaluated: never below the row's coarse-grid maximum
    assert np.all(profile >= coarse.max(axis=1))
    # and the nuisance value reported with it attains it
    assert np.all((lo <= nuisance) & (nuisance <= hi))
    at = (values, nuisance) if axis == "dn" else (nuisance, values)
    assert np.allclose(log_likelihood(*at, ds), profile, rtol=1e-15, atol=0.0)
    for v, got in zip(values, profile):
        if axis == "dn":
            brute = _dense_max(lambda x: log_likelihood(v, x, ds), lo, hi)
        else:
            brute = _dense_max(lambda x: log_likelihood(x, v, ds), lo, hi)
        assert got == pytest.approx(brute, abs=1e-8)


def test_profile_rows_do_not_depend_on_their_batch():
    ds = make_dataset(seed=3)
    values = np.array([0.0, 0.2, 0.3, 0.7]) / XI_MAX
    together = np.array(_profile(ds, "dn", values, default_box()))
    alone = np.hstack([_profile(ds, "dn", values[i : i + 1], default_box()) for i in range(4)])
    assert together.tolist() == alone.tolist()


@pytest.mark.parametrize(
    "lives",
    [[1, 4, 2], [None, 3], [None, None], []],
    ids=["all_stop", "one_never_stops", "none_stop", "no_rows"],
)
def test_rounds_evaluate_each_live_row_once_per_round(lives):
    # row r has r + 1 points a round and stops after lives[r] rounds (None:
    # never); no rows is a zoom whose every coarse bracket is within tol
    calls, steps = [], []

    def f(x, owner):
        calls.append(owner.tolist())
        return 2.0 * x + owner  # exact: each value names its point and row

    def step(row, values):
        r, points, done = row
        assert values == [2.0 * x + r for x in points]
        steps.append((r, points))
        if done + 1 == lives[r]:
            return None
        return r, [x + 10.0 for x in points], done + 1

    def start(r):
        return r, [100.0 * r + j for j in range(r + 1)], 0

    stopped = _rounds(f, [start(r) for r in range(len(lives))], step)
    assert stopped == (None not in lives)
    assert len(calls) == (_MAX_ROUNDS if None in lives else max(lives, default=0))
    # a round evaluates the rows still live, in order, each row's points
    # together; a row that stopped is never evaluated again
    for k, owner in enumerate(calls):
        live = [r for r, life in enumerate(lives) if life is None or k < life]
        assert owner == [r for r in live for _ in range(r + 1)]
    together = steps.copy()
    for r in range(len(lives)):
        steps.clear()
        assert _rounds(f, [start(r)], step) == (lives[r] is not None)
        # a row alone evaluates the points it evaluated with the others
        assert steps == [(q, points) for q, points in together if q == r]


def _two_crossings(x):
    # above the threshold 1.0 below 0.1, on (0.3, 0.5) and beyond 0.8
    x = np.asarray(x)
    return np.where((x < 0.1) | ((x > 0.3) & (x < 0.5)) | (x > 0.8), 2.0, 0.0)


@pytest.mark.parametrize("a, b, nearest", [(0.15, 1.0, 0.3), (0.65, 0.0, 0.5)])
def test_crossing_returns_the_one_nearest_the_start(a, b, nearest):
    calls = []

    def q(x):
        calls.append(len(x))
        return _two_crossings(x)

    tol = 1e-7
    got = _crossing(q, a, b, 1.0, tol)
    assert abs(got - nearest) <= tol
    # each round narrows the bracket 8x: the first with 14 points (6
    # crowding towards the start, 7 across the bracket, and the end), every
    # later one with K = 7
    assert calls == [14] + [7] * (math.ceil(math.log(abs(b - a) / tol, 8)) - 1)


def _step_at(edge):
    return lambda x: np.where(np.asarray(x) >= edge, 10.0, 0.0)


@pytest.mark.parametrize(
    "a, b, edge, stop",
    [
        (0.0, 1.0, 0.5 * 8.0**-7, 2.0),
        (0.0, 1.0, 1.0 - 1e-9, 2.0),
        (1.0, 0.0, 1.0 - 0.5 * 8.0**-7, -1.0),
        (0.0, 1.0, 0.3, 0.4),
    ],
    ids=["below_first_point", "last_cell", "falling", "above_only_inside"],
)
def test_crossing_that_tests_its_end_starts_geometric(a, b, edge, stop):
    # the first round crowds towards the start, 8**-7 ... 8**-2 of the
    # bracket, then covers it at 1/8 ... 7/8, then the end; a step
    # statistic is sectioned uniformly after. The statistic is above the
    # threshold from edge to stop, so above_only_inside is below it again
    # at b and must still give its crossing, not b.
    calls = []

    def q(x):
        x = np.asarray(x)
        calls.append(x)
        return np.where(((x - edge) * (b - a) >= 0.0) & ((stop - x) * (b - a) > 0.0), 10.0, 0.0)

    tol = 1e-7 * 8.0**-7
    got = _crossing(q, a, b, 1.0, tol)
    assert abs(got - edge) <= tol
    assert got != b  # b itself is returned only when no point is above
    geometric = [8.0**-k for k in range(7, 1, -1)]
    uniform = [k / 8 for k in range(1, 8)]
    assert calls[0].tolist() == [a + (b - a) * t for t in geometric + uniform] + [b]
    assert {c.size for c in calls[1:]} == {7}


def test_scan_crossing_without_crossing_raises():
    # a statistic above the threshold at no point of the first round, the
    # end included, returns the end itself after that one round; upper_bound
    # reads that as no crossing up to dn_max and raises
    calls = []

    def q(x):
        calls.append(len(x))
        return _step_at(3.0)(x)

    assert _crossing(q, 1e-3, 2.5, 1.0, 1e-7) == 2.5
    assert calls == [14]
    ds = zero_flip_dataset()
    short = 0.99 * upper_bound(ds)
    with pytest.raises(NonConvergenceError, match=f"up to dn_max = {short:g}; widen dn_max"):
        upper_bound(ds, dn_max=short)


def test_crossing_rows_match_scalar_searches():
    # two brackets of different widths, sectioned together: each row must
    # return the scalar search's float, one batched q_of call per round
    calls = []

    def q(x):
        calls.append(len(x))
        return _two_crossings(x)

    a, b, tol = np.array([0.15, 0.65]), np.array([1.0, 0.85]), 1e-7
    got = _crossing(q, a, b, 1.0, tol)
    rounds = calls.copy()
    calls.clear()
    alone = [_crossing(q, float(x), float(y), 1.0, tol) for x, y in zip(a, b)]
    assert got.tolist() == alone
    assert np.all(np.abs(got - [0.3, 0.8]) <= tol)
    # the narrow bracket is frozen after its last round; the first round
    # is 14 points per row, a later one 7
    narrow = math.ceil(math.log(0.2 / tol, 8))
    wide = math.ceil(math.log(0.85 / tol, 8))
    assert narrow < wide
    assert rounds == [28] + [14] * (narrow - 1) + [7] * (wide - narrow)


def test_likelihood_call_budget(monkeypatch):
    # one criterion-5 fit, one criterion-6 bound and one fit of the same
    # zero-flip table, counted in calls of the batched likelihood that every
    # coarse grid and zoom step goes through; scalar profiles and a 60-step
    # bisection made 9186 and 9657 kernel calls, one-sided interval
    # sections 370 and 108, delta-profiled zero-flip searches 108 and 81,
    # and uniform K-section alone 226, 14 and 10; guided rounds made 154,
    # 10 and 5, and guided zoom steps that stop once the value is settled
    # 72, 10 and 5; a bound sectioned from the estimate with a geometric
    # first round, in place of a 256-point scan, makes 67, 4 and 5, and
    # the criterion-5 table's bound at the default ceilings 96
    import nedmsim.inference as inference

    calls = []
    batch = inference._log_likelihood_batch

    def counted(oscillation, envelope, dataset):
        calls.append(np.shape(envelope))
        return batch(oscillation, envelope, dataset)

    monkeypatch.setattr(inference, "_log_likelihood_batch", counted)
    fit(make_dataset(seed=0), default_box(), interval_cl=0.9973002039367398)
    fit_calls = len(calls)
    calls.clear()
    upper_bound(zero_flip_dataset(), cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX))
    bound_shapes = calls.copy()
    calls.clear()
    fit(zero_flip_dataset(), default_box())
    zero_fit_shapes = calls.copy()
    calls.clear()
    upper_bound(make_dataset(seed=0))
    assert fit_calls <= 70, fit_calls
    assert len(bound_shapes) <= 6, len(bound_shapes)
    assert len(zero_fit_shapes) <= 6, len(zero_fit_shapes)
    assert len(calls) <= 100, len(calls)
    # without flips the delta profile is one envelope at the ceiling: no
    # nuisance grid, no zoom
    assert set(bound_shapes) == set(zero_fit_shapes) == {(8,)}


def test_fit_requires_two_distinct_xi():
    # numpy's unique() verdict: 0.0 and -0.0 are one value
    for xi in ([1e21, 1e21], [1e21, 1e21, 1e21], [1e21], [0.0, -0.0]):
        ds = FlipDataset(xi, [100] * len(xi), [3] * len(xi))
        with pytest.raises(ValueError, match="joint fitting requires >= 2 distinct xi values"):
            fit(ds, default_box())


@pytest.mark.parametrize(
    "xi", [[5e20, 1e21], [0.0, 1e21], [1e21, np.nextafter(1e21, np.inf)]],
    ids=["two-values", "zero-and-one", "adjacent-doubles"],
)
def test_fit_accepts_two_distinct_xi(xi):
    assert fit(FlipDataset(xi, [100, 100], [3, 5]), default_box()).converged


def test_fit_recovers_truth_within_intervals():
    for seed in (0, 1, 2):
        ds = make_dataset(seed=seed)
        result = fit(ds, default_box(), interval_cl=0.9973002039367398)
        assert result.converged
        assert result.dn_interval[0] <= 0.3 / XI_MAX <= result.dn_interval[1]
        assert result.delta_interval[0] <= 1.0 / XI_MAX <= result.delta_interval[1]
        assert result.dn_hat == pytest.approx(0.3 / XI_MAX, rel=0.05)
        assert result.delta_hat == pytest.approx(1.0 / XI_MAX, rel=0.05)
        # intervals contain the point estimates
        assert result.dn_interval[0] <= result.dn_hat <= result.dn_interval[1]
        assert result.delta_interval[0] <= result.delta_hat <= result.delta_interval[1]


def test_fit_optimum_beats_grid_oracle():
    for seed in (0, 5):
        ds = make_dataset(seed=seed)
        box = default_box()
        result = fit(ds, box)
        dns = _grid_axis(box.dn_min, box.dn_max, 50)
        des = _grid_axis(box.delta_min, box.delta_max, 50)
        grid_best = float(np.max(log_likelihood(dns[:, None], des[None, :], ds)))
        assert result.max_log_likelihood >= grid_best - 1e-6


def test_fit_all_zero_flips_pins_floor():
    ds = zero_flip_dataset()
    result = fit(ds, default_box())
    assert result.dn_hat == 0.0
    assert not result.converged
    assert "flat" in result.message
    # the dipole interval is still informative: finite upper edge
    assert result.dn_interval[0] == 0.0
    assert result.dn_interval[1] < default_box().dn_max


def test_fit_all_zero_flips_above_a_positive_floor_reports_the_maximum():
    # at d_n = dn_min > 0 the likelihood rises with delta: its maximum over
    # the box is at (dn_min, delta_max), not at (dn_min, delta_min)
    ds = FlipDataset([1e21, 2e21, 4e21], [10**6] * 3, [0, 0, 0])
    box = SearchBox(dn_max=3e-22, delta_max=2e-22, dn_min=1e-25)
    result = fit(ds, box)
    assert (result.dn_hat, result.delta_hat) == (1e-25, 2e-22)
    assert result.max_log_likelihood == pytest.approx(log_likelihood(1e-25, 2e-22, ds), rel=1e-15)
    dns, deltas = np.linspace(1e-25, 3e-22, 41), np.linspace(0.0, 2e-22, 41)
    assert np.max(log_likelihood(dns[:, None], deltas[None, :], ds)) <= result.max_log_likelihood
    # the interval's upper edge is where the statistic from that maximum
    # crosses the 95% threshold, chi2.ppf(0.95, 1) = 3.841, to within the
    # search resolution
    edge = result.dn_interval[1]
    q = 2.0 * (result.max_log_likelihood - log_likelihood(edge, 2e-22, ds))
    assert q == pytest.approx(NormalDist().inv_cdf(0.025) ** 2, rel=1e-3)


def test_fit_all_full_flips_flagged():
    ds = FlipDataset([1e20, 1e21], [100, 100], [100, 100])
    result = fit(ds, default_box())
    assert not result.converged
    assert "flat" in result.message


def test_fit_scale_covariance():
    ds = make_dataset(seed=6)
    result = fit(ds, default_box())
    s = 10.0
    rescaled = FlipDataset(xi=ds.xi / s, trials=ds.trials, flips=ds.flips)
    box_s = default_box(dn_max=s * 1.0 / XI_MAX, delta_max=s * 3.0 / XI_MAX)
    result_s = fit(rescaled, box_s)
    assert result_s.dn_hat / s == pytest.approx(result.dn_hat, rel=1e-5)
    assert result_s.delta_hat / s == pytest.approx(result.delta_hat, rel=1e-5)


def test_upper_bound_zero_flip_finite_and_shrinks():
    bound_1 = upper_bound(zero_flip_dataset(1.0), cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX))
    bound_10 = upper_bound(zero_flip_dataset(10.0), cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX))
    assert 0.0 < bound_10 < bound_1 < 0.5 * math.pi / XI_MAX
    # 10x the trials tightens by about sqrt(10)
    assert bound_1 / bound_10 == pytest.approx(math.sqrt(10.0), rel=0.05)


def zero_flip_statistic(d, delta_hi, dataset):
    """q(d) = -2 sum n_i ln(1 - p_i(d, delta_hi)), in scalar math.

    Without flips every log-likelihood term n_i ln(1 - p_i) rises as the
    envelope, and so p_i, falls with delta: the profile over delta is the
    likelihood at the ceiling, and this is the bound's statistic exactly.
    """
    return -2.0 * sum(
        n * math.log1p(-(math.sin(d * xi) ** 2) * math.exp(-((xi * delta_hi) ** 2)))
        for xi, n in zip(dataset.xi.tolist(), dataset.trials.tolist())
    )


def zero_flip_root(threshold, delta_hi, dataset, dn_max):
    """Bisection root of the closed-form statistic, to adjacent doubles.

    Every sin^2 rises on [0, dn_max = pi / (2 xi_max)], so the statistic
    rises strictly there and has one crossing.
    """
    lo, hi = 0.0, dn_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if zero_flip_statistic(mid, delta_hi, dataset) > threshold:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("resolution", [1e-7, 1e-12])
@pytest.mark.parametrize("widths", [0.01, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_zero_flip_bound_matches_closed_form_root(scale, widths, resolution):
    # criterion 6's designs (8e6 and 8e8 trials) at four delta ceilings
    ds = zero_flip_dataset(scale)
    delta_hi = widths / XI_MAX
    dn_max, _ = search_ceilings(ds, 1.0)
    threshold = NormalDist().inv_cdf(0.05) ** 2
    root = zero_flip_root(threshold, delta_hi, ds, dn_max)
    got = upper_bound(ds, cl=0.95, delta_bounds=(0.0, delta_hi), resolution=resolution)
    # the search stops at resolution relative to the bound, not to dn_max
    assert abs(got - root) <= resolution * root, (got, root)


@pytest.mark.parametrize("widths", [0.01, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_zero_flip_bound_probability_of_zero_flips(scale, widths):
    # exact coverage statement, no toys: at the 95% Wilks bound b with delta
    # at its ceiling, zero flips occur with probability
    # prod (1 - p_i)^n_i = exp(-q(b)/2) = exp(-z_0.95^2 / 2) = 0.2585, so
    # for a true d_n just above b every zero-flip toy misses and the
    # coverage there is at most 0.742
    ds = zero_flip_dataset(scale)
    delta_hi = widths / XI_MAX
    b = upper_bound(ds, cl=0.95, delta_bounds=(0.0, delta_hi))
    p_zero = math.prod(
        (1.0 - math.sin(b * xi) ** 2 * math.exp(-((xi * delta_hi) ** 2))) ** n
        for xi, n in zip(ds.xi.tolist(), ds.trials.tolist())
    )
    wilks = math.exp(-(NormalDist().inv_cdf(0.05) ** 2) / 2)
    assert p_zero == pytest.approx(wilks, rel=1e-6)
    assert round(wilks, 4) == 0.2585


def test_upper_bound_nested_confidence_levels():
    ds = zero_flip_dataset()
    bounds = [
        upper_bound(ds, cl=cl, delta_bounds=(0.0, 1.0 / XI_MAX))
        for cl in (0.5, 0.68, 0.9, 0.95, 0.99)
    ]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(bounds, bounds[1:]))


def test_upper_bound_covers_null_truth():
    # the quantum model never flips at dn = 0, so data generated there is
    # this zero-flip table at every seed; its bound is strictly positive
    b = upper_bound(zero_flip_dataset(), cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX))
    assert b > 0.0


def test_upper_bound_delta_profile_insensitivity():
    ds = zero_flip_dataset()
    bounds = {
        mult: upper_bound(ds, cl=0.95, delta_bounds=(0.0, mult / XI_MAX))
        for mult in (0.01, 0.1, 1.0)
    }
    spread = max(bounds.values()) / min(bounds.values())
    assert spread < 1.10


def test_upper_bound_nonconvergence_diagnostic():
    ds = zero_flip_dataset()
    with pytest.raises(NonConvergenceError, match="up to dn_max = 1e-40; widen dn_max"):
        upper_bound(ds, cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX), dn_max=1e-40)


@pytest.mark.parametrize(
    "trials, ceilings", [(8_000_000, 2.0), (8_000_000, 2.9), (5, 2.0)], ids=["2.0", "2.9", "5_trials"]
)
def test_upper_bound_past_the_aliasing_ceiling_is_the_nearest_crossing(trials, ceilings):
    # past pi / (2 xi) sin^2 aliases: with one xi the statistic falls back
    # to 0 at d_n = pi / xi (2 ceilings, the search's end) and rises again;
    # the bound is still the crossing nearest the estimate. With 5 trials
    # the crossing lies past 1/8 of the search, at about 0.93 / xi.
    ds = FlipDataset([XI_MAX], [trials], [0])
    dn_ceiling, delta_hi = search_ceilings(ds, 1.0)
    threshold = NormalDist().inv_cdf(0.05) ** 2
    angle = math.asin(math.sqrt(-math.expm1(-threshold / (2 * trials)) * math.exp(1.0)))
    root = angle / XI_MAX
    got = upper_bound(ds, dn_max=ceilings * dn_ceiling)
    assert abs(got - root) <= 1e-7 * root, (got, root)
    assert got == pytest.approx(upper_bound(ds), rel=1e-7)


def test_upper_bound_resolution_below_double_precision_terminates():
    # a bracket cannot shrink below double precision; the search must stop
    ds = zero_flip_dataset()
    fine = upper_bound(ds, resolution=1e-30)
    dn_max, _ = search_ceilings(ds, 1.0)
    assert abs(fine - upper_bound(ds)) <= 1e-7 * dn_max


def test_fit_resolution_below_double_precision_terminates():
    # the d_n zoom stalls at double precision; it must stop unconverged
    # after its capped step count instead of spinning
    result = fit(make_dataset(seed=0), default_box(resolution=1e-17))
    assert not result.converged
    assert "zoom steps" in result.message
    assert result.dn_hat == pytest.approx(0.3 / XI_MAX, rel=0.05)


def test_search_box_grid_points_stop_at_the_ceiling():
    # the coarse grid's temporaries hold grid_points**2 doubles per data point
    assert default_box(grid_points=GRID_POINTS_MAX).grid_points == GRID_POINTS_MAX
    for grid_points in (3, GRID_POINTS_MAX + 1):
        with pytest.raises(ValueError, match=rf"grid_points must lie in \[4, {GRID_POINTS_MAX}\]"):
            default_box(grid_points=grid_points)
    # a value of the wrong kind is refused naming its field, never with a TypeError
    for field, value in (("grid_points", 5.0), ("grid_points", np.int64(5)), ("dn_max", "1"),
                         ("resolution", None), ("delta_max", True)):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            default_box(**{field: value})


def test_search_ceilings_from_largest_xi():
    ds = FlipDataset([-2e21, 1e21], [10, 10], [1, 1])
    assert search_ceilings(ds, 5.0) == (0.5 * math.pi / 2e21, 5.0 / 2e21)
    with pytest.raises(ValueError, match="nonzero xi"):
        search_ceilings(FlipDataset([0.0], [10], [0]), 1.0)


def test_upper_bound_defaults_to_derived_ceilings():
    # delta profiled over [0, 1/xi_max], scan capped at half a flip oscillation
    ds = zero_flip_dataset()
    explicit = upper_bound(
        ds, cl=0.95, delta_bounds=(0.0, 1.0 / XI_MAX), dn_max=0.5 * math.pi / XI_MAX
    )
    assert upper_bound(ds) == explicit


def test_upper_bound_validates_cl():
    ds = zero_flip_dataset()
    with pytest.raises(ValueError):
        upper_bound(ds, cl=0.4, delta_bounds=(0.0, 1.0 / XI_MAX))
    with pytest.raises(ValueError):
        upper_bound(ds, cl=1.0, delta_bounds=(0.0, 1.0 / XI_MAX))
    # the delta range is checked by the search box the bound builds
    with pytest.raises(ValueError, match="delta_min < delta_max"):
        upper_bound(ds, cl=0.95, delta_bounds=(1.0 / XI_MAX, 0.5 / XI_MAX))
    with pytest.raises(ValueError, match="0 <= delta_min"):
        upper_bound(ds, cl=0.95, delta_bounds=(-1.0 / XI_MAX, 1.0 / XI_MAX))


def test_dataset_validation():
    with pytest.raises(ValueError):
        FlipDataset([1e21], [10], [11])
    with pytest.raises(ValueError):
        FlipDataset([1e21], [0], [0])
    with pytest.raises(ValueError):
        FlipDataset([], [], [])


@pytest.mark.parametrize(
    "trials, flips, bad",
    [
        ([100.7, 100], [3, 0], "trials must be integers in the int64 range, got 100.7"),
        ([100, 100], [3.9, 0], "flips must be integers in the int64 range, got 3.9"),
        ([math.inf, 100], [0, 0], "got inf"),
        ([math.nan, 100], [0, 0], "got nan"),
        ([1e30, 100], [0, 0], "got 1e+30"),
        ([10**30, 100], [0, 0], "got 1000000000000000000000000000000"),
        (np.array([2**64 - 1, 100], dtype=np.uint64), [0, 0], "trials must be integers"),
        # an integer beyond int64 is quoted as written, not as its rounded double
        ([2**63, 100], [0, 0], "got 9223372036854775808"),
        ([2**64 + 5, 100], [0, 0], "got 18446744073709551621"),
    ],
)
def test_dataset_refuses_counts_that_are_not_int64_integers(trials, flips, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        FlipDataset(xi=[1e20, 1e21], trials=trials, flips=flips)


def test_dataset_accepts_integral_float_counts():
    ds = FlipDataset(xi=[1e20, 1e21], trials=[1e3, 2**62], flips=np.array([3.0, 0.0]))
    assert ds.trials.dtype == ds.flips.dtype == np.int64
    assert ds.xi.tolist() == [1e20, 1e21]
    assert ds.trials.tolist() == [1000, 2**62]
    assert ds.flips.tolist() == [3, 0]


def test_dataset_keeps_integer_counts_exact_beside_float_cells():
    # a float cell must not send its column through float64, which would
    # round 2**53 + 1 down by one and 2**63 - 1 up out of the int64 range
    ds = FlipDataset([1e21, 3e20, 1.0], [1e3, 2**53 + 1, 2**63 - 1], [0.0, 2**53, 2**63 - 2])
    assert ds.trials.tolist() == [1000, 2**53 + 1, 2**63 - 1]
    assert ds.flips.tolist() == [0, 2**53, 2**63 - 2]
    ds = FlipDataset([1e21, 3e20], np.array([2**63 - 1, 7], dtype=np.uint64),
                     [np.int64(2**53 + 1), 7.0])
    assert ds.trials.tolist() == [2**63 - 1, 7]
    assert ds.flips.tolist() == [2**53 + 1, 7]
    with pytest.raises(ValueError, match="flips must lie in"):
        FlipDataset([1e21, 3e20], [1e3, 2**53 + 1], [1000, 2**53 + 2])


def test_dataset_refuses_xi_beyond_the_double_range():
    # the ValueError of bad input, never float()'s OverflowError
    with pytest.raises(ValueError, match="^xi must lie in the double range$"):
        FlipDataset([10**400, 1e20], [10, 10], [0, 0])


def test_datasets_with_the_same_arrays_are_equal_and_hash_alike():
    # the generated __eq__ compared tuples of arrays, which raised ValueError
    ds = FlipDataset([1e20, 1e21], [10, 10], [1, 0])
    same = FlipDataset(np.array([1e20, 1e21]), [10.0, 10.0], np.array([1, 0], dtype=np.int32))
    assert ds == same and not ds != same
    assert hash(ds) == hash(same)
    assert len({ds, same}) == 1
    assert ds != FlipDataset([1e20, 1e21], [10, 10], [1, 1])
    assert ds != FlipDataset([1e20, 2e21], [10, 10], [1, 0])
    assert ds != (ds.xi, ds.trials, ds.flips)
    assert dataclasses.replace(ds, flips=[0, 0]) == FlipDataset([1e20, 1e21], [10, 10], [0, 0])


def test_campaign_estimator_noiseless_degenerate():
    config = CampaignConfig(true_dn=5e-21, cycles=4, counting_mode="expected", seed=1)
    est = campaign_estimator(run_campaign(config), config)
    assert est.degenerate
    assert est.standard_error == 0.0
    assert est.n_pairs == 2
    assert est.dn_hat == pytest.approx(5e-21, rel=1e-10)


def test_campaign_estimator_null_mean_over_seeds():
    estimates = []
    for seed in range(50):
        config = CampaignConfig(true_dn=0.0, cycles=40, seed=seed)
        estimates.append(campaign_estimator(run_campaign(config), config).dn_hat)
    sample = np.asarray(estimates)
    se_mean = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean()) < 4.0 * se_mean


def test_campaign_estimator_reported_se_scaling():
    config_small = CampaignConfig(true_dn=0.0, cycles=40, seed=3)
    config_large = CampaignConfig(true_dn=0.0, cycles=4000, seed=3)
    se_small = campaign_estimator(run_campaign(config_small), config_small).standard_error
    se_large = campaign_estimator(run_campaign(config_large), config_large).standard_error
    assert se_small / se_large == pytest.approx(10.0, rel=0.25)


def test_campaign_estimator_rejects_lone_polarity():
    config = CampaignConfig(cycles=4, seed=0)
    table = run_campaign(config)
    # a slice of the table itself would take its fields, not its cycles
    with pytest.raises(ValueError, match="lone polarity"):
        campaign_estimator(CycleTable(*(column[:3] for column in table)), config)
    with pytest.raises(ValueError, match="pair"):
        campaign_estimator(CycleTable(*(column[:1] for column in table)), config)


def test_campaign_estimator_rejects_same_polarity_pair():
    config = CampaignConfig(cycles=4, seed=0)
    table = run_campaign(config)
    bad = CycleTable(*(column[[0, 2]] for column in table))  # both +1
    with pytest.raises(ValueError, match="share polarity"):
        campaign_estimator(bad, config)


def test_campaign_estimator_saturated_cycles_rejected():
    # asymmetry at the visibility ceiling carries no phase information
    config = CampaignConfig(cycles=2, seed=0)
    cycles = [
        (0, +1, 10_000, 0, 29.0, 7.59, 29.0 / 7.59),
        (1, -1, 10_000, 0, 29.0, 7.59, 29.0 / 7.59),
    ]
    table = CycleTable(*map(np.array, zip(*cycles)))
    with pytest.raises(ValueError, match="saturated"):
        campaign_estimator(table, config)
