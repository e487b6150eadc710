"""Likelihood fits and profile upper bounds on flip-count data.

Flip-count data at several kick strengths constrain the dipole expectation
value and its uncertainty jointly, because the two enter the flip
probability differently: d_n through sin(d_n xi)^2 and delta through the
envelope exp(-(xi delta)^2). The binomial log likelihood

    l(d_n, delta) = sum_i [ k_i ln p_i + (n_i - k_i) ln(1 - p_i) ]

is maximized without gradients, because the sin^2 ridges make the
surface multimodal in d_n. Everything rests on the profile likelihood:
the nuisance parameter is maximized out at each value of the parameter
of interest, for many values in one vectorized kernel call (a coarse
grid, then a zoom per row). The kernel factor of the parameter of
interest is fixed along a row, so a profile computes it once and each
step computes only the nuisance factor. A zoom step is uniform, points
across a row's bracket keeping the two cells around the best, until the
best is interior with a concave parabola through it and its neighbours;
then it is guided, three points around the parabola's vertex (successive
parabolic interpolation; R. P. Brent, Algorithms for Minimization
without Derivatives, 1973, ch. 5). Intervals and bounds read only a
profile's value, which near a row's maximum settles with the square of
the nuisance's error, so a profile row stops once a guided step's
parabola promises less than 1e-14 |l| more. The maximum likelihood is
the maximum of the d_n profile: a coarse geometric grid over the box
picks the basin, and the same zoom, on one row of batched profiles,
locates it.

Intervals and upper bounds compare the profile ratio statistic
q = 2(l_max - l_profile) with a chi-square quantile (two-sided for
intervals, one-sided for bounds). Crossings are found by K-section, a
few points per bracket, taking the crossing nearest the estimate; the
two edges of an interval are one bracket per row, and an upper bound is
one such row from the estimate to dn_max. The first round of a crossing
search also tests the far end, and its points crowd geometrically
towards the estimate, so a crossing close to it is bracketed at once,
and then cover the bracket uniformly, so a crossing far from it is not
missed where the statistic is back below the threshold at the end; the
next round is uniform. Where the statistic is smooth, sqrt(q) is close
to a line near a crossing (q ~ ((v - v_hat)/sigma)^2), so once a row's
last equally spaced round shows it so, the next round is guided: three
points around the secant root of sqrt(q), as close together as that
round's departure from a line allows. A guided round that misses falls
back to one uniform round, and a step statistic is sectioned uniformly
throughout. The maximum and the interval edges stop at ``resolution``
times the axis width, a profile's nuisance there or once its value is
settled, an upper bound at ``resolution`` relative to itself. Without
flips the likelihood rises with delta, so a d_n profile is the
likelihood at the delta ceiling, one kernel call with no nuisance
search.

Every search runs in rounds (_rounds): the profiles' zoom, the
maximum's zoom, the interval edges and the bound. A round is one
batched likelihood call over the points of every row still searching,
each row's next points depend on its own values only, so a row ends
where a search of that row alone would, and at most _MAX_ROUNDS rounds
run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .comagnetometer import (  # re-exported
    CampaignEstimate,
    campaign_estimator,
)
from .quantities import check_fields
from .weak_measurement import DipoleState, check_phase, flip_envelope, flip_oscillation

__all__ = [
    "FlipDataset",
    "SearchBox",
    "FitResult",
    "CampaignEstimate",
    "NonConvergenceError",
    "search_ceilings",
    "log_likelihood",
    "fit",
    "upper_bound",
    "campaign_estimator",
]

# Lower probability clamp per the likelihood contract. The nominal upper
# clamp 1 - 1e-300 is not representable in binary64 (it rounds to 1.0), so
# the effective upper clamp is the largest double below 1.
_P_FLOOR = 1e-300
_P_CEIL = float(np.nextafter(1.0, 0.0))

# Defaults shared by the library calls, the [inference] config section and
# the fit and bound commands; delta ceilings are in widths (search_ceilings).
GRID_POINTS_DEFAULT = 48
# Most coarse grid points per axis: the grid's likelihood temporaries hold
# grid_points**2 doubles per data point, 8 MiB each at this ceiling.
GRID_POINTS_MAX = 1024
RESOLUTION_DEFAULT = 1e-7
CL_DEFAULT = 0.95
FIT_DELTA_WIDTHS = 5.0
BOUND_DELTA_WIDTHS = 1.0

# Batch shapes of the zoom and crossing searches: interior candidates per
# row and uniform zoom step (a bracket's ends are known; each step keeps
# two of 16 cells, 8x narrower), and interior points per K-section round
# (8x per uniform round). They keep each batched likelihood call to a few
# thousand elements per data point.
# _MAX_ROUNDS caps the rounds of every search (_rounds): 8**20 = 2**60
# narrows any bracket below double precision, so a resolution finer than
# that cannot stall a bracket that no longer shrinks.
_ZOOM_POINTS = 15
_SECTIONS = 7
_MAX_ROUNDS = 20
# fractions of a bracket at which a zoom step and a uniform K-section round
# evaluate, and the first round of a search that tests its end: geometric,
# 8**-7 ... 8**-2, then the uniform round's points
_ZOOM_T = (np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)).tolist()
_SECTION_T = (np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)).tolist()
_FIRST_T = (8.0 ** -np.arange(_SECTIONS, 1, -1)).tolist() + _SECTION_T
# Guided zoom steps (_zoom): the first after a uniform step spaces its
# three points _ZOOM_FIRST of that step's spacing apart, later ones
# _GUIDE_SAFETY times the vertex's predicted miss. A profile row stops
# once a guided step's parabola promises less than _SETTLE |l| above its
# best value. It is relative because l and its rounding scale together: l
# runs from about -2e3 on the pinned tables to -7e5 at criterion 5 (an ulp
# of 1.2e-10), and the pinned maxima agree to 1e-13 of l; an absolute 1e-7
# broke that on the -2e3 tables.
_ZOOM_FIRST = 0.125
_SETTLE = 1e-14
# Guided K-section rounds (_crossing): a guided round's three points lie a
# gap apart, _GUIDE_SAFETY times the departure of sqrt(q) from a line in
# the row's last round relative to its rise, at least _GUIDE_MIN, as a
# fraction of the bracket; a row whose gap would exceed _GUIDE_MAX (a hit
# would narrow its bracket less than 16x) is sectioned uniformly. Over the
# criterion-5 and fit_study fits, a secant root was off by at most 0.6
# departures where the departure was above 1e-6.
_GUIDE_SAFETY = 8.0
_GUIDE_MIN = 2.0**-20
_GUIDE_MAX = 2.0**-4
_UNCONVERGED = (
    "the d_n bracket was still wider than the requested resolution "
    f"after {_MAX_ROUNDS} zoom steps"
)


class NonConvergenceError(RuntimeError):
    """Raised when a profile or bound search fails to bracket its target."""


def _int64_counts(values, name: str) -> np.ndarray:
    """``values`` as int64, each integer cell exactly; ValueError for a cell
    like 100.7, inf, 1e30 or 2**63 (1e3 passes).

    Only an integer array is cast whole: numpy would pass a column holding
    a float cell through float64, rounding its integers above 2**53.
    """
    counts = np.asarray(values)
    if counts.dtype.kind in "bi":
        return counts.astype(np.int64)
    exact = []
    for cell in np.asarray(values, dtype=object).flat:  # each cell as given
        cell = cell.item() if isinstance(cell, np.generic) else cell
        value = cell if isinstance(cell, int) else float(cell)
        if not (-(2**63) <= value < 2**63 and value == int(value)):
            # quote the cell as written, not as a rounded double
            raise ValueError(f"{name} must be integers in the int64 range, got {cell!r}")
        exact.append(int(value))
    return np.array(exact, np.int64).reshape(counts.shape)


def _float64(values, name: str) -> np.ndarray:
    """``values`` as float64; ValueError for an integer beyond the double range."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must lie in the double range") from None


@dataclass(frozen=True, eq=False)
class FlipDataset:
    """Flip counts at a set of kick strengths.

    Built from, and read as, three parallel columns (xi in rad per e·cm,
    integer trials and flips). A count column may mix integers and
    integral floats; each cell keeps its exact value and must lie in the
    int64 range. Joint (d_n, delta) fitting needs at least two distinct xi.

    The likelihood's count factors, float64 ``trials - flips`` and, if any
    point has flips, float64 ``flips`` (else None), are cast once here and
    kept as private attributes, not fields. Two datasets are equal, and
    hash alike, when their three arrays hold the same bytes.
    """

    xi: np.ndarray
    trials: np.ndarray
    flips: np.ndarray

    def __post_init__(self) -> None:
        xi = _float64(self.xi, "xi")
        trials = _int64_counts(self.trials, "trials")
        flips = _int64_counts(self.flips, "flips")
        if not (xi.ndim == 1 and xi.shape == trials.shape == flips.shape):
            raise ValueError("xi, trials, flips must be matching 1-d arrays")
        if xi.size == 0:
            raise ValueError("dataset must contain at least one point")
        if not np.all(np.isfinite(xi)):
            raise ValueError("xi values must be finite")
        if np.any(trials < 1):
            raise ValueError("every point needs trials >= 1")
        if np.any(flips < 0) or np.any(flips > trials):
            raise ValueError("flips must lie in [0, trials] at every point")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "flips", flips)
        object.__setattr__(self, "_miss_factor", (trials - flips).astype(float))
        object.__setattr__(self, "_flip_factor", flips.astype(float) if flips.any() else None)

    def _bytes(self) -> tuple[bytes, bytes, bytes]:
        return self.xi.tobytes(), self.trials.tobytes(), self.flips.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlipDataset):
            return NotImplemented
        return self._bytes() == other._bytes()

    def __hash__(self) -> int:
        return hash(self._bytes())


@dataclass(frozen=True)
class SearchBox:
    """Closed parameter box and stopping resolution for the fit.

    ``resolution`` is relative to each axis width: the maximum's d_n and
    the interval edges are each located to within resolution * width of
    their axis, and a profile's nuisance to that or until its value is
    settled. ``grid_points`` is an ``int`` in [4, GRID_POINTS_MAX], the
    other fields finite numbers.
    """

    dn_max: float
    delta_max: float
    dn_min: float = 0.0
    delta_min: float = 0.0
    grid_points: int = GRID_POINTS_DEFAULT
    resolution: float = RESOLUTION_DEFAULT

    def __post_init__(self) -> None:
        check_fields(self)
        if not (0.0 <= self.dn_min < self.dn_max):
            raise ValueError("need 0 <= dn_min < dn_max")
        if not (0.0 <= self.delta_min < self.delta_max):
            raise ValueError("need 0 <= delta_min < delta_max")
        if not 4 <= self.grid_points <= GRID_POINTS_MAX:
            raise ValueError(f"grid_points must lie in [4, {GRID_POINTS_MAX}]")
        if not 0 < self.resolution < 1:
            raise ValueError("resolution must lie in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    """Joint estimate with profile-likelihood intervals at ``interval_cl``."""

    dn_hat: float
    delta_hat: float
    max_log_likelihood: float
    dn_interval: tuple[float, float]
    delta_interval: tuple[float, float]
    interval_cl: float
    converged: bool
    message: str = ""


def _binomial_terms(p: np.ndarray, dataset: FlipDataset) -> np.ndarray:
    """Per-point terms k ln p + (n - k) ln(1 - p); overwrites the array p.

    Each log sees its own one-sided clamp, so a probability of exactly 0
    with zero flips (or 1 with all flips) contributes exactly 0. Without
    flips anywhere the k ln p term is a signed zero at every point, and
    adding it would not change a bit of the sum, so it is not formed. The
    count factors are the dataset's float64 casts, which numpy would
    otherwise make inside each product, so the bytes are the same.
    """
    terms = np.minimum(p, _P_CEIL)
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    terms *= dataset._miss_factor
    if dataset._flip_factor is not None:
        np.maximum(p, _P_FLOOR, out=p)
        np.log(p, out=p)
        p *= dataset._flip_factor
        terms += p
    return terms


def log_likelihood(d_n, delta, dataset: FlipDataset):
    """Binomial log likelihood of the dataset at (d_n, delta), broadcasting.

    ``d_n`` and ``delta`` are floats or arrays that broadcast together: a
    float pair gives a float, and arrays an array of their broadcast
    shape, each element equal to the float call at its pair byte for byte.
    Probabilities are clamped away from 0 and 1 inside the logs, so
    degenerate points contribute a large finite penalty instead of -inf.
    A non-finite ``d_n`` or ``delta``, or a negative ``delta``, raises
    ValueError naming the argument.
    """
    d_n, delta = np.asarray(d_n), np.asarray(delta)
    for name, value in (("d_n", d_n), ("delta", delta)):
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"{name} must be finite, got {value[~finite].tolist()[0]!r}")
    if (delta < 0).any():
        raise ValueError("delta must be >= 0")
    ll = _log_likelihood_batch(
        flip_oscillation(d_n[..., None], dataset.xi),
        flip_envelope(delta[..., None], dataset.xi),
        dataset,
    )
    return float(ll) if ll.ndim == 0 else ll


@lru_cache(maxsize=64)
def _grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Geometric grid on [lo, hi]; a zero lower edge is kept explicitly.

    A pure function of its arguments, so it is cached; the array is
    read-only because every caller shares it.
    """
    if lo > 0:
        axis = np.geomspace(lo, hi, n)
    else:
        axis = np.concatenate([[0.0], np.geomspace(hi * 1e-6, hi, n - 1)])
    axis.flags.writeable = False
    return axis


def _log_likelihood_batch(oscillation, envelope, dataset: FlipDataset) -> np.ndarray:
    """Log likelihood at p = oscillation * envelope, summed over the last axis.

    The factors are the two halves of flip_kernel, evaluated at the data's
    xi on the last axis. Every coarse grid and every zoom step of the
    optimizer is one call of this function.
    """
    return np.add.reduce(_binomial_terms(oscillation * envelope, dataset), axis=-1)


def _coarse_max(dataset: FlipDataset, search: SearchBox):
    """Best point of the coarse geometric grid: (d_n grid, d_n index, delta, ll)."""
    dns = _grid_axis(search.dn_min, search.dn_max, search.grid_points)
    des = _grid_axis(search.delta_min, search.delta_max, search.grid_points)
    grid_ll = log_likelihood(dns[:, None], des[None, :], dataset)
    i, j = np.unravel_index(int(np.argmax(grid_ll)), grid_ll.shape)
    return dns, int(i), float(des[j]), float(grid_ll[i, j])


def _maximize(dataset: FlipDataset, search: SearchBox) -> tuple[float, float, float, bool]:
    """Maximum likelihood as the maximum of the d_n profile: (dn, delta, ll, converged).

    _zoom narrows the best coarse-grid point's two neighbouring cells as one
    row of batched profiles. d_n itself is an output, so the row stops on
    its bracket only, not on a settled value: ``converged`` tells whether
    the bracket reached resolution * d_n width. The best point evaluated
    is never below the grid.
    """
    dns, i, de, ll = _coarse_max(dataset, search)
    nuisance = {}  # the profile's delta at each d_n evaluated

    def profile(cand, rows):
        values, deltas = _profile(dataset, "dn", cand, search)
        nuisance.update(zip(cand.tolist(), deltas.tolist()))
        return values

    tol = search.resolution * (search.dn_max - search.dn_min)
    lo, hi = dns[[max(i - 1, 0)]], dns[[min(i + 1, dns.size - 1)]]
    (ll,), (dn,), converged = _zoom(profile, lo, hi, np.array([ll]), dns[[i]], tol, False)
    return float(dn), nuisance.get(dn, de), float(ll), converged


def _rounds(f, rows, step) -> bool:
    """Run row-wise searches round by round; whether every row stopped.

    A row is a tuple (index, points, ...). Each round evaluates the points
    of every live row in one call ``f(x, owner)``, ``x`` the points in row
    order and ``owner`` the index of each point's row, and replaces each
    row by ``step(row, values)``, its values in the order of its points:
    the row's next tuple, or None once the row stops. At most _MAX_ROUNDS
    rounds run. A row's next tuple depends on its own values only, so a
    row ends where a search of that row alone would.
    """
    for _ in range(_MAX_ROUNDS):
        if not rows:
            break
        sizes = [len(row[1]) for row in rows]
        values = f(
            np.fromiter(itertools.chain.from_iterable(row[1] for row in rows), float),
            np.array([row[0] for row in rows]).repeat(sizes),
        ).tolist()
        live, start = [], 0
        for row, size in zip(rows, sizes):
            nxt = step(row, values[start : start + size])
            start += size
            if nxt is not None:
                live.append(nxt)
        rows = live
    return not rows


def _zoom(f, lo, hi, best, arg, tol, settle):
    """Narrow each row's bracket [lo, hi] onto its maximum of the batched ``f``.

    ``f(x, rows)`` returns the values at the points ``x`` of the rows
    ``rows`` (matching 1-d arrays), one call per round (_rounds). A
    uniform step evaluates _ZOOM_POINTS points across a row's bracket,
    whose ends are known, and keeps the two cells around the best, 8x
    narrower, the bracket's ends standing in for neighbours not evaluated.
    Once a row's best point is interior and the parabola through it and
    its two neighbours is concave, its next step is guided: three points
    ``gap`` apart around the vertex, which lies within half a spacing of
    the best, so inside the kept cell. A guided step whose three points
    are not strictly increasing in floating point keeps the bracket, and
    a best point at an end (a maximum on a box edge) or no concave
    parabola makes the next step uniform. A row stops once its bracket is
    within ``tol`` or, with ``settle``, once a guided step's parabola
    promises less than _SETTLE * |value| above its best.

    The gap: through points spaced s around a point e from the maximum,
    the vertex misses by about K (s^2/3 - e^2), K being half the ratio of
    the third to the second derivative. A guided step's offset is the
    last vertex's miss, which gives K and so this vertex's miss; the gap
    is _GUIDE_SAFETY times that, or _ZOOM_FIRST of the spacing after a
    uniform step. A settling row's gap is also wide enough for its values
    to differ by 4 _SETTLE |b|, far above their rounding. Every gap lies
    within [tol/3, spacing/4], so a hit at the floor leaves a bracket
    within tol.

    ``best`` and ``arg`` are each row's value and place so far. Returns
    each row's best value evaluated, its place, and whether every row
    stopped within _MAX_ROUNDS steps (without ``settle``: whether every
    bracket reached ``tol``).
    """
    top, place = best.tolist(), arg.tolist()

    def uniform(r, lo, hi):
        width = hi - lo
        return r, [lo + width * t for t in _ZOOM_T], lo, hi, None

    def step(row, values):
        # last is None for a uniform step, else the (spacing, 1/3 - u^2)
        # of the parabola whose vertex this guided step surrounds
        r, points, lo, hi, last = row
        b = max(values)
        k = values.index(b)
        x1 = points[k]
        if b > top[r]:
            top[r], place[r] = b, x1
        if last is not None and not points[0] < points[1] < points[2]:
            return uniform(r, lo, hi)
        x0, a = (points[k - 1], values[k - 1]) if k else (lo, None)
        x2, c = (points[k + 1], values[k + 1]) if k < len(points) - 1 else (hi, None)
        if not x0 < x1 < x2:
            return uniform(r, lo, hi)
        if a is None or c is None or not (a < b and c < b):
            return uniform(r, x0, x2) if x2 - x0 > tol else None
        spacing = 0.5 * (x2 - x0)
        den = a + c - 2.0 * b
        u = (a - c) / (den + den)  # the vertex's offset from x1, in spacings
        if last is None:
            gap = _ZOOM_FIRST * spacing
        elif settle and (c - a) * u < 4.0 * _SETTLE * abs(b):  # the parabola's gain
            return None
        else:
            prev, spread = last
            miss = abs(u) * spacing * (spacing / prev) ** 2 * (1.0 / 3.0 + u * u) / spread
            gap = _GUIDE_SAFETY * miss
        if settle:  # wide enough for the three values to differ by 4 _SETTLE |b|
            gap = max(gap, spacing * math.sqrt(4.0 * _SETTLE * abs(b) / -den))
        if x2 - x0 <= tol:
            return None
        gap = min(max(gap, tol / 3.0), 0.25 * spacing)
        v = x1 + u * spacing
        points = [min(max(v - gap, x0), x2), v, min(max(v + gap, x0), x2)]
        return r, points, x0, x2, (spacing, 1.0 / 3.0 - u * u)

    bracket = enumerate(zip(lo.tolist(), hi.tolist()))
    stopped = _rounds(f, [uniform(r, l, h) for r, (l, h) in bracket if h - l > tol], step)
    return np.array(top), np.array(place), stopped


def _profile(
    dataset: FlipDataset, axis: str, values: np.ndarray, search: SearchBox
) -> tuple[np.ndarray, np.ndarray]:
    """Profile log likelihood at each of ``values`` of ``axis`` ("dn" or "delta").

    The other parameter, the nuisance, is maximized out within the box for
    all values at once: a coarse geometric nuisance grid (33 delta or 65
    d_n points) brackets each row's maximum by its two neighbouring cells,
    then _zoom narrows every bracket together, in uniform steps and then
    guided ones, until the row's value is settled or its bracket is within
    resolution * nuisance width. Each row reports the best value it
    evaluated, so it is never below its coarse-grid maximum, and the
    nuisance value where it was found, never outside the box.

    The kernel factor of ``axis`` (sin(d_n xi)^2 or exp(-(xi delta)^2)) is
    fixed along each row, so it is computed once per profile; each step
    computes only the nuisance factor.

    A d_n profile of data without flips needs no search. Every term is
    then n_i ln(1 - p_i), which rises as p_i falls, and
    p_i = sin(d_n xi_i)^2 exp(-(xi_i delta)^2) falls as delta grows, so
    the maximum over delta is the likelihood at delta_max: one kernel
    call. The grid search returned that same value, because its last
    point is delta_max and no later candidate can beat it strictly.
    """
    values = np.asarray(values, dtype=float)
    xi = dataset.xi
    if axis == "dn" and dataset._flip_factor is None:
        envelope = flip_envelope(search.delta_max, xi)
        best = _log_likelihood_batch(flip_oscillation(values[:, None], xi), envelope, dataset)
        return best, np.full(values.shape, search.delta_max)
    if axis == "dn":
        lo_box, hi_box, n = search.delta_min, search.delta_max, 33
        fixed, factor = flip_oscillation(values[:, None], xi), flip_envelope
    else:
        lo_box, hi_box, n = search.dn_min, search.dn_max, 65
        fixed, factor = flip_envelope(values[:, None], xi), flip_oscillation

    def ll(nuisance, rows):
        return _log_likelihood_batch(fixed[rows], factor(nuisance[:, None], xi), dataset)

    grid = _grid_axis(lo_box, hi_box, n)
    vals = _log_likelihood_batch(fixed[:, None], factor(grid[:, None], xi), dataset)
    j = vals.argmax(axis=1)
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, n - 1)]
    tol = search.resolution * (hi_box - lo_box)
    return _zoom(ll, lo, hi, vals.max(axis=1), grid[j], tol, True)[:2]


def _crossing(q_of, a, b, threshold: float, tol: float):
    """Where q_of first crosses ``threshold`` going from a towards b, row-wise.

    ``a`` and ``b`` are two floats or two matching 1-d arrays of brackets;
    either end may be the larger. q(a) is at most the threshold; q(b) is
    not known, so the first round evaluates the bracket at the fractions
    _FIRST_T, crowding geometrically towards a so that a crossing close to
    a is bracketed at once, then a uniform round's points, so that a
    statistic above the threshold between them is seen even where q(b) is
    not, and b itself. A row with no point above the threshold returns b.

    Each round evaluates every row's points in one call of the batched
    ``q_of`` (_rounds) and keeps the cell of the row's first point above
    the threshold (the crossing nearest a), or the cell past its last
    point if none is, until the row's bracket is within ``tol``. A later
    round is uniform, _SECTIONS points across the bracket (8x narrower),
    unless the row's last round was equally spaced and the statistic
    locally smooth there: its values all positive and finite, the crossing
    between two of its points, and sqrt(q) departing from the chord
    through its first and last value by at most _GUIDE_MAX / _GUIDE_SAFETY
    of the chord's rise. Near a crossing q ~ ((v - v0)/sigma)^2, so
    sqrt(q) is close to a line, and a guided round evaluates three points
    ``gap`` of the bracket apart, centred on the secant root of sqrt(q) -
    sqrt(threshold) at the new bracket's ends but at least two gaps inside
    it. The gap is _GUIDE_SAFETY times the last round's departure relative
    to its rise, at least _GUIDE_MIN and at most _GUIDE_MAX, so a guided
    round that hits narrows the bracket at least 1/_GUIDE_MAX times. A
    guided round whose crossing does not fall between two of its points
    (it may have narrowed the bracket less than 8x) is followed by one
    uniform round, as is the geometric first round. A step statistic is
    never smooth, so its every later round is uniform. Returns a float for
    float brackets, else an array of the rows' crossings.
    """
    ends = list(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))

    def step(row, q):
        k, points, lo, hi = row
        i = next((j for j, value in enumerate(q) if value > threshold), None)
        if i is None:  # the crossing lies past the last point
            lo = points[-1]
        else:
            lo, hi = (points[i - 1] if i else lo), points[i]
        ends[k] = lo, hi
        if abs(hi - lo) <= tol:
            return None
        fractions = _SECTION_T
        # a guide needs equally spaced points, which the first round lacks
        if i and len(q) <= _SECTIONS and all(0.0 < value < math.inf for value in q):
            s = [math.sqrt(value) for value in q]
            rise, last = s[-1] - s[0], len(s) - 1
            departure = max(abs(v - (s[0] + rise * j / last)) for j, v in enumerate(s))
            if s[i] > s[i - 1] and _GUIDE_SAFETY * departure <= _GUIDE_MAX * rise:
                root = (math.sqrt(threshold) - s[i - 1]) / (s[i] - s[i - 1])
                gap = max(_GUIDE_SAFETY * departure / rise, _GUIDE_MIN)
                centre = min(max(root, 2.0 * gap), 1.0 - 2.0 * gap)
                fractions = (centre - gap, centre, centre + gap)
        return k, [lo + (hi - lo) * t for t in fractions], lo, hi

    first = [
        (k, [lo + (hi - lo) * t for t in _FIRST_T] + [hi], lo, hi)
        for k, (lo, hi) in enumerate(ends)
    ]
    _rounds(lambda x, owner: q_of(x), first, step)
    mid = [0.5 * (lo + hi) for lo, hi in ends]
    return mid[0] if np.ndim(a) == 0 else np.array(mid)


def search_ceilings(dataset: FlipDataset, delta_widths: float) -> tuple[float, float]:
    """Default (dn_max, delta_max) search ceilings derived from the data.

    With xi_max = max|xi|: half a flip oscillation 0.5*pi/xi_max for d_n,
    beyond which sin^2 aliasing makes the estimate ambiguous, and
    ``delta_widths`` envelope widths, delta_widths/xi_max, for delta
    (FIT_DELTA_WIDTHS for fits, BOUND_DELTA_WIDTHS for bounds).
    """
    xi_max = float(np.max(np.abs(dataset.xi)))
    if xi_max <= 0:
        raise ValueError("dataset must contain a nonzero xi")
    return 0.5 * math.pi / xi_max, delta_widths / xi_max


def _check_dn_ceiling(dn_max: float, dataset: FlipDataset) -> None:
    """Raise ValueError unless the largest phase searched, dn_max*max|xi|, is finite."""
    check_phase(DipoleState(dn_max, 0.0), float(np.max(np.abs(dataset.xi))))


def fit(
    dataset: FlipDataset, search: SearchBox, interval_cl: float = CL_DEFAULT
) -> FitResult:
    """Joint maximum-likelihood estimate of (d_n, delta) with intervals.

    A coarse geometric grid over the search box locates the basin; a zoom
    over d_n on the batched profile likelihood, which maximizes delta at
    every candidate, narrows it, in uniform steps and then guided parabolic
    ones. The converged flag reports whether the d_n bracket reached
    ``search.resolution`` times the d_n width within _MAX_ROUNDS zoom
    steps. Datasets in which every point is all-zero or
    all-full carry no joint information: the result then sits at the
    search floor (its delta maximizing the likelihood there) or the best
    coarse-grid point with ``converged=False`` and an explanatory
    message. A non-finite dn_max*max|xi| raises ValueError.
    """
    if not 0 < interval_cl < 1:
        raise ValueError("interval_cl must lie in (0, 1)")
    # numpy's unique() would import numpy.ma on its first call; min and max do not
    if dataset.xi.min() == dataset.xi.max():
        raise ValueError("joint fitting requires >= 2 distinct xi values")
    _check_dn_ceiling(search.dn_max, dataset)

    # chi2.ppf(interval_cl, df=1), from the upper tail to avoid cancellation
    threshold = NormalDist().inv_cdf((1.0 - interval_cl) / 2.0) ** 2

    all_zero = dataset._flip_factor is None
    flat = all_zero or bool(np.all(dataset.flips == dataset.trials))
    converged = False
    if all_zero:
        # the likelihood falls as d_n rises above the floor and rises with delta
        dn_hat = search.dn_min
        ll, deltas = _profile(dataset, "dn", [dn_hat], search)
        ll_hat, delta_hat = float(ll[0]), float(deltas[0])
        message = (
            "flat likelihood: no flips anywhere, d_n estimate pinned to "
            "the search floor and delta unidentified"
        )
    elif flat:
        dns, i, delta_hat, ll_hat = _coarse_max(dataset, search)
        dn_hat = float(dns[i])
        message = "flat likelihood: every trial flipped, parameters unidentified"
    else:
        dn_hat, delta_hat, ll_hat, converged = _maximize(dataset, search)
        message = "" if converged else _UNCONVERGED

    def interval(axis: str, center: float, lo: float, hi: float) -> tuple[float, float]:
        # each side reports the crossing nearest the estimate to within the
        # resolution, or its box edge where q is not above the threshold
        # there; both sides are one _crossing, one row each
        left, right = _crossing(
            lambda v: 2.0 * (ll_hat - _profile(dataset, axis, v, search)[0]),
            np.array([center, center]), np.array([lo, hi]), threshold,
            search.resolution * (hi - lo),
        ).tolist()
        return (min(left, right), max(left, right))

    dn_interval = interval("dn", dn_hat, search.dn_min, search.dn_max)
    # delta is unidentified on flat data: the interval is the whole box
    delta_interval = (
        (search.delta_min, search.delta_max) if flat
        else interval("delta", delta_hat, search.delta_min, search.delta_max)
    )
    return FitResult(
        dn_hat=dn_hat,
        delta_hat=delta_hat,
        max_log_likelihood=ll_hat,
        dn_interval=dn_interval,
        delta_interval=delta_interval,
        interval_cl=interval_cl,
        converged=converged,
        message=message,
    )


def upper_bound(
    dataset: FlipDataset,
    cl: float = CL_DEFAULT,
    delta_bounds: tuple[float, float] | None = None,
    dn_max: float | None = None,
    resolution: float = RESOLUTION_DEFAULT,
) -> float:
    """One-sided profile-likelihood upper bound on d_n.

    Smallest d_n* above the estimate at which the profile ratio statistic
    q(d_n*) = 2( l(best) - max_delta l(d_n*, delta) ) exceeds the
    one-sided chi-square threshold for ``cl``. ``delta_bounds`` is the
    nuisance profiling range and ``dn_max`` the search's upper end; each
    defaults to its :func:`search_ceilings` value with BOUND_DELTA_WIDTHS,
    i.e. delta in [0, 1/xi_max] and d_n up to half a flip oscillation.
    The crossing nearest the estimate is sectioned from the estimate to
    dn_max, as an interval edge is (_crossing), and located to within
    ``resolution`` relative to itself, with an absolute floor of
    resolution^2 * dn_max.

    Without flips the statistic is closed-form. Every log-likelihood term
    is n_i ln(1 - p_i); it rises as p_i falls, and p_i falls as delta
    grows, so the profile sits at the delta ceiling delta_hi and
    q(d) = -2 sum n_i ln(1 - p_i(d, delta_hi)). Below pi / (2 xi_max)
    every sin^2 rises, so q rises strictly and has one crossing. Each
    step of the search is then one kernel call, and the probability of
    zero flips at the bound, exp(-q/2), is exp(-threshold/2) to within
    the resolution.

    Raises
    ------
    ValueError
        If dn_max*max|xi| is not finite.
    NonConvergenceError
        If the maximum likelihood does not converge to ``resolution`` (as
        in :func:`fit`), or the statistic is above the threshold at no
        point of the first round, ``dn_max`` included.
    """
    if not 0.5 <= cl < 1.0:
        raise ValueError("cl must lie in [0.5, 1)")
    dn_ceiling, delta_ceiling = search_ceilings(dataset, BOUND_DELTA_WIDTHS)
    de_lo, de_hi = (0.0, delta_ceiling) if delta_bounds is None else delta_bounds
    if dn_max is None:
        dn_max = dn_ceiling
    # chi2.ppf(2 cl - 1, df=1): the one-sided half-chi-square threshold, 0 at cl = 0.5
    threshold = NormalDist().inv_cdf(1.0 - cl) ** 2

    search = SearchBox(
        dn_max=dn_max,
        delta_max=de_hi,
        dn_min=0.0,
        delta_min=de_lo,
        resolution=resolution,
    )
    _check_dn_ceiling(dn_max, dataset)
    if dataset._flip_factor is None:
        dn_hat, ll_hat = 0.0, 0.0
    else:
        dn_hat, _, ll_hat, converged = _maximize(dataset, search)
        if not converged:
            raise NonConvergenceError(_UNCONVERGED)

    def q(v: np.ndarray) -> np.ndarray:
        return 2.0 * (ll_hat - _profile(dataset, "dn", v, search)[0])

    tol = resolution * max(dn_hat, resolution * dn_max)
    bound = _crossing(q, dn_hat, dn_max, threshold, tol)
    if bound == dn_max:  # no point of the first round was above the threshold
        raise NonConvergenceError(
            f"profile statistic stayed below the threshold up to dn_max = {dn_max:g}; "
            "widen dn_max or collect more trials"
        )
    return bound
