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
grid, then a grid zoom per row). The kernel factor of the parameter of
interest is fixed along a row, so a profile computes it once and each
step computes only the nuisance factor. The maximum likelihood is the
maximum of the d_n profile: a coarse geometric grid over the box picks
the basin, and a zoom over d_n, one batched profile per step, narrows
the two grid cells around its best point.

Intervals and upper bounds compare the profile ratio statistic
q = 2(l_max - l_profile) with a chi-square quantile (two-sided for
intervals, one-sided for bounds). Crossings are found by K-section, a
few points per bracket in one batched call, taking the crossing nearest
the estimate; the two edges of an interval are sectioned in lockstep,
one bracket per row. An upper bound scans a fixed geometric grid upward
in chunks and sections the first crossing cell. The maximum, the
profiles and the interval edges stop at ``resolution`` times the axis
width, an upper bound at ``resolution`` relative to itself, each after
at most _MAX_ROUNDS steps; each bracket of a row-wise search stops on
its own, so it ends where a search of that bracket alone would. Without
flips the likelihood rises with delta, so a d_n profile is the
likelihood at the delta ceiling, one kernel call with no nuisance search.
"""

from __future__ import annotations

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

# Batch shapes of the zoom and crossing searches: candidates per row and
# zoom step (each step narrows a bracket 8x), interior points per K-section
# round (8x per round), and bound-scan points per call. They keep each
# batched likelihood call to a few thousand elements per data point.
# _MAX_ROUNDS caps the zoom steps of the maximum and of the profiles and
# the K-section rounds: 8**20 = 2**60 narrows any bracket below double
# precision, so a resolution finer than that cannot stall a bracket that
# no longer shrinks.
_ZOOM_POINTS = 17
_SECTIONS = 7
_SCAN_CHUNK = 32
_MAX_ROUNDS = 20
# fractions of a bracket at which a zoom step and a K-section round evaluate
_ZOOM_T = np.linspace(0.0, 1.0, _ZOOM_POINTS)
_ZOOM_S = 1.0 - _ZOOM_T
_SECTION_T = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
# each zoom candidate's neighbours, the ends of the two cells kept around it
_ZOOM_LEFT = np.maximum(np.arange(_ZOOM_POINTS) - 1, 0)
_ZOOM_RIGHT = np.minimum(np.arange(_ZOOM_POINTS) + 1, _ZOOM_POINTS - 1)
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

    ``resolution`` is relative to each axis width: the maximum, the
    profiles and the interval edges are each located to within
    resolution * width of their axis. ``grid_points`` is an ``int`` in
    [4, GRID_POINTS_MAX], the other fields finite numbers.
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


def _maximize(
    dataset: FlipDataset, search: SearchBox
) -> tuple[float, float, float, bool]:
    """Maximum likelihood as the maximum of the d_n profile.

    Returns (dn, delta, ll, converged). The best coarse-grid point brackets
    d_n by its two neighbouring grid cells. Each zoom step profiles
    _ZOOM_POINTS candidates across the bracket in one batched call and
    keeps the two cells around the best one, until the bracket is within
    resolution * d_n width (``converged``) or _MAX_ROUNDS steps have run.
    The result is the best point evaluated, never below the coarse grid.
    """
    dns, i, de, ll = _coarse_max(dataset, search)
    dn = float(dns[i])
    lo, hi = dns[max(i - 1, 0)], dns[min(i + 1, dns.size - 1)]
    tol = search.resolution * (search.dn_max - search.dn_min)
    for _ in range(_MAX_ROUNDS):
        if hi - lo <= tol:
            break
        cand = lo + (hi - lo) * _ZOOM_T
        prof, nuisance = _profile(dataset, "dn", cand, search)
        k = int(np.argmax(prof))
        if prof[k] > ll:
            dn, de, ll = float(cand[k]), float(nuisance[k]), float(prof[k])
        lo, hi = cand[max(k - 1, 0)], cand[min(k + 1, _ZOOM_POINTS - 1)]
    return dn, de, ll, bool(hi - lo <= tol)


def _profile(
    dataset: FlipDataset, axis: str, values: np.ndarray, search: SearchBox
) -> tuple[np.ndarray, np.ndarray]:
    """Profile log likelihood at each of ``values`` of ``axis`` ("dn" or "delta").

    The other parameter, the nuisance, is maximized out within the box for
    all values at once: a coarse geometric nuisance grid (33 delta or 65
    d_n points) brackets each row's maximum by its two neighbouring cells,
    then every bracket is zoomed together, _ZOOM_POINTS candidates per row
    and step, keeping the two cells around each row's best candidate. The
    step count depends only on the coarse grid, never on the other rows,
    and stops once every bracket is within resolution * nuisance width.
    Each row reports the best value it evaluated, so it is never below
    its coarse-grid maximum, and the nuisance value where it was found.

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
        fixed, factor = flip_oscillation(values[:, None, None], xi), flip_envelope
    else:
        lo_box, hi_box, n = search.dn_min, search.dn_max, 65
        fixed, factor = flip_envelope(values[:, None, None], xi), flip_oscillation

    def ll(nuisance):
        return _log_likelihood_batch(fixed, factor(nuisance[..., None], xi), dataset)

    grid = _grid_axis(lo_box, hi_box, n)
    rows = np.arange(values.size)
    vals = ll(grid[None, :])
    j = vals.argmax(axis=1)
    best = vals[rows, j]
    arg = grid[j]
    lo = grid[np.maximum(j - 1, 0)]
    hi = grid[np.minimum(j + 1, n - 1)]
    width = float(np.max(grid[2:] - grid[:-2]))
    tol = search.resolution * (hi_box - lo_box)
    for _ in range(_MAX_ROUNDS):
        if width <= tol:
            break
        cand = lo[:, None] * _ZOOM_S + hi[:, None] * _ZOOM_T
        vals = ll(cand)
        k = vals.argmax(axis=1)
        top = vals[rows, k]
        better = top > best
        np.copyto(best, top, where=better)
        np.copyto(arg, cand[rows, k], where=better)
        lo = cand[rows, _ZOOM_LEFT[k]]
        hi = cand[rows, _ZOOM_RIGHT[k]]
        width *= 2.0 / (_ZOOM_POINTS - 1)
    return best, arg


def _crossing(q_of, a, b, threshold: float, tol: float):
    """Where q_of first crosses ``threshold`` going from a towards b, row-wise.

    ``a`` and ``b`` are two floats or two matching 1-d arrays of brackets,
    each with q(a) <= threshold < q(b); either end may be the larger. Each
    round evaluates _SECTIONS interior points of every bracket still wider
    than ``tol``, all in one call of the batched ``q_of``, and keeps the
    cell of each row's first point above the threshold (the crossing
    nearest a), until every bracket is within ``tol`` or _MAX_ROUNDS
    rounds have run. A bracket within ``tol`` is frozen, so every row
    returns exactly what a search of its bracket alone returns: a float
    for float brackets, else an array of the rows' crossings.
    """
    scalar = np.ndim(a) == 0
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    for _ in range(_MAX_ROUNDS):
        (open_,) = np.nonzero(~(np.abs(b - a) <= tol))
        if open_.size == 0:
            break
        lo, hi = a[open_], b[open_]
        points = lo[:, None] + (hi - lo)[:, None] * _SECTION_T
        above = q_of(points.ravel()).reshape(points.shape) > threshold
        rows = np.arange(open_.size)
        i = np.argmax(above, axis=1)
        found = above[rows, i]
        # no point above: the crossing lies past the last one
        b[open_] = np.where(found, points[rows, i], hi)
        a[open_] = np.where(
            found, np.where(i > 0, points[rows, i - 1], lo), points[:, -1]
        )
    mid = 0.5 * (a + b)
    return float(mid[0]) if scalar else mid


def _interval_from_profile(
    q_of, center: float, lo: float, hi: float, threshold: float, tol: float
) -> tuple[float, float]:
    """Endpoints where the profile ratio statistic crosses ``threshold``.

    ``q_of`` is batched and must vanish at ``center``; each side reports
    the crossing nearest the centre to within ``tol``, and a side that is
    not above the threshold at its box edge reports the box edge. The
    sides that cross are sectioned together, one row each.
    """
    ends = np.array([lo, hi])
    above = q_of(ends) > threshold
    starts = np.full(ends.size, center)
    found = iter(_crossing(q_of, starts[above], ends[above], threshold, tol).tolist())
    left, right = (next(found) if up else edge for edge, up in zip((lo, hi), above))
    return (min(left, right), max(left, right))


def _scan_crossing(
    q_of, grid: np.ndarray, prev: float, threshold: float, resolution: float
) -> float:
    """First crossing of ``threshold`` by the batched ``q_of`` along ``grid``.

    The grid is scanned upward from ``prev`` in chunks of _SCAN_CHUNK
    points, stopping at the first chunk with a point above the threshold;
    the cell ending at that point is then sectioned to within
    resolution * max(a, resolution * grid[-1]), where a is the lower end
    of the cell. The crossing lies above a, so it is located to within
    ``resolution`` relative to itself; the floor serves a cell that
    starts at 0.

    Raises
    ------
    NonConvergenceError
        If no grid point is above the threshold.
    """
    for start in range(0, grid.size, _SCAN_CHUNK):
        chunk = grid[start : start + _SCAN_CHUNK]
        above = np.flatnonzero(q_of(chunk) > threshold)
        if above.size:
            i = int(above[0])
            a = float(chunk[i - 1]) if i > 0 else prev
            tol = resolution * max(a, resolution * float(grid[-1]))
            return _crossing(q_of, a, float(chunk[i]), threshold, tol)
        prev = float(chunk[-1])
    raise NonConvergenceError(
        f"profile statistic stayed below the threshold up to dn_max = {grid[-1]:g}; "
        "widen dn_max or collect more trials"
    )


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
    every candidate, narrows it. The converged flag reports whether the
    d_n bracket reached ``search.resolution`` times the d_n width within
    _MAX_ROUNDS zoom steps. Datasets in which every point is all-zero or
    all-full carry no joint information: the result then sits at the
    search floor (its delta maximizing the likelihood there) or the best
    coarse-grid point with ``converged=False`` and an explanatory
    message. A non-finite dn_max*max|xi| raises ValueError.
    """
    if not 0 < interval_cl < 1:
        raise ValueError("interval_cl must lie in (0, 1)")
    if np.unique(dataset.xi).size < 2:
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

    def q_of(axis: str):
        return lambda v: 2.0 * (ll_hat - _profile(dataset, axis, v, search)[0])

    dn_interval = _interval_from_profile(
        q_of("dn"), dn_hat, search.dn_min, search.dn_max, threshold,
        search.resolution * (search.dn_max - search.dn_min),
    )
    if flat:
        # delta is unidentified: the interval is the whole box
        delta_interval = (search.delta_min, search.delta_max)
    else:
        delta_interval = _interval_from_profile(
            q_of("delta"), delta_hat, search.delta_min, search.delta_max, threshold,
            search.resolution * (search.delta_max - search.delta_min),
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
    nuisance profiling range and ``dn_max`` caps the scan; each defaults
    to its :func:`search_ceilings` value with BOUND_DELTA_WIDTHS, i.e.
    delta in [0, 1/xi_max] and d_n up to half a flip oscillation. The
    bound is located to within ``resolution`` relative to itself, with an
    absolute floor of resolution^2 * dn_max, in at most _MAX_ROUNDS
    sections.

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
        in :func:`fit`), or the statistic never crosses the threshold
        below ``dn_max``.
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

    # scan upward from the estimate for the first threshold crossing
    start = dn_hat if dn_hat > 0 else dn_max * 1e-9
    grid = np.geomspace(start, dn_max, 256)
    return _scan_crossing(q, grid, dn_hat, threshold, resolution)
