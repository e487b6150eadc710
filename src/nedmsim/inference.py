"""Likelihood fits, profile upper bounds, and the campaign estimator.

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
in chunks and sections the first crossing cell. Every search stops at
``resolution`` times the axis width, or after _MAX_ROUNDS steps, and
each bracket of a row-wise search stops on its own, so it ends where a
search of that bracket alone would.

The campaign estimator turns a cycle table into per-pair dipole estimates
via the ratio difference and combines them with inverse-variance weights;
per-cycle variances are propagated from counting statistics through
asymmetry -> phase -> frequency -> ratio with the delta method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from .comagnetometer import CampaignConfig, CycleRecord, extract_dn_pair
from .quantities import PhysicalConstants, UnitSystem
from .weak_measurement import flip_envelope, flip_kernel, flip_oscillation

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
_UNCONVERGED = (
    "the d_n bracket was still wider than the requested resolution "
    f"after {_MAX_ROUNDS} zoom steps"
)


class NonConvergenceError(RuntimeError):
    """Raised when a profile or bound search fails to bracket its target."""


@dataclass(frozen=True)
class FlipDataset:
    """Flip counts at a set of kick strengths.

    Stored as parallel arrays (xi in rad per e·cm, integer trials and
    flips). Joint (d_n, delta) fitting needs at least two distinct xi.
    """

    xi: np.ndarray
    trials: np.ndarray
    flips: np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi, dtype=float)
        trials = np.asarray(self.trials, dtype=np.int64)
        flips = np.asarray(self.flips, dtype=np.int64)
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

    @classmethod
    def from_points(
        cls, points: Iterable[tuple[float, int, int]]
    ) -> "FlipDataset":
        pts = list(points)
        return cls(
            xi=np.array([p[0] for p in pts], dtype=float),
            trials=np.array([p[1] for p in pts], dtype=np.int64),
            flips=np.array([p[2] for p in pts], dtype=np.int64),
        )

    def points(self) -> list[tuple[float, int, int]]:
        return [
            (float(x), int(n), int(k))
            for x, n, k in zip(self.xi, self.trials, self.flips)
        ]

    @property
    def distinct_xi_count(self) -> int:
        return int(np.unique(self.xi).size)


@dataclass(frozen=True)
class SearchBox:
    """Closed parameter box and stopping resolution for the fit.

    ``resolution`` is relative to each axis width: the maximum, the
    profiles and the interval edges are each located to within
    resolution * width of their axis.
    """

    dn_max: float
    delta_max: float
    dn_min: float = 0.0
    delta_min: float = 0.0
    grid_points: int = GRID_POINTS_DEFAULT
    resolution: float = RESOLUTION_DEFAULT

    def __post_init__(self) -> None:
        if not (0.0 <= self.dn_min < self.dn_max):
            raise ValueError("need 0 <= dn_min < dn_max, both finite")
        if not (0.0 <= self.delta_min < self.delta_max):
            raise ValueError("need 0 <= delta_min < delta_max, both finite")
        if not (math.isfinite(self.dn_max) and math.isfinite(self.delta_max)):
            raise ValueError("search bounds must be finite")
        if self.grid_points < 4:
            raise ValueError("grid_points must be >= 4")
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
    adding it would not change a bit of the sum, so it is not formed.
    """
    flips = dataset.flips
    terms = np.minimum(p, _P_CEIL)
    np.negative(terms, out=terms)
    np.log1p(terms, out=terms)
    terms *= dataset.trials - flips
    if flips.any():
        np.maximum(p, _P_FLOOR, out=p)
        np.log(p, out=p)
        p *= flips
        terms += p
    return terms


def log_likelihood(d_n: float, delta: float, dataset: FlipDataset) -> float:
    """Binomial log likelihood of the dataset at (d_n, delta).

    Probabilities are clamped away from 0 and 1 inside the logs, so
    degenerate points contribute a large finite penalty instead of -inf.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p = flip_kernel(d_n, delta, dataset.xi)
    return float(np.sum(_binomial_terms(p, dataset)))


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
    return _binomial_terms(oscillation * envelope, dataset).sum(axis=-1)


def _log_likelihood_at(dns, deltas, dataset: FlipDataset) -> np.ndarray:
    """Log likelihood at the broadcast pairs of dns and deltas, vectorized."""
    return _log_likelihood_batch(
        flip_oscillation(np.asarray(dns)[..., None], dataset.xi),
        flip_envelope(np.asarray(deltas)[..., None], dataset.xi),
        dataset,
    )


def _log_likelihood_grid(
    dns: np.ndarray, deltas: np.ndarray, dataset: FlipDataset
) -> np.ndarray:
    """Log likelihood on the outer grid dns x deltas, vectorized."""
    return _log_likelihood_at(dns[:, None], deltas[None, :], dataset)


def _coarse_max(dataset: FlipDataset, search: SearchBox):
    """Best point of the coarse geometric grid: (d_n grid, d_n index, delta, ll)."""
    dns = _grid_axis(search.dn_min, search.dn_max, search.grid_points)
    des = _grid_axis(search.delta_min, search.delta_max, search.grid_points)
    grid_ll = _log_likelihood_grid(dns, des, dataset)
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
    """
    values = np.asarray(values, dtype=float)
    xi = dataset.xi
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
    j = np.argmax(vals, axis=1)
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
        k = np.argmax(vals, axis=1)
        top = vals[rows, k]
        better = top > best
        best = np.where(better, top, best)
        arg = np.where(better, cand[rows, k], arg)
        lo = cand[rows, np.maximum(k - 1, 0)]
        hi = cand[rows, np.minimum(k + 1, _ZOOM_POINTS - 1)]
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


def _scan_crossing(q_of, grid: np.ndarray, prev: float, threshold: float, tol: float) -> float:
    """First crossing of ``threshold`` by the batched ``q_of`` along ``grid``.

    The grid is scanned upward from ``prev`` in chunks of _SCAN_CHUNK
    points, stopping at the first chunk with a point above the threshold;
    the cell ending at that point is then sectioned to within ``tol``.

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
    search floor or the best coarse-grid point with ``converged=False``
    and an explanatory message.
    """
    if not 0 < interval_cl < 1:
        raise ValueError("interval_cl must lie in (0, 1)")
    if dataset.distinct_xi_count < 2:
        raise ValueError("joint fitting requires >= 2 distinct xi values")

    # chi2.ppf(interval_cl, df=1), from the upper tail to avoid cancellation
    threshold = NormalDist().inv_cdf((1.0 - interval_cl) / 2.0) ** 2

    all_zero = bool(np.all(dataset.flips == 0))
    flat = all_zero or bool(np.all(dataset.flips == dataset.trials))
    converged = False
    if all_zero:
        dn_hat, delta_hat = search.dn_min, search.delta_min
        ll_hat = log_likelihood(dn_hat, delta_hat, dataset)
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
    delta in [0, 1/xi_max] and d_n up to half a flip oscillation.

    Raises
    ------
    NonConvergenceError
        If the maximum likelihood does not converge to ``resolution`` (as
        in :func:`fit`), or the statistic never crosses the threshold
        below ``dn_max``.
    """
    if not 0.5 <= cl < 1.0:
        raise ValueError("cl must lie in [0.5, 1)")
    dn_ceiling, delta_ceiling = search_ceilings(dataset, BOUND_DELTA_WIDTHS)
    de_lo, de_hi = (0.0, delta_ceiling) if delta_bounds is None else delta_bounds
    if not (0.0 <= de_lo < de_hi):
        raise ValueError("delta_bounds must satisfy 0 <= low < high")
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
    if np.all(dataset.flips == 0):
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
    return _scan_crossing(q, grid, dn_hat, threshold, resolution * dn_max)


@dataclass(frozen=True)
class CampaignEstimate:
    """Inverse-variance combination of per-pair dipole estimates."""

    dn_hat: float
    standard_error: float
    n_pairs: int
    degenerate: bool = False


def _cycle_phase_variance(record: CycleRecord, visibility: float) -> float:
    """Counting variance of the readout phase for one cycle (delta method).

    Var(A) = (1 - A^2)/N from the binomial split, mapped through
    A = visibility * cos(phi). Saturated cycles (|A| >= visibility) have
    no phase sensitivity and report infinite variance.
    """
    total = record.n_up + record.n_down
    if not total > 0:
        return math.inf
    a_hat = (record.n_up - record.n_down) / total
    var_a = max(1.0 - a_hat * a_hat, 0.0) / total
    if visibility <= 0 or abs(a_hat) >= visibility:
        return math.inf
    sin2 = 1.0 - (a_hat / visibility) ** 2
    return var_a / (visibility * visibility * sin2)


def campaign_estimator(
    records: Sequence[CycleRecord],
    config: CampaignConfig,
    constants: PhysicalConstants = PhysicalConstants(),
    units: UnitSystem = UnitSystem(),
    f_hg_reference: float | None = None,
) -> CampaignEstimate:
    """Dipole estimate and standard error from a campaign cycle table.

    Consecutive records form polarity pairs; each pair yields
    ``extract_dn_pair`` evaluated with the pair's mean measured clock
    frequency (or ``f_hg_reference`` when given). Pairs are combined with
    inverse-variance weights propagated from counting statistics. In the
    ``expected`` counting mode there is no counting noise to propagate:
    the estimate is the plain mean and the zero standard error is flagged
    as degenerate.

    ``f_hg_reference`` only replaces the frequency that converts a ratio
    difference into a dipole, d_n = scale * (R_plus - R_minus), so it
    scales the estimate and the standard error alike. The variance of each
    R still uses that record's own ``f_hg``: R was formed as f_n / f_hg
    with the record's measured clock, so that is the frequency through
    which counting noise on f_n entered R. Estimate and variance are thus
    consistent: the variance is scale^2 * Var(R_plus - R_minus).

    The reported standard error covers counting statistics only (it
    matches the seed-to-seed scatter to ~3% when counting noise is the
    only noise source); field-drift and clock-noise contributions are not
    part of the error model and widen the true scatter beyond it.
    """
    if len(records) < 2:
        raise ValueError("at least one polarity pair is required")
    if len(records) % 2 != 0:
        raise ValueError("lone polarity cycle: records must form +/- pairs")

    t = config.free_time
    estimates: list[float] = []
    variances: list[float] = []
    for a, b in zip(records[0::2], records[1::2]):
        if a.polarity == b.polarity:
            raise ValueError(
                f"records {a.index} and {b.index} share polarity {a.polarity:+d}"
            )
        plus, minus = (a, b) if a.polarity == 1 else (b, a)
        if not (math.isfinite(plus.r) and math.isfinite(minus.r)):
            continue
        f_hg_pair = (
            f_hg_reference
            if f_hg_reference is not None
            else 0.5 * (plus.f_hg + minus.f_hg)
        )
        estimates.append(
            extract_dn_pair(plus.r, minus.r, config.e_magnitude, f_hg_pair, units)
        )
        scale = math.pi * f_hg_pair / (2.0 * config.e_magnitude * units.kick)
        var_r = 0.0
        for rec in (plus, minus):
            var_phi = _cycle_phase_variance(rec, config.visibility)
            var_fn = var_phi / (2.0 * math.pi * t) ** 2
            var_r += var_fn / (rec.f_hg * rec.f_hg)
        variances.append(scale * scale * var_r)

    if not estimates:
        raise ValueError("no usable polarity pairs (all saturated or invalid)")

    if config.counting_mode == "expected":
        return CampaignEstimate(
            dn_hat=float(np.mean(estimates)),
            standard_error=0.0,
            n_pairs=len(estimates),
            degenerate=True,
        )

    weights = np.array([0.0 if not math.isfinite(v) or v <= 0 else 1.0 / v for v in variances])
    if not np.any(weights > 0):
        raise ValueError("no usable polarity pairs (all saturated or invalid)")
    est = np.asarray(estimates)
    dn_hat = float(np.sum(weights * est) / np.sum(weights))
    se = float(math.sqrt(1.0 / np.sum(weights)))
    return CampaignEstimate(
        dn_hat=dn_hat,
        standard_error=se,
        n_pairs=int(np.count_nonzero(weights > 0)),
        degenerate=False,
    )
