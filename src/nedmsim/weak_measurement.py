"""Spin-flip probability for a dipole in a Gaussian superposition.

A neutron whose scalar dipole observable has expectation value d_n and
quantum uncertainty delta, kicked by a field pulse with kick parameter xi
(rad per e·cm), flips its spin with probability

    P(d_n, delta, xi) = sin(d_n * xi)**2 * exp(-(xi * delta)**2)

P vanishes exactly at d_n = 0 for every delta and xi: the uncertainty
suppresses the amplitude but never generates flips on its own. P depends
only on the products d_n*xi and delta*xi, and is bounded above by the
Gaussian envelope exp(-(xi*delta)**2).

Convention (important): ``delta`` is defined as the standard deviation of
the normalized Gaussian weight w(d) that enters the transition amplitude

    A = integral( w(d) * sin(d * xi) dd ),     P = |A|**2,

which makes the closed form above exact. Written as a state amplitude
proportional to exp(-(d - d_n)**2 / (2*sigma**2)), the weight built from
|amplitude|**2 would carry sigma/sqrt(2); this package's delta is always
the weight-level standard deviation. :func:`flip_probability_quadrature`
evaluates the amplitude integral numerically and serves as the
independent oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantities import check_fields

__all__ = [
    "NODE_COUNT_MAX",
    "DipoleState",
    "QuadratureSpec",
    "check_phase",
    "flip_envelope",
    "flip_kernel",
    "flip_oscillation",
    "flip_probability",
    "flip_probability_quadrature",
    "required_node_count",
]

# Most nodes a point may use: a memory ceiling, 8 MB per node array,
# reached at xi*delta ~ 33,600.
NODE_COUNT_MAX = 2**20

# The oracle's composite rule: 24-point Gauss-Legendre panels tile
# |x| <= 6.5, where the Gaussian weight has fallen to exp(-42) ~ 4e-19, far
# below the oracle's 1e-10. The integrand oscillates at sqrt(2)*xi*delta
# radians per unit x; at 3 periods a panel, 24 nodes integrate it to
# rounding. Fewer than 3 panels under-resolve the Gaussian itself: 2 miss
# the integral of exp(-x^2) cos(2.9 x) by 5e-13.
_PANEL_NODES = 24
_HALF_WIDTH = 6.5
_PERIODS_PER_PANEL = 3
_MIN_PANELS = 3
_PANELS_PER_SCALE = 2.0 * _HALF_WIDTH * math.sqrt(2.0) / (2.0 * math.pi * _PERIODS_PER_PANEL)

# Most elements of an array oracle's sin(outer(xi, d)) chunk: 4 MB of doubles.
_CHUNK_ELEMENTS = 2**19


@dataclass(frozen=True)
class DipoleState:
    """Expectation value and quantum uncertainty of the scalar dipole.

    Both in e·cm; ``delta`` is the weight-level standard deviation (see
    module docstring) and must be >= 0.
    """

    d_n: float
    delta: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


@dataclass(frozen=True)
class QuadratureSpec:
    """The most nodes the amplitude quadrature may use at a point.

    Each point uses :func:`required_node_count` nodes for its own
    |xi*delta|; a point that needs more than ``node_count`` is refused.
    ``node_count`` must lie in [2, NODE_COUNT_MAX], a memory ceiling, and
    defaults to that ceiling, so the default refuses no point the oracle
    can evaluate.
    """

    node_count: int = NODE_COUNT_MAX

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.node_count > NODE_COUNT_MAX:
            raise ValueError(
                f"node_count = {self.node_count} exceeds the quadrature "
                f"ceiling of {NODE_COUNT_MAX} nodes"
            )


def flip_oscillation(d_n, xi):
    """The factor sin(d_n xi)^2 of the closed form: unchecked, broadcasting."""
    s = np.sin(d_n * xi)
    return s * s


def flip_envelope(delta, xi):
    """The factor exp(-(xi delta)^2) of the closed form: unchecked, broadcasting.

    The product is formed by numpy even for Python floats: beyond about
    1.3e154 it squares to inf (a numpy overflow warning), and the envelope is 0.
    """
    s = np.multiply(xi, delta)
    return np.exp(-(s * s))


def flip_kernel(d_n, delta, xi):
    """The closed form sin(d_n xi)^2 exp(-(xi delta)^2): unchecked, broadcasting."""
    return flip_oscillation(d_n, xi) * flip_envelope(delta, xi)


def check_phase(state: DipoleState, xi) -> None:
    """Raise ValueError unless xi and the phase d_n*xi are finite, elementwise.

    ``state`` is finite, but its product with a finite xi can overflow: a
    phase beyond the double range has no sine (numpy warns of an array's
    overflow first). Every closed-form, oracle and ensemble path calls
    this before it forms a sine.
    """
    # d_n is finite, so one pass checks xi and the phase; at d_n = 0 the
    # phase is finite wherever xi is, and 0*inf would warn
    phase = state.d_n * xi if state.d_n else xi
    # math.isfinite keeps a scalar's check to a tenth of numpy's cost
    if not (math.isfinite(phase) if isinstance(phase, float) else np.isfinite(phase).all()):
        raise ValueError(f"xi and the phase d_n*xi must be finite (d_n = {state.d_n!r})")


def flip_probability(state: DipoleState, xi):
    """Closed-form spin-flip probability sin(d_n xi)^2 exp(-(xi delta)^2).

    Parameters
    ----------
    state : DipoleState
    xi : float or ndarray
        Kick parameter in rad per e·cm; accepts arrays elementwise.

    Returns
    -------
    float or ndarray in [0, 1]; exactly 0.0 wherever d_n == 0.

    A Python float is evaluated in floats: :func:`flip_kernel`'s operations
    in its order, with numpy's ``sin`` and ``exp`` on floats, and no array
    call. An overflowing xi*delta squares to inf there without a warning,
    and the envelope is 0. An np.float64 or a 0-d array takes
    :func:`flip_kernel` and gives the same float. Every square is a
    multiplication, so an array call equals its float calls byte for byte:
    ``flip_probability(state, xs)[i] == flip_probability(state, float(xs[i]))``.

    Raises
    ------
    ValueError
        If an xi, or the phase d_n*xi, is not finite (:func:`check_phase`).
    """
    if type(xi) is float:
        check_phase(state, xi)
        sine = float(np.sin(state.d_n * xi))
        scale = xi * state.delta
        return sine * sine * float(np.exp(-(scale * scale)))
    xi = np.asarray(xi, dtype=float)
    check_phase(state, xi)
    p = flip_kernel(state.d_n, state.delta, xi)
    return float(p) if p.ndim == 0 else p


def required_node_count(xi: float, delta: float) -> int:
    """Quadrature nodes the oracle evaluates at the oscillation scale |xi*delta|.

    The count is 0 at delta = 0, where the oracle is a point evaluation.
    Otherwise the panel count gives each panel at most _PERIODS_PER_PANEL
    periods of the integrand, and is at least _MIN_PANELS. It is rounded up
    to the next 2^k or 3*2^(k-1), so a sweep over scale builds about two
    rules per octave of it, however many points it has.

    Raises ValueError if |xi*delta| is not finite, as no rule samples it,
    or if the count exceeds NODE_COUNT_MAX.
    """
    scale = abs(xi * delta)
    if not math.isfinite(scale):
        raise ValueError(f"xi*delta must be finite for the quadrature oracle, got {scale!r}")
    if delta == 0.0:
        return 0
    # the constant is below 1, so a finite scale gives a finite count
    panels = max(_MIN_PANELS, math.ceil(scale * _PANELS_PER_SCALE))
    k = (panels - 1).bit_length()  # 2^(k-1) < panels <= 2^k, and k >= 2
    nodes = _PANEL_NODES * (3 << (k - 2) if panels <= 3 << (k - 2) else 1 << k)
    if nodes > NODE_COUNT_MAX:
        raise ValueError(
            f"node_count = {nodes} exceeds the quadrature ceiling of {NODE_COUNT_MAX} nodes"
        )
    return nodes


def _legendre_and_derivative(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) from the three-term recurrence, for |x| < 1."""
    prev, cur = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, n * (x * cur - prev) / (x * x - 1.0)


@lru_cache(maxsize=1)
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ascending.

    Newton's method on P_n from the estimate cos(pi (i + 3/4) / (n + 1/2))
    converges quadratically; the weights are 2 / ((1 - x^2) P_n'(x)^2).
    No eigensolve runs, and nothing beyond numpy's core is imported.
    """
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre_and_derivative(x, n)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(x, n)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


@lru_cache(maxsize=None)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum(w f(x)) ~ integral exp(-x^2) f(x) dx / sqrt(pi).

    ``panels`` equal panels of the unit rule tile |x| <= _HALF_WIDTH, and
    the weights carry the normalized Gaussian. The nodes are exactly odd
    and the weights exactly even, so an odd integrand sums to rounding.
    The ladder of :func:`required_node_count` bounds the entries of this cache.
    """
    unit_nodes, unit_weights = _unit_rule(_PANEL_NODES)
    h = 2.0 * _HALF_WIDTH / panels
    centres = -_HALF_WIDTH + h * (np.arange(panels) + 0.5)
    x = (centres[:, None] + 0.5 * h * unit_nodes).ravel()
    x = 0.5 * (x - x[::-1])
    w = np.tile(0.5 * h * unit_weights, panels) * np.exp(-(x * x)) / math.sqrt(math.pi)
    return x, w


@lru_cache(maxsize=1)
def _scaled_nodes(d_n: float, delta: float, nodes: int) -> np.ndarray:
    """The rung's nodes d = d_n + sqrt(2)*delta*x, built once per (d_n, delta, rung).

    A scan, scalar or array, walks its rungs in order, so one entry holds
    its working set: at most one 8 MB array at the node ceiling. More
    entries bought no speed and kept more memory resident.
    """
    x, _ = _panel_rule(nodes // _PANEL_NODES)
    # substitution d = d_n + sqrt(2)*delta*x maps w(d) dd to exp(-x^2)/sqrt(pi)
    return d_n + math.sqrt(2.0) * delta * x


def _refuse_undersampled(state: DipoleState, xi, needed: int, spec: QuadratureSpec) -> None:
    if needed > spec.node_count:
        raise ValueError(
            f"quadrature undersamples the oscillation at xi*delta = "
            f"{abs(xi * state.delta):g}: node_count = {spec.node_count}, need "
            f"node_count >= {needed}"
        )


def _quadrature_array(state: DipoleState, xi: np.ndarray, spec: QuadratureSpec) -> np.ndarray:
    """The oracle at every element of a non-empty float array, per rung.

    Points are sorted by |xi|, and each run of one :func:`required_node_count`
    rung is found by bisection on that function, which is monotone in
    |xi|; so it stays the ladder's one definition. Each run is evaluated in
    chunks as sin(outer(xi, d)) with one dot product per row: the row is
    the scalar path's sin(d*xi), element for element, and a matrix product
    would sum in another order and move the last bits.
    """
    flat = xi.ravel()
    scales = np.abs(flat)
    order = np.argsort(scales)
    scales = scales[order]
    # the largest point needs the most nodes: refused before any is evaluated
    largest = float(scales[-1])
    _refuse_undersampled(state, largest, required_node_count(largest, state.delta), spec)
    out = np.empty(flat.size)
    start = 0
    while start < flat.size:
        needed = required_node_count(float(scales[start]), state.delta)
        lo, hi = start, flat.size  # rung(scales[lo]) == needed < rung(scales[hi])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if required_node_count(float(scales[mid]), state.delta) == needed:
                lo = mid
            else:
                hi = mid
        if needed == 0:
            index = order[start:hi]
            out[index] = np.square([math.sin(state.d_n * x) for x in flat[index].tolist()])
        else:
            d = _scaled_nodes(state.d_n, state.delta, needed)
            _, w = _panel_rule(needed // _PANEL_NODES)
            rows = max(1, _CHUNK_ELEMENTS // needed)
            for first in range(start, hi, rows):
                index = order[first : min(first + rows, hi)]
                values = np.multiply.outer(flat[index], d)
                np.sin(values, out=values)
                out[index] = np.square([np.dot(w, row) for row in values])
        start = hi
    return out.reshape(xi.shape)


def flip_probability_quadrature(
    state: DipoleState, xi, spec: QuadratureSpec = QuadratureSpec()
):
    """Flip probability from numerical evaluation of the amplitude integral.

    Computes A = integral( w(d) sin(d xi) dd ) with w the normalized
    Gaussian of mean d_n and standard deviation delta, using a composite
    Gauss-Legendre rule of :func:`required_node_count` nodes sized to each
    point's |xi*delta|, and returns A**2. This routine is the independent
    oracle for :func:`flip_probability` and shares no algebra with it.

    ``xi`` is a float, or an array evaluated elementwise: its points are
    grouped by rung and each group is evaluated in chunks of a few MB. Each
    element equals the float call at that point, byte for byte. A scalar
    gives a float, an array an array of its shape.

    The degenerate delta = 0 state is a point evaluation sin(d_n xi)^2.

    Raises
    ------
    ValueError
        If an xi or its phase d_n*xi is not finite (:func:`check_phase`),
        if :func:`required_node_count` refuses an xi*delta, or if a point
        needs more nodes than ``spec.node_count`` (the message names both
        counts). An array is refused before any of its points is evaluated.
    """
    if type(xi) is not float and np.ndim(xi) != 0:
        xi = np.asarray(xi, dtype=float)
        check_phase(state, xi)
        return _quadrature_array(state, xi, spec) if xi.size else np.empty(xi.shape)
    check_phase(state, xi)
    needed = required_node_count(xi, state.delta)
    if needed == 0:
        sine = math.sin(state.d_n * xi)
        return sine * sine
    _refuse_undersampled(state, xi, needed, spec)
    _, w = _panel_rule(needed // _PANEL_NODES)
    amplitude = float(np.dot(w, np.sin(_scaled_nodes(state.d_n, state.delta, needed) * xi)))
    return amplitude * amplitude
