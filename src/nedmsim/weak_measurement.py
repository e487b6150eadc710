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
from scipy.special import roots_hermite

__all__ = [
    "DipoleState",
    "QuadratureSpec",
    "flip_kernel",
    "flip_probability",
    "flip_probability_quadrature",
    "flip_probability_trapezoid",
    "required_node_count",
    "wigner_eckart_dipole",
]


@dataclass(frozen=True)
class DipoleState:
    """Expectation value and quantum uncertainty of the scalar dipole.

    Both in e·cm; ``delta`` is the weight-level standard deviation (see
    module docstring) and must be >= 0.
    """

    d_n: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d_n) and math.isfinite(self.delta)):
            raise ValueError("dipole state values must be finite")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count and integration window for the amplitude quadrature.

    ``integration_halfwidth`` (in multiples of delta) only affects the
    trapezoid fallback; Gauss-Hermite nodes place themselves.
    """

    node_count: int = 200
    integration_halfwidth: float = 12.0

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.integration_halfwidth <= 0:
            raise ValueError("integration_halfwidth must be > 0")


def flip_kernel(d_n, delta, xi):
    """The closed form sin(d_n xi)^2 exp(-(xi delta)^2): unchecked, broadcasting."""
    return np.sin(d_n * xi) ** 2 * np.exp(-((xi * delta) ** 2))


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
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    p = flip_kernel(state.d_n, state.delta, xi)
    return float(p) if p.ndim == 0 else p


def required_node_count(xi: float, delta: float) -> int:
    """Minimum quadrature nodes for the oscillation scale |xi*delta|."""
    return math.ceil(10.0 * (1.0 + abs(xi * delta)))


def _check_nodes(spec: QuadratureSpec, xi: float, delta: float) -> None:
    needed = required_node_count(xi, delta)
    if spec.node_count < needed:
        raise ValueError(
            f"quadrature undersamples the oscillation at xi*delta = "
            f"{abs(xi * delta):g}: node_count = {spec.node_count}, need "
            f"node_count >= ceil(10*(1 + xi*delta)) = {needed}"
        )


@lru_cache(maxsize=8)
def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return roots_hermite(n)


def flip_probability_quadrature(
    state: DipoleState, xi: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Flip probability from numerical evaluation of the amplitude integral.

    Computes A = integral( w(d) sin(d xi) dd ) with w the normalized
    Gaussian of mean d_n and standard deviation delta, using Gauss-Hermite
    nodes, and returns A**2. Converges to :func:`flip_probability` as the
    node count grows; this routine is the independent oracle and shares no
    algebra with the closed form.

    The degenerate delta = 0 state is a point evaluation sin(d_n xi)^2.

    Raises
    ------
    ValueError
        If ``spec.node_count`` undersamples the oscillation (the message
        recommends a sufficient count).
    """
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    if state.delta == 0.0:
        return math.sin(state.d_n * xi) ** 2
    _check_nodes(spec, xi, state.delta)
    x, w = _hermite_nodes(spec.node_count)
    # substitution d = d_n + sqrt(2)*delta*x maps w(d) dd to exp(-x^2)/sqrt(pi)
    d = state.d_n + math.sqrt(2.0) * state.delta * x
    amplitude = float(np.dot(w, np.sin(d * xi))) / math.sqrt(math.pi)
    return amplitude**2


def flip_probability_trapezoid(
    state: DipoleState, xi: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Trapezoid fallback for the amplitude integral, for diagnostics.

    Integrates w(d) sin(d xi) on a uniform grid over
    d_n +/- integration_halfwidth * delta. Cruder than Gauss-Hermite at
    equal node count; useful to cross-examine quadrature disagreements.
    """
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    if state.delta == 0.0:
        return math.sin(state.d_n * xi) ** 2
    _check_nodes(spec, xi, state.delta)
    half = spec.integration_halfwidth * state.delta
    d = np.linspace(state.d_n - half, state.d_n + half, spec.node_count)
    weight = np.exp(-((d - state.d_n) ** 2) / (2.0 * state.delta**2))
    weight /= state.delta * math.sqrt(2.0 * math.pi)
    amplitude = float(np.trapezoid(weight * np.sin(d * xi), d))
    return amplitude**2


def wigner_eckart_dipole(scalar_ev, spin_ev, j: float) -> np.ndarray:
    """Vector dipole expectation from the scalar one and the spin vector.

    Returns ``scalar_ev / (j*(j+1)) * spin_ev`` componentwise, the
    projection of a vector observable onto the angular-momentum direction
    within a fixed-j multiplet. ``j`` must be a positive half-integer.
    """
    if not math.isfinite(j) or j <= 0:
        raise ValueError("j must be a positive half-integer")
    if abs(2.0 * j - round(2.0 * j)) > 1e-9:
        raise ValueError("j must be a positive half-integer")
    spin = np.asarray(spin_ev, dtype=float)
    if spin.shape != (3,):
        raise ValueError("spin_ev must be a 3-vector")
    if not (math.isfinite(scalar_ev) and np.all(np.isfinite(spin))):
        raise ValueError("inputs must be finite")
    return (scalar_ev / (j * (j + 1.0))) * spin
