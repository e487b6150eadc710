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

__all__ = [
    "NODE_COUNT_MAX",
    "DipoleState",
    "QuadratureSpec",
    "flip_envelope",
    "flip_kernel",
    "flip_oscillation",
    "flip_probability",
    "flip_probability_quadrature",
    "required_node_count",
]

# Largest Gauss-Hermite rule built: ~1 s and ~100 MB, and enough for
# xi*delta <= 203 under the 10*(1 + xi*delta) node rule.
NODE_COUNT_MAX = 2048


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
    """Node count of the Gauss-Hermite amplitude quadrature.

    ``node_count`` must lie in [2, NODE_COUNT_MAX]: the Golub-Welsch rule
    costs O(n^2) memory and O(n^3) time, so larger rules are refused
    rather than attempted.
    """

    node_count: int = 200

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if self.node_count > NODE_COUNT_MAX:
            raise ValueError(
                f"node_count = {self.node_count} exceeds the Gauss-Hermite "
                f"ceiling of {NODE_COUNT_MAX} nodes"
            )


def flip_oscillation(d_n, xi):
    """The factor sin(d_n xi)^2 of the closed form: unchecked, broadcasting."""
    return np.sin(d_n * xi) ** 2


def flip_envelope(delta, xi):
    """The factor exp(-(xi delta)^2) of the closed form: unchecked, broadcasting.

    The product is formed by numpy even for Python floats, so a product
    beyond about 1.3e154 squares to inf (a numpy overflow warning) and the
    envelope is 0, where Python float power would raise OverflowError.
    """
    return np.exp(-(np.multiply(xi, delta) ** 2))


def flip_kernel(d_n, delta, xi):
    """The closed form sin(d_n xi)^2 exp(-(xi delta)^2): unchecked, broadcasting."""
    return flip_oscillation(d_n, xi) * flip_envelope(delta, xi)


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


def _hermite_recurrence(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel weights 1/sum_{k<n} p_k(x)^2 and the ratio p_n(x)/p_{n-1}(x).

    p_k are the orthonormal Hermite polynomials of weight exp(-x^2), from
    p_{k+1} = (x p_k - b_k p_{k-1}) / b_{k+1} with b_k = sqrt(k/2). Every
    step rescales the running values by an exact power of two, so nothing
    overflows and far-out weights underflow to 0 without rounding the rest.
    """
    b = np.sqrt(np.arange(n + 1) / 2.0)
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi**-0.25)
    total = cur * cur
    shift = np.zeros(x.shape, dtype=int)  # the true sum is total * 2**shift
    for k in range(1, n):
        prev, cur = cur, (x * cur - b[k - 1] * prev) / b[k]
        total += cur * cur
        e = np.frexp(total)[1] & ~1  # even, so its half scales p_k exactly
        prev = np.ldexp(prev, -e // 2)
        cur = np.ldexp(cur, -e // 2)
        total = np.ldexp(total, -e)
        shift += e
    p_n = (x * cur - b[n - 1] * prev) / b[n]
    return np.ldexp(1.0 / total, -shift), p_n / cur


@lru_cache(maxsize=8)
def _hermite_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for exp(-x^2), by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix (off-diagonal
    sqrt(k/2)), polished by one Newton step on p_n, whose derivative is
    sqrt(2n) p_{n-1}; the weights are the Christoffel numbers there.
    Golub & Welsch, Math. Comp. 23 (1969) 221.
    """
    b = np.sqrt(np.arange(1, n) / 2.0)
    # eigvalsh reads one triangle, so the superdiagonal alone is the matrix
    x = np.linalg.eigvalsh(np.diag(b, 1), UPLO="U")
    _, ratio = _hermite_recurrence(x, n)
    x = x - ratio / math.sqrt(2.0 * n)
    weights, _ = _hermite_recurrence(x, n)
    return x, weights


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
