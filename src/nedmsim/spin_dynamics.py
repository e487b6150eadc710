"""Exact two-level spin evolution and Ramsey-cycle bookkeeping.

The analytic path used by the campaign simulation is:

    phase     phi = 2 * t * |mu_n B + d_n E * kappa * g|     (2*pi*f*t)
    counts    p_up = (1 + visibility * cos(phi)) / 2
    analysis  A = (N_up - N_down) / (N_up + N_down)

An explicit spinor pipeline (pi/2 pulse, free precession, closing pi/2
pulse) is kept alongside as a cross-check of the phase-to-population
conversion; the closing pulse is applied about -x so that zero accumulated
phase returns the spin to +z and the +z port is the bright one, matching
p_up = (1 + cos(phi))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .quantities import PhysicalConstants, UnitSystem, check_fields

__all__ = [
    "Spinor",
    "RamseyConfig",
    "rotate",
    "ramsey_phase",
    "ramsey_up_probability_spinor",
    "up_probability",
    "asymmetry",
]

_AXIS_TOL = 1e-9


@dataclass(frozen=True)
class Spinor:
    """Normalized two-component state in the spin-z basis."""

    up: complex
    down: complex

    def __post_init__(self) -> None:
        if abs(self.norm_squared() - 1.0) > 1e-12:
            raise ValueError("spinor must be normalized to 1 within 1e-12")

    def norm_squared(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2

    def up_probability(self) -> float:
        return abs(self.up) ** 2

    def down_probability(self) -> float:
        return abs(self.down) ** 2

    @classmethod
    def plus_z(cls) -> "Spinor":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def minus_z(cls) -> "Spinor":
        return cls(0.0 + 0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class RamseyConfig:
    """Fields and timing of one free-precession interval.

    ``e_field`` is signed: its sign encodes the E orientation relative to B.
    """

    b_field: float
    e_field: float
    free_time: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.free_time < 0:
            raise ValueError("free_time must be >= 0")


def rotate(state: Spinor, axis: Sequence[float], angle: float) -> Spinor:
    """Rotate a spinor by ``angle`` about a unit 3-vector ``axis``.

    Implements exp(-i * angle * (axis . sigma) / 2). Norm is preserved and
    rotations about a common axis compose by adding angles.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = float(np.linalg.norm(ax))
    if abs(norm - 1.0) > _AXIS_TOL:
        raise ValueError(f"axis must be unit length within {_AXIS_TOL:g}")
    if not math.isfinite(angle):
        raise ValueError("non-finite rotation angle")

    nx, ny, nz = ax
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    # U = c*I - i*s*(n . sigma)
    u00 = complex(c, -s * nz)
    u01 = complex(-s * ny, -s * nx)
    u10 = complex(s * ny, -s * nx)
    u11 = complex(c, s * nz)
    return Spinor(
        up=u00 * state.up + u01 * state.down,
        down=u10 * state.up + u11 * state.down,
    )


def _phase(mu_n, b_field, d_n, e_field, free_time, units: UnitSystem):
    """Ramsey phase 2 * free_time * |mu_n B + d_n E k g|, unchecked.

    Elementwise for arrays of fields, as a campaign block passes them.
    """
    return 2.0 * free_time * abs(mu_n * b_field + d_n * e_field * units.kick)


def ramsey_phase(
    config: RamseyConfig,
    d_n: float,
    units: UnitSystem,
    constants: PhysicalConstants,
) -> float:
    """Phase accumulated during free precession, 2*pi*f*free_time.

    The signed ``config.e_field`` selects which Larmor branch applies:
    phi = 2 * free_time * |mu_n B + d_n E k g|. Linear in free_time.
    """
    return _phase(
        constants.mu_n, config.b_field, d_n, config.e_field, config.free_time, units
    )


def ramsey_up_probability_spinor(phi: float) -> float:
    """Spin-up probability after an explicit spinor Ramsey sequence.

    pi/2 pulse about +x, free precession about z by ``phi``, closing pi/2
    pulse about -x, then projection on +z. Equals (1 + cos(phi))/2 up to
    rounding; exists as an independent cross-check of
    :func:`up_probability`.
    """
    x_axis = (1.0, 0.0, 0.0)
    minus_x_axis = (-1.0, 0.0, 0.0)
    z_axis = (0.0, 0.0, 1.0)
    state = Spinor.plus_z()
    state = rotate(state, x_axis, math.pi / 2.0)
    state = rotate(state, z_axis, phi)
    state = rotate(state, minus_x_axis, math.pi / 2.0)
    return state.up_probability()


def up_probability(phi, visibility: float = 1.0):
    """Population model (1 + visibility*cos(phi))/2, in [0, 1].

    Elementwise for an array of phases; a float phase gives a numpy float.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return 0.5 * (1.0 + visibility * np.cos(phi))


def asymmetry(n_up, n_down):
    """Normalized count difference (N_up - N_down) / (N_up + N_down).

    Accepts real-valued counts so that exact expected populations can be
    pushed through the same analysis as sampled ones, and arrays of counts
    elementwise; every total must be > 0.
    """
    total = n_up + n_down
    if not np.all(total > 0):
        raise ValueError("asymmetry undefined: total count must be > 0")
    return (n_up - n_down) / total
