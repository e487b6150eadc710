"""Unit conventions and conversion from (dipole x field x time) to phase.

Internal conventions, fixed once here so every other module can treat the
core products as dimensionless phases:

* dipole moments in e·cm
* electric fields in V/cm
* magnetic fields in tesla
* times in seconds
* hbar = 1, so a dipole d in a field E accumulates phase at the rate
  d * E * KAPPA rad/s, with KAPPA = e * (1 V) / hbar converting
  (e·cm x V/cm) into an angular frequency.

The kick parameter of a field pulse is

    xi = geometric_factor * KAPPA * integral(E dt)      [rad per e·cm]

so that d * xi is the dimensionless rotation angle a dipole d picks up.
The geometric factor defaults to 1/(2*sqrt(j*(j+1))) for j = 1/2, i.e.
1/sqrt(3); it is configurable because it depends on the spin-projection
convention and not on any measured quantity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable

__all__ = [
    "E_CHARGE_C",
    "HBAR_J_S",
    "KAPPA_DEFAULT",
    "GEOMETRIC_FACTOR_DEFAULT",
    "GAMMA_N_RAD_PER_S_T",
    "GAMMA_HG_RAD_PER_S_T",
    "MU_N_RAD_PER_S_T",
    "UnitSystem",
    "PhysicalConstants",
    "PulseProfile",
    "xi_from_pulse",
]

# CODATA 2018. e is exact by SI definition.
E_CHARGE_C = 1.602176634e-19     # elementary charge [C]
HBAR_J_S = 1.054571817e-34       # reduced Planck constant [J s]

# Phase accumulated per (e·cm x V/cm x s): the energy of a 1 e·cm dipole in
# a 1 V/cm field is e * 1 V (the cm cancels), so the rate is e*V/hbar.
KAPPA_DEFAULT = E_CHARGE_C / HBAR_J_S    # ~1.5193e15 rad per (e·cm V/cm s)

# 1/(2*sqrt(j(j+1))) at j = 1/2.
GEOMETRIC_FACTOR_DEFAULT = 1.0 / math.sqrt(3.0)

# Neutron gyromagnetic ratio, CODATA magnitude with the physical sign
# (the neutron moment is negative).
GAMMA_N_RAD_PER_S_T = -1.83247171e8

# 199Hg follows from the measured frequency ratio |gamma_n/gamma_hg|
# = 3.8424574 used by comagnetometer analyses.
GAMMA_HG_RAD_PER_S_T = abs(GAMMA_N_RAD_PER_S_T) / 3.8424574

# Magnetic moment in angular-frequency units (mu/hbar). For a spin-1/2
# Larmor frequency f = |gamma| B / 2pi = mu B / pi, this is |gamma|/2.
MU_N_RAD_PER_S_T = abs(GAMMA_N_RAD_PER_S_T) / 2.0


def _finite_real(value) -> bool:
    """True for a finite real number, numpy's included, and False for a bool.

    An int beyond the double range is not finite here. It is not compared
    with the largest double: numpy casts that double to a float32's type,
    which overflows and warns.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


# Kinds of config value: a test, and what a value of the kind must be. A
# config dataclass's field has the kind that its annotation's text names.
REAL = (_finite_real, "a finite number")
REAL_OR_NULL = (lambda v: v is None or _finite_real(v), "a finite number or null")
INT = (lambda v: type(v) is int, "an int")
STR = (lambda v: type(v) is str, "a string")
_KINDS = {"float": REAL, "float | None": REAL_OR_NULL, "int": INT, "str": STR}


def field_kinds(cls) -> dict:
    """Each field name of a config dataclass -> the kind of its annotation."""
    return {f.name: _KINDS[f.type] for f in fields(cls)}


def check_kinds(values: dict, kinds: dict, name: Callable[[str], str] = str,
                prefix: str = "") -> None:
    """Raise ValueError, naming the key, unless each value has its kind.

    A nested table of kinds checks a nested dict, which may hold no other
    key; ``name`` gives a dotted key's name in the message. A bool, a string
    or None is refused where a number is due, never with a TypeError.
    """
    for key, kind in kinds.items():
        value = values[key]
        if isinstance(kind, dict):  # no other key: most tables are passed as keywords
            unknown = sorted(set(value) - set(kind))
            if unknown:
                raise ValueError(f"{name(prefix + key)} has an unknown key {unknown[0]!r}")
            check_kinds(value, kind, name, f"{prefix}{key}.")
        elif not kind[0](value):
            raise ValueError(f"{name(prefix + key)} must be {kind[1]}, got {value!r}")


def check_fields(obj) -> None:
    """Raise ValueError, naming the field, unless each field of obj has its kind."""
    check_kinds(vars(obj), field_kinds(obj))


@dataclass(frozen=True)
class UnitSystem:
    """Conversion constants between laboratory units and internal phase.

    Attributes
    ----------
    phase_per_edm_field_time : float
        rad accumulated per (e·cm x V/cm x s); defaults to e*V/hbar.
    geometric_factor : float
        Dimensionless spin-projection factor entering the kick parameter;
        defaults to 1/sqrt(3).
    """

    phase_per_edm_field_time: float = KAPPA_DEFAULT
    geometric_factor: float = GEOMETRIC_FACTOR_DEFAULT

    def __post_init__(self) -> None:
        check_fields(self)
        if self.phase_per_edm_field_time <= 0:
            raise ValueError("phase_per_edm_field_time must be > 0")
        if self.geometric_factor <= 0:
            raise ValueError("geometric_factor must be > 0")

    @property
    def kick(self) -> float:
        """kappa * g, rad per (e·cm x V/cm x s): xi per unit integral(E dt)."""
        return self.phase_per_edm_field_time * self.geometric_factor


@dataclass(frozen=True)
class PhysicalConstants:
    """Gyromagnetic ratios and the neutron moment in frequency units.

    ``mu_n`` is mu/hbar in rad/s per tesla, so the spin-1/2 Larmor
    frequency is f = mu_n * B / pi. The default keeps mu_n = |gamma_n|/2
    exactly, which makes the frequency ratio formed by the comagnetometer
    reduce to |gamma_n|/|gamma_hg| with no residual field dependence. A
    field's ``ini`` metadata is its key in a config file's ``[constants]``
    section.
    """

    gamma_n: float = field(default=GAMMA_N_RAD_PER_S_T,
                           metadata={"ini": "gamma_n_rad_per_s_tesla"})
    gamma_hg: float = field(default=GAMMA_HG_RAD_PER_S_T,
                            metadata={"ini": "gamma_hg_rad_per_s_tesla"})
    mu_n: float = field(default=MU_N_RAD_PER_S_T, metadata={"ini": "mu_n_rad_per_s_tesla"})

    def __post_init__(self) -> None:
        check_fields(self)
        if self.gamma_hg == 0:
            raise ValueError("gamma_hg must be nonzero")


@dataclass(frozen=True)
class PulseProfile:
    """Applied electric-field pulse, reduced to its time integral.

    Only ``field_time_integral`` (integral of E(t) dt, in (V/cm)*s) enters
    the physics; switching is assumed slow enough that transients are
    negligible.
    """

    field_time_integral: float

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def rectangular(cls, amplitude: float, duration: float) -> "PulseProfile":
        """Constant field of the given amplitude over the given duration."""
        check_kinds({"amplitude": amplitude, "duration": duration},
                    {"amplitude": REAL, "duration": REAL})
        if duration < 0:
            raise ValueError("duration must be >= 0")
        return cls(field_time_integral=amplitude * duration)


def xi_from_pulse(profile: PulseProfile, units: UnitSystem) -> float:
    """Kick parameter xi (rad per e·cm) of a pulse.

    xi = units.kick * integral(E dt): the pulse enters only through its
    integral.
    """
    return units.kick * profile.field_time_integral
