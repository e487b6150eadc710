"""Unit conversions: kick parameter, pulse profiles."""

import math

import numpy as np
import pytest

from nedmsim.quantities import (
    E_CHARGE_C,
    GEOMETRIC_FACTOR_DEFAULT,
    HBAR_J_S,
    KAPPA_DEFAULT,
    PhysicalConstants,
    PulseProfile,
    UnitSystem,
    xi_from_pulse,
)

UNITS = UnitSystem()


def test_kappa_is_charge_over_hbar():
    # cross-check of the stored conversion against the defining constants
    assert KAPPA_DEFAULT == E_CHARGE_C / HBAR_J_S
    assert UNITS.phase_per_edm_field_time == pytest.approx(1.519267448809510e15, rel=1e-12)


def test_geometric_factor_default():
    j = 0.5
    assert GEOMETRIC_FACTOR_DEFAULT == pytest.approx(1.0 / (2.0 * math.sqrt(j * (j + 1))))
    assert GEOMETRIC_FACTOR_DEFAULT == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


def test_kick_is_kappa_times_geometric_factor():
    units = UnitSystem(phase_per_edm_field_time=3.0, geometric_factor=0.25)
    assert units.kick == 0.75
    assert xi_from_pulse(PulseProfile(2.0), units) == 1.5


def test_xi_zero_amplitude_pulse():
    assert xi_from_pulse(PulseProfile.rectangular(0.0, 10.0), UNITS) == 0.0


def test_xi_rectangular_pulse():
    e0, duration = 1e4, 100.0
    expected = UNITS.geometric_factor * UNITS.phase_per_edm_field_time * e0 * duration
    assert xi_from_pulse(PulseProfile.rectangular(e0, duration), UNITS) == pytest.approx(
        expected, rel=1e-15
    )


def test_pulse_profile_validation():
    with pytest.raises(ValueError):
        PulseProfile(field_time_integral=math.nan)


@pytest.mark.parametrize("amplitude, duration, message", [
    (math.nan, 1.0, "amplitude must be a finite number, got nan"),
    (1e4, math.inf, "duration must be a finite number, got inf"),
    (1e4, -1.0, "duration must be >= 0"),
], ids=["nan-amplitude", "inf-duration", "negative-duration"])
def test_rectangular_pulse_refuses_bad_arguments(amplitude, duration, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PulseProfile.rectangular(amplitude, duration)


def test_unit_system_validation():
    with pytest.raises(ValueError):
        UnitSystem(phase_per_edm_field_time=0.0)
    with pytest.raises(ValueError):
        UnitSystem(geometric_factor=-1.0)
    with pytest.raises(ValueError):
        UnitSystem(phase_per_edm_field_time=math.inf)


@pytest.mark.parametrize("value", [True, "0.5", None, 10**400],
                         ids=["true", "str", "null", "int-beyond-double"])
@pytest.mark.parametrize("cls, field", [(UnitSystem, "geometric_factor"),
                                        (PhysicalConstants, "mu_n")])
def test_units_and_constants_refuse_values_that_are_not_finite_numbers(cls, field, value):
    # a bool was taken as 1 or 0, and a string or None raised TypeError
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        cls(**{field: value})


@pytest.mark.parametrize("value", [np.float32(0.5), 10**300], ids=["float32", "int-within-double"])
def test_units_take_numpy_and_large_finite_numbers_without_warning(value):
    # a float32 was compared with the largest double, which numpy cast to a
    # float32 with an overflow warning
    assert UnitSystem(geometric_factor=value).geometric_factor == value


def test_constants_validation_and_defaults():
    with pytest.raises(ValueError):
        PhysicalConstants(gamma_hg=0.0)
    c = PhysicalConstants()
    # frequency-units moment consistent with the gyromagnetic ratio
    assert c.mu_n == pytest.approx(abs(c.gamma_n) / 2.0, rel=1e-15)
    assert abs(c.gamma_n) / abs(c.gamma_hg) == pytest.approx(3.8424574, rel=1e-12)
