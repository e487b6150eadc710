"""Spinor rotations, Ramsey phase, count asymmetry."""

import math

import numpy as np
import pytest

from nedmsim.quantities import PhysicalConstants, UnitSystem
from nedmsim.spin_dynamics import (
    RamseyConfig,
    Spinor,
    asymmetry,
    ramsey_phase,
    ramsey_up_probability_spinor,
    rotate,
    up_probability,
)

UNITS = UnitSystem()
CONSTANTS = PhysicalConstants()

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


def test_rotate_about_z_leaves_probabilities():
    s = rotate(Spinor.plus_z(), Z, 0.7)
    assert s.up_probability() == pytest.approx(1.0, abs=1e-14)
    assert s.down_probability() == pytest.approx(0.0, abs=1e-14)


def test_rotate_pi_about_y_swaps_poles():
    s = rotate(Spinor.plus_z(), Y, math.pi)
    assert s.down_probability() == pytest.approx(1.0, abs=1e-14)
    s2 = rotate(Spinor.minus_z(), Y, math.pi)
    assert s2.up_probability() == pytest.approx(1.0, abs=1e-14)


def test_rotation_group_law_same_axis():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-6, 6, size=2)
        s0 = rotate(Spinor.plus_z(), X, rng.uniform(0, math.pi))
        left = rotate(rotate(s0, Y, a), Y, b)
        right = rotate(s0, Y, a + b)
        assert abs(left.up - right.up) < 1e-12
        assert abs(left.down - right.down) < 1e-12


def test_rotate_preserves_norm():
    rng = np.random.default_rng(17)
    s = Spinor.plus_z()
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s = rotate(s, axis, rng.uniform(-10, 10))
        assert abs(s.norm_squared() - 1.0) < 1e-12


def test_rotate_rejects_non_unit_axis():
    with pytest.raises(ValueError, match="unit length"):
        rotate(Spinor.plus_z(), (1.0, 1.0, 0.0), 0.1)


def test_spinor_must_be_normalized():
    with pytest.raises(ValueError):
        Spinor(1.0, 1.0)


def test_ramsey_phase_pins_the_larmor_frequency():
    # phi / (2 pi t) is the precession frequency mu_n B / pi; without a
    # dipole it is the same on either polarity
    for e in (0.0, 1e4, -1e4):
        phi = ramsey_phase(RamseyConfig(b_field=1e-6, e_field=e, free_time=1.0),
                           0.0, UNITS, CONSTANTS)
        assert phi / (2.0 * math.pi) == 29.16469307225581


def test_ramsey_phase_zero_time_and_linearity():
    cfg = RamseyConfig(b_field=1e-6, e_field=1e4, free_time=0.0)
    assert ramsey_phase(cfg, 1e-20, UNITS, CONSTANTS) == 0.0
    cfg1 = RamseyConfig(b_field=1e-6, e_field=1e4, free_time=50.0)
    cfg2 = RamseyConfig(b_field=1e-6, e_field=1e4, free_time=100.0)
    assert ramsey_phase(cfg2, 1e-20, UNITS, CONSTANTS) == pytest.approx(
        2.0 * ramsey_phase(cfg1, 1e-20, UNITS, CONSTANTS), rel=1e-15
    )


def test_ramsey_phase_polarity_difference():
    # phi(+E) - phi(-E) = 4 * t * d * E * kappa * g in the B-dominated regime
    d, e, t = 1e-20, 1e4, 100.0
    plus = ramsey_phase(RamseyConfig(1e-6, +e, t), d, UNITS, CONSTANTS)
    minus = ramsey_phase(RamseyConfig(1e-6, -e, t), d, UNITS, CONSTANTS)
    expected = 4.0 * t * d * e * UNITS.phase_per_edm_field_time * UNITS.geometric_factor
    assert plus - minus == pytest.approx(expected, rel=1e-9)


def test_up_probability_values():
    assert up_probability(0.0, 1.0) == 1.0
    assert up_probability(math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)
    for vis in (0.0, 0.3, 1.0):
        assert up_probability(math.pi / 2.0, vis) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        up_probability(0.0, 1.5)


def test_asymmetry_values():
    assert asymmetry(500, 500) == 0.0
    assert asymmetry(1000, 0) == 1.0
    assert asymmetry(750, 250) == 0.5
    with pytest.raises(ValueError, match="total"):
        asymmetry(0, 0)


def test_asymmetry_real_valued_identity():
    # asymmetry(N p, N (1-p)) = 2p - 1 for real-valued counts
    assert asymmetry(1000 * 0.75, 1000 * 0.25) == 2 * 0.75 - 1
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.uniform(0.001, 0.999)
        n = rng.uniform(1.0, 1e7)
        assert asymmetry(n * p, n * (1 - p)) == pytest.approx(2 * p - 1, abs=1e-13)


def test_spinor_ramsey_matches_population_model():
    # explicit pulse sequence against (1 + cos phi)/2 at unit visibility
    rng = np.random.default_rng(23)
    for phi in rng.uniform(-30.0, 30.0, size=300):
        assert ramsey_up_probability_spinor(phi) == pytest.approx(
            up_probability(phi, 1.0), abs=1e-10
        )


def test_ramsey_config_validation():
    with pytest.raises(ValueError):
        RamseyConfig(1e-6, 1e4, free_time=-1.0)


@pytest.mark.parametrize("value", [True, "1.0", None, math.nan],
                         ids=["bool", "str", "null", "nan"])
@pytest.mark.parametrize("field", ["b_field", "e_field", "free_time"])
def test_ramsey_config_refuses_values_that_are_not_finite_numbers(field, value):
    # a bool was taken as 1 or 0, and a string or None raised TypeError
    values = {"b_field": 1e-6, "e_field": 1e4, "free_time": 10.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        RamseyConfig(**values)
