"""Flip probability: closed form vs the quadrature oracle and its rule."""

import math

import numpy as np
import pytest

from nedmsim.weak_measurement import (
    NODE_COUNT_MAX,
    DipoleState,
    QuadratureSpec,
    _hermite_nodes,
    flip_kernel,
    flip_probability,
    flip_probability_quadrature,
    required_node_count,
)

XI_REF = 1e13  # rad per e.cm; products below are set via this reference


def state_for(dn_xi: float, delta_xi: float, xi: float = XI_REF) -> DipoleState:
    return DipoleState(d_n=dn_xi / xi, delta=delta_xi / xi)


def test_cp_null_is_exact_zero():
    for delta in (0.0, 1e-16, 1e-15):
        for xi in np.geomspace(1e10, 1e16, 13):
            assert flip_probability(DipoleState(0.0, delta), float(xi)) == 0.0


def test_zero_kick_is_exact_zero():
    assert flip_probability(DipoleState(3e-22, 1e-21), 0.0) == 0.0


def test_kernel_of_python_floats_with_overflowing_envelope_is_zero():
    # (xi delta)^2 beyond the double range: numpy squares it to inf, where
    # Python float power raised OverflowError
    with np.errstate(over="ignore"):
        p = flip_kernel(0.0, 1e80, 1e80)
        assert p == 0.0 and isinstance(p, np.float64)
        assert flip_kernel(1e-80, 1e80, 1e80) == 0.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        flip_kernel(0.0, 1e80, 1e80)


def test_closed_form_fixture():
    # sin(1e-13)^2 * exp(-1e-4); frozen after cross-checking against the
    # quadrature oracle (abs difference 4.8e-33 at 200 nodes)
    p = flip_probability(DipoleState(1e-26, 1e-15), 1e13)
    assert p == pytest.approx(9.999000049998334e-27, rel=1e-12)
    q = flip_probability_quadrature(DipoleState(1e-26, 1e-15), 1e13)
    assert abs(p - q) < 1e-10
    assert abs(p - q) < 1e-30  # the actual agreement is far below the contract


def test_oracle_agreement_grid():
    # |closed - quadrature| <= 1e-10 over dn*xi, delta*xi in [0, 5]
    spec = QuadratureSpec(node_count=200)
    for dn_xi in np.linspace(0.0, 5.0, 11):
        for delta_xi in np.linspace(0.0, 5.0, 11):
            st = state_for(dn_xi, delta_xi)
            closed = flip_probability(st, XI_REF)
            quad = flip_probability_quadrature(st, XI_REF, spec)
            assert abs(closed - quad) <= 1e-10


def test_quadrature_delta_zero_is_point_evaluation():
    st = DipoleState(3e-14, 0.0)
    assert flip_probability_quadrature(st, XI_REF) == math.sin(st.d_n * XI_REF) ** 2


def test_quadrature_small_delta_limit():
    st = state_for(0.8, 1e-8)
    assert flip_probability_quadrature(st, XI_REF) == pytest.approx(
        math.sin(0.8) ** 2, rel=1e-12
    )


def test_quadrature_odd_integrand_vanishes_at_zero_dipole():
    for delta_xi in (0.3, 1.0, 3.0):
        st = state_for(0.0, delta_xi)
        assert flip_probability_quadrature(st, XI_REF) < 1e-30


def test_quadrature_node_rule_enforced():
    st = state_for(0.5, 4.0)
    needed = required_node_count(XI_REF, st.delta)
    assert needed == math.ceil(10.0 * (1.0 + 4.0))
    with pytest.raises(ValueError, match=f"node_count >= .* = {needed}"):
        flip_probability_quadrature(st, XI_REF, QuadratureSpec(node_count=needed - 1))
    # exactly enough nodes is accepted
    flip_probability_quadrature(st, XI_REF, QuadratureSpec(node_count=needed))


RULE_SIZES = (2, 3, 20, 200, 1010, NODE_COUNT_MAX)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_hermite_rule_integrates_constants_and_is_symmetric(n):
    x, w = _hermite_nodes(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.all(w >= 0)
    assert abs(float(np.sum(w)) - math.sqrt(math.pi)) <= 2e-15
    assert np.max(np.abs(x + x[::-1])) <= 5e-14


@pytest.mark.parametrize("n", RULE_SIZES)
def test_hermite_rule_matches_scipy(n):
    roots_hermite = pytest.importorskip("scipy.special").roots_hermite
    x, w = _hermite_nodes(n)
    x_ref, w_ref = roots_hermite(n)
    assert np.max(np.abs(x - x_ref)) <= 5e-14
    resolved = w_ref > 1e-250
    assert np.max(np.abs(w[resolved] / w_ref[resolved] - 1.0)) <= 4e-12


def test_quadrature_spec_node_ceiling():
    QuadratureSpec(node_count=NODE_COUNT_MAX)
    with pytest.raises(ValueError, match=f"{NODE_COUNT_MAX + 1} exceeds .* {NODE_COUNT_MAX} nodes"):
        QuadratureSpec(node_count=NODE_COUNT_MAX + 1)


def test_scale_invariance():
    # P(s*dn, s*delta, xi/s) == P(dn, delta, xi), relative 1e-12
    rng = np.random.default_rng(101)
    count = 1000
    dn_xi = rng.uniform(0.0, 3.0, count)
    delta_xi = rng.uniform(0.0, 3.0, count)
    xi = 10.0 ** rng.uniform(10, 16, count)
    s = 10.0 ** rng.uniform(-10, 10, count)
    for i in range(count):
        base = flip_probability(DipoleState(dn_xi[i] / xi[i], delta_xi[i] / xi[i]), xi[i])
        scaled = flip_probability(
            DipoleState(s[i] * dn_xi[i] / xi[i], s[i] * delta_xi[i] / xi[i]),
            xi[i] / s[i],
        )
        assert scaled == pytest.approx(base, rel=1e-12, abs=0.0)


def test_envelope_bound():
    rng = np.random.default_rng(7)
    for _ in range(500):
        st = state_for(rng.uniform(0, 6), rng.uniform(0, 4))
        assert flip_probability(st, XI_REF) <= math.exp(-((XI_REF * st.delta) ** 2)) * (1 + 1e-15)


def test_monotone_suppression_in_delta():
    # fixed dn*xi away from multiples of pi: strictly decreasing in delta
    dn = 0.7 / XI_REF
    deltas = np.linspace(0.0, 3.0, 40) / XI_REF
    values = [flip_probability(DipoleState(dn, d), XI_REF) for d in deltas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_flip_probability_vectorized_over_xi():
    st = DipoleState(3e-22, 1e-21)
    xis = np.geomspace(1e19, 1e21, 7)
    vec = flip_probability(st, xis)
    assert vec.shape == (7,)
    for x, v in zip(xis, vec):
        assert v == flip_probability(st, float(x))


def test_dipole_state_validation():
    with pytest.raises(ValueError):
        DipoleState(0.0, -1e-20)
    with pytest.raises(ValueError):
        DipoleState(math.nan, 0.0)

