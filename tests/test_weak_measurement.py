"""Flip probability: closed form vs the quadrature oracle and its rule."""

import math
import warnings

import numpy as np
import pytest

from nedmsim.ensemble import expected_stochastic_fraction, simulate_stochastic
from nedmsim.weak_measurement import (
    NODE_COUNT_MAX,
    DipoleState,
    QuadratureSpec,
    _panel_rule,
    _scaled_nodes,
    _unit_rule,
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


def test_overflowing_phase_is_refused():
    # each of d_n and xi is finite, their product is not
    state = DipoleState(1e300, 0.0)
    message = r"xi and the phase d_n\*xi must be finite"
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=message):
            flip_probability(state, 1e300)
        with pytest.raises(ValueError, match=message):
            flip_probability(state, np.array([0.0, 1e300]))
    # at d_n = 0 an infinite xi is refused without a numpy warning for 0*inf
    with pytest.raises(ValueError, match=message):
        flip_probability(DipoleState(0.0, 0.0), math.inf)


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_stochastic(DipoleState(1e300, 0.0), 1e300, 1000, seed=1),
        lambda: flip_probability_quadrature(
            DipoleState(1e300, 1e-300), 1e300, QuadratureSpec(200)
        ),
        lambda: flip_probability_quadrature(DipoleState(1e300, 0.0), 1e300),
        lambda: expected_stochastic_fraction(DipoleState(1e300, 0.0), 1e300),
    ],
    ids=["stochastic_ensemble", "quadrature", "quadrature_delta_0", "expected_fraction"],
)
def test_overflowing_phase_is_refused_by_every_path(call):
    # the check flip_probability makes, before any sine: no NaN count or
    # probability, no math domain error, and no numpy warning
    with pytest.raises(ValueError, match=r"xi and the phase d_n\*xi must be finite"):
        call()


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
    # the integrand spans 13*sqrt(2)*4/(2 pi) = 11.7 periods of |x| <= 6.5:
    # 4 panels of 24 nodes at 3 periods each, and 4 is on the ladder
    assert needed == 24 * 4
    with pytest.raises(ValueError, match=f"node_count = {needed - 1}, need node_count >= {needed}"):
        flip_probability_quadrature(st, XI_REF, QuadratureSpec(node_count=needed - 1))
    # exactly enough nodes is accepted
    flip_probability_quadrature(st, XI_REF, QuadratureSpec(node_count=needed))


def test_oracle_agreement_dense():
    # 4 points per unit of xi*delta up to 300, then log-spaced up to the
    # node ceiling; each point is evaluated with its own rule, under the
    # default spec
    scales = np.concatenate([np.arange(0.25, 300.0 + 0.125, 0.25), np.geomspace(300.0, 33_000.0, 6)])
    worst = 0.0
    for dn_xi in (0.0, 0.3, 1.0):
        for delta_xi in scales:
            st = state_for(dn_xi, float(delta_xi))
            closed = flip_probability(st, XI_REF)
            worst = max(worst, abs(closed - flip_probability_quadrature(st, XI_REF)))
    assert worst <= 1e-10


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("dn_xi", [0.0, 0.3, 1.0])
def test_array_oracle_equals_scalar_oracle_bytes(dn_xi):
    # xi*delta = 0, 0.25, ..., 300, then log-spaced to the node ceiling
    scales = np.concatenate([np.arange(0.0, 300.0 + 0.125, 0.25), np.geomspace(300.0, 33_000.0, 6)])
    # at d_n*xi = dn_xi exactly: one state per point, as in the dense test
    for delta_xi in scales.tolist():
        st = state_for(dn_xi, delta_xi)
        point = flip_probability_quadrature(st, np.array([XI_REF]))
        assert _bits(point) == _bits([flip_probability_quadrature(st, XI_REF)])
    # one state over the whole grid, so one array spans every rung; with
    # the linear part negated its points come unsorted and of both signs
    st = state_for(dn_xi, 1.0)
    xis = np.concatenate([scales, -scales[:1201]]) * XI_REF
    array = flip_probability_quadrature(st, xis)
    assert array.shape == xis.shape
    assert _bits(array) == _bits([flip_probability_quadrature(st, float(x)) for x in xis])
    # a 2-d array is evaluated elementwise, in its shape
    square = flip_probability_quadrature(st, xis[:1000].reshape(20, 50))
    assert _bits(square.ravel()) == _bits(array[:1000])


def test_array_oracle_at_zero_delta_is_point_evaluation():
    # squared by multiplication: Python's pow differs from it at 12 of
    # these 20,001 points
    st = DipoleState(3e-14, 0.0)
    xis = np.linspace(-1e15, 1e15, 20_001)
    sines = [math.sin(st.d_n * x) for x in xis.tolist()]
    assert _bits(flip_probability_quadrature(st, xis)) == _bits([s * s for s in sines])


def test_array_oracle_refuses_before_evaluating(monkeypatch):
    def refuse(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr("nedmsim.weak_measurement._panel_rule", refuse)
    monkeypatch.setattr("nedmsim.weak_measurement._scaled_nodes", refuse)
    st = state_for(0.5, 1.0)
    # xi*delta = 4 needs 96 nodes; the others need 72
    xis = np.array([0.5, 4.0, 1.0, 0.25]) * XI_REF
    with pytest.raises(ValueError, match="node_count = 72, need node_count >= 96"):
        flip_probability_quadrature(st, xis, QuadratureSpec(node_count=72))
    assert flip_probability_quadrature(st, np.array([])).shape == (0,)


def test_scalar_inputs_give_identical_floats():
    # a Python float takes flip_probability's float path, which never calls
    # flip_kernel; np.float64 and a 0-d array go through flip_kernel
    st = DipoleState(3e-22, 1e-21)
    for x in np.geomspace(1e19, 1e22, 300).tolist():
        for call in (flip_probability, flip_probability_quadrature):
            values = [call(st, v) for v in (x, np.float64(x), np.array(x))]
            assert all(type(v) is float for v in values)
            assert len(set(_bits(values))) == 1


def test_node_cache_holds_one_array():
    _scaled_nodes.cache_clear()
    for delta_xi in np.geomspace(1e-2, 1e3, 200):
        flip_probability_quadrature(state_for(0.3, float(delta_xi)), XI_REF)
    flip_probability_quadrature(state_for(0.3, 1.0), np.geomspace(1e-2, 1e3, 200) * XI_REF)
    assert _scaled_nodes.cache_info().currsize <= _scaled_nodes.cache_info().maxsize == 1


def test_required_node_count_is_what_the_oracle_evaluates():
    # delta = 0 is a point evaluation; xi = 0 with delta > 0 runs 3 panels
    assert required_node_count(XI_REF, 0.0) == 0
    assert required_node_count(0.0, 1e-15) == 72
    assert required_node_count(1.0, 33_000.0) <= NODE_COUNT_MAX
    with pytest.raises(
        ValueError, match=f"node_count = 2359296 exceeds the quadrature ceiling of {NODE_COUNT_MAX} nodes"
    ):
        required_node_count(1e20, 1e-15)


def _ladder(top: int) -> list[int]:
    """Panel counts 2^k and 3*2^(k-1) from 3 up to top."""
    rungs = [2**k for k in range(1, top.bit_length() + 1)]
    rungs += [3 * 2 ** (k - 1) for k in range(1, top.bit_length() + 1)]
    return sorted(r for r in rungs if 3 <= r <= top)


def test_panel_cache_stays_on_the_ladder():
    _panel_rule.cache_clear()
    spec = QuadratureSpec(node_count=NODE_COUNT_MAX)
    for delta_xi in np.geomspace(1e-2, 1e3, 500):
        flip_probability_quadrature(state_for(0.3, float(delta_xi)), XI_REF, spec)
    rungs = _ladder(required_node_count(1.0, 1e3) // 24)
    assert _panel_rule.cache_info().currsize <= len(rungs)


def test_unit_rule_matches_numpy():
    x, w = _unit_rule(24)
    x_ref, w_ref = np.polynomial.legendre.leggauss(24)
    assert np.max(np.abs(x - x_ref)) <= 1e-15
    assert np.max(np.abs(w - w_ref)) <= 4e-15
    # the moments of x^(2j) are 2/(2j+1) up to degree 46
    for j in range(24):
        assert abs(float(np.dot(w, x ** (2 * j))) - 2.0 / (2 * j + 1)) <= 2e-15


# every rung up to xi*delta = 1e3; beyond it the rounding of the phase
# omega*x alone nears 1e-14, and the dense test above covers those rungs
@pytest.mark.parametrize("panels", _ladder(1024))
def test_panel_rule_integrates_gaussian_and_is_symmetric(panels):
    x, w = _panel_rule(panels)
    assert x.shape == w.shape == (24 * panels,)
    assert np.all(np.diff(x) > 0)
    assert np.all(w >= 0)
    assert abs(float(np.sum(w)) - 1.0) <= 2e-15
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exp(-x^2) cos(omega x) integrates to sqrt(pi) exp(-omega^2/4); at the
    # rung's largest omega each panel holds 3 periods
    omega = 2.0 * math.pi * 3.0 * panels / 13.0
    assert abs(float(np.dot(w, np.cos(omega * x))) - math.exp(-omega * omega / 4.0)) <= 1e-14


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


def test_flip_probability_array_equals_float_calls_bytes():
    # squares are multiplications in both paths, so no last bit moves
    st = DipoleState(3e-22, 1e-21)
    grid = np.geomspace(1e18, 1e23, 50_000)
    xis = np.concatenate([grid, -grid[::-1]])
    assert _bits(flip_probability(st, xis)) == _bits(
        [flip_probability(st, x) for x in xis.tolist()]
    )


@pytest.mark.parametrize(
    "state, xi_max",
    [
        (DipoleState(0.0, 1e-21), 1e23),
        (DipoleState(-3e-22, 1e-21), 1e23),
        (DipoleState(0.0, 1e-13), 1e170),
        (DipoleState(-3e-171, 1e-13), 1e170),
    ],
    ids=["dn_zero", "dn_negative", "dn_zero_envelope_overflows", "envelope_overflows"],
)
def test_float_calls_equal_array_call_bytes_at_the_edges(state, xi_max):
    # xi of both signs; in the last two cases xi*delta runs from 1e152 to
    # 1e157, past 1.3e154, where its square overflows and the envelope is 0
    grid = np.geomspace(xi_max * 1e-5, xi_max, 20_000)
    xis = np.concatenate([grid, -grid[::-1]])
    with np.errstate(over="ignore"):
        array = flip_probability(state, xis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = [flip_probability(state, x) for x in xis.tolist()]
    assert _bits(array) == _bits(floats)
    if state.d_n == 0.0:
        assert set(_bits(floats)) == {0}
    overflowing = np.abs(xis) * state.delta > 1.3e154
    if xi_max > 1e160:
        assert 0 < np.count_nonzero(overflowing) < xis.size
        assert set(_bits(array[overflowing])) == {0}


def test_float_path_never_calls_the_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("flip_kernel was called")

    st = DipoleState(3e-22, 1e-21)
    expected = float(flip_kernel(st.d_n, st.delta, 1e21))
    monkeypatch.setattr("nedmsim.weak_measurement.flip_kernel", refuse)
    p = flip_probability(st, 1e21)
    assert type(p) is float and _bits([p]) == _bits([expected])
    for xi in (np.array([1e21]), np.array(1e21), np.float64(1e21)):
        with pytest.raises(AssertionError, match="flip_kernel was called"):
            flip_probability(st, xi)


def test_dipole_state_validation():
    with pytest.raises(ValueError):
        DipoleState(0.0, -1e-20)
    with pytest.raises(ValueError):
        DipoleState(math.nan, 0.0)


@pytest.mark.parametrize("value", [True, "1e-21", None, math.nan],
                         ids=["bool", "str", "null", "nan"])
@pytest.mark.parametrize("field", ["d_n", "delta"])
def test_dipole_state_refuses_values_that_are_not_finite_numbers(field, value):
    # a bool was taken as 1 or 0, and a string or None raised TypeError
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        DipoleState(**{"d_n": 0.0, "delta": 0.0, field: value})

