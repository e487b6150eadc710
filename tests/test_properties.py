"""Property tests of the exact null and of shape independence."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nedmsim.ensemble import simulate_quantum  # noqa: E402
from nedmsim.inference import FlipDataset, log_likelihood  # noqa: E402
from nedmsim.weak_measurement import DipoleState, flip_kernel, flip_probability  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
# magnitudes up to 1e75: no phase and no (xi delta)^2 of two of them overflows
moderate = st.floats(min_value=-1e75, max_value=1e75)
moderate_spread = st.floats(min_value=0.0, max_value=1e75)


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@st.composite
def datasets(draw):
    points = draw(st.lists(
        st.tuples(moderate, st.integers(1, 10**12), st.floats(0.0, 1.0)), min_size=1, max_size=40
    ))
    return FlipDataset.from_points([(xi, n, round(n * f)) for xi, n, f in points])


@given(delta=finite, xi=finite)
def test_flip_kernel_exactly_zero_at_zero_dipole(delta, xi):
    # as Python floats and as an array; xi*delta may overflow to inf,
    # which the Gaussian factor turns into 0
    with np.errstate(over="ignore"):
        assert flip_kernel(0.0, delta, xi) == 0.0
        assert flip_kernel(0.0, delta, np.asarray(xi)) == 0.0


@given(
    delta=nonnegative,
    xi=finite,
    seed=st.integers(),
    trials=st.integers(min_value=1, max_value=10**18),
)
def test_quantum_exactly_zero_flips_at_zero_dipole(delta, xi, seed, trials):
    with np.errstate(over="ignore"):
        run = simulate_quantum(DipoleState(0.0, delta), xi, trials, seed, workers=2)
    assert run.flips == 0


@given(d_n=moderate, delta=moderate_spread, xis=st.lists(moderate, min_size=1, max_size=60))
def test_flip_probability_of_array_equals_float_calls(d_n, delta, xis):
    state = DipoleState(d_n, delta)
    assert _bits(flip_probability(state, np.array(xis))) == _bits(
        [flip_probability(state, x) for x in xis]
    )


@given(
    dataset=datasets(),
    dns=st.lists(moderate, min_size=1, max_size=6),
    deltas=st.lists(moderate_spread, min_size=1, max_size=6),
)
def test_log_likelihood_on_grid_equals_float_calls(dataset, dns, deltas):
    grid = log_likelihood(np.array(dns)[:, None], np.array(deltas)[None, :], dataset)
    assert grid.shape == (len(dns), len(deltas))
    assert _bits(grid) == _bits([[log_likelihood(d, e, dataset) for e in deltas] for d in dns])
