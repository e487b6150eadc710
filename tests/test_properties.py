"""Property tests of the exact null."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nedmsim.ensemble import simulate_quantum  # noqa: E402
from nedmsim.weak_measurement import DipoleState, flip_kernel  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


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
