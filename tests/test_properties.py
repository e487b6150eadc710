"""Property tests of the exact null and of worker-count independence."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nedmsim.ensemble import simulate_quantum, simulate_stochastic  # noqa: E402
from nedmsim.streams import BLOCK_TRIALS  # noqa: E402
from nedmsim.weak_measurement import DipoleState, flip_kernel  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@given(delta=finite, xi=finite)
def test_flip_kernel_exactly_zero_at_zero_dipole(delta, xi):
    # xi as an array, as every caller passes it; xi*delta may overflow to
    # inf, which the Gaussian factor turns into 0
    with np.errstate(over="ignore"):
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


@settings(max_examples=8)
@given(
    dn_xi=st.floats(0.0, 3.0),
    delta_xi=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**64 - 1),
    # at least two blocks, so that two workers do start
    trials=st.integers(min_value=BLOCK_TRIALS + 1, max_value=3 * BLOCK_TRIALS + 17),
)
def test_stochastic_count_independent_of_workers(dn_xi, delta_xi, seed, trials):
    xi = 1e21
    state = DipoleState(dn_xi / xi, delta_xi / xi)
    one = simulate_stochastic(state, xi, trials, seed, workers=1)
    two = simulate_stochastic(state, xi, trials, seed, workers=2)
    assert one.flips == two.flips
