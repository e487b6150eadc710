"""Property tests of the exact null, of shape independence and of the cycle format."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nedmsim.comagnetometer import (  # noqa: E402
    CAMPAIGN_BLOCK,
    COUNTING_MODES,
    CampaignConfig,
    campaign_estimator,
    run_campaign,
)
from nedmsim.ensemble import simulate_quantum  # noqa: E402
from nedmsim.formats import (  # noqa: E402
    CYCLES_HEADER,
    FLIPS_HEADER,
    column_rows,
    cycles_to_rows,
    parse_csv,
    render_csv,
    rows_to_cycles,
)
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
    xi, trials, fractions = zip(*points)
    return FlipDataset(xi, trials, [round(n * f) for n, f in zip(trials, fractions)])


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


def assert_same_text(a: str, b: str) -> None:
    """a == b, reporting the first line that differs: pytest's own diff of
    two texts of thousands of lines takes minutes."""
    if a != b:
        pairs = itertools.zip_longest(a.splitlines(True), b.splitlines(True))
        line, (x, y) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {line}: {x!r} != {y!r}")


@st.composite
def campaigns(draw, mode: str, cycles: int) -> CampaignConfig:
    # few neutrons leave some poisson cycles without counts (f_n and R nan),
    # and a zero field leaves the clock at 0 (R nan)
    return CampaignConfig(
        true_dn=draw(st.floats(-1e-20, 1e-20)),
        b_nominal=draw(st.sampled_from([0.0, 1e-6])) + draw(st.floats(0.0, 1e-6)),
        b_drift_sd=draw(st.floats(0.0, 1e-9)),
        neutrons_per_cycle=draw(st.integers(1, 2**62)),
        visibility=draw(st.floats(0.0, 1.0)),
        delta_r_sys=draw(st.floats(-1.0, 1.0)),
        f_hg_noise_sd=draw(st.floats(0.0, 1e-6)),
        seed=draw(st.integers(0, 2**63)),
        cycles=cycles,
        counting_mode=mode,
    )


@pytest.mark.parametrize("cycles", [2, CAMPAIGN_BLOCK, CAMPAIGN_BLOCK + 2])
@pytest.mark.parametrize("mode", COUNTING_MODES)
# a 4098-cycle text takes tens of ms each way, so a failing example is
# reported as drawn, not shrunk
@settings(max_examples=4, phases=[Phase.generate])
@given(data=st.data())
def test_cycle_csv_round_trips_byte_for_byte(mode, cycles, data):
    table = run_campaign(data.draw(campaigns(mode, cycles)))
    text = render_csv(CYCLES_HEADER, cycles_to_rows(table))
    parsed = rows_to_cycles(parse_csv(text, CYCLES_HEADER))
    assert_same_text(render_csv(CYCLES_HEADER, cycles_to_rows(parsed)), text)
    assert [column.dtype for column in parsed] == [column.dtype for column in table]


@given(
    cycle=st.integers(0, 3),
    polarity=st.integers(-2**63, 2**63 - 1).filter(lambda p: abs(p) != 1),
    count=st.one_of(st.integers(-2**63, -1), st.floats(max_value=-1e-300)),
    field=st.sampled_from(["n_up", "n_down"]),
    wide=st.one_of(st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1)),
    wide_field=st.sampled_from(["index", "n_up", "n_down"]),
)
def test_a_bad_polarity_or_count_is_refused(cycle, polarity, count, field, wide, wide_field):
    # from a file by rows_to_cycles, and a bad polarity by the estimator too;
    # an index or count beyond int64 is refused, not read as uint64 or object
    config = CampaignConfig(cycles=4, seed=0)
    table = run_campaign(config)
    rows = [list(row) for row in cycles_to_rows(table)]
    rows[cycle][1] = polarity
    with pytest.raises(ValueError, match="polarity must be"):
        rows_to_cycles(rows)
    column = table.polarity.copy()
    column[cycle] = polarity
    with pytest.raises(ValueError, match="polarity must be"):
        campaign_estimator(table._replace(polarity=column), config)
    rows = [list(row) for row in cycles_to_rows(table)]
    rows[cycle][CYCLES_HEADER.index(field)] = count
    with pytest.raises(ValueError, match="counts must be"):
        rows_to_cycles(rows)
    rows = [list(row) for row in cycles_to_rows(table)]
    rows[cycle][CYCLES_HEADER.index(wide_field)] = wide
    # the message quotes the cell as written, not its rounded double
    message = f"^{wide_field} must be integers in the int64 range, got {wide}$"
    with pytest.raises(ValueError, match=message):
        rows_to_cycles(rows)


# xi of both signs, subnormals and zeros drawn apart so each run has some
xis = st.one_of(finite, st.floats(min_value=-2.0**-1022, max_value=2.0**-1022))


@st.composite
def flip_rows(draw) -> list:
    trials = draw(st.integers(1, 2**63 - 1))
    return [draw(xis), trials, draw(st.integers(0, trials))]


@given(rows=st.lists(flip_rows(), min_size=1, max_size=20))
def test_flip_csv_round_trips_byte_for_byte(rows):
    text = render_csv(FLIPS_HEADER, rows)
    dataset = FlipDataset(*zip(*parse_csv(text, FLIPS_HEADER)))
    columns = (dataset.xi, dataset.trials, dataset.flips)
    assert render_csv(FLIPS_HEADER, column_rows(columns)) == text
