"""Campaign simulation: ratio algebra, cycle tables, reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from nedmsim.comagnetometer import (
    CampaignConfig,
    CycleTable,
    campaign_estimator,
    extract_dn_pair,
    run_campaign,
)
from nedmsim.ensemble import _MAX_TRIALS
from nedmsim.formats import rows_to_cycles
from nedmsim.quantities import PhysicalConstants, UnitSystem

UNITS = UnitSystem()
CONSTANTS = PhysicalConstants()
KICK = UNITS.phase_per_edm_field_time * UNITS.geometric_factor


def cycle(table: CycleTable, i: int) -> tuple:
    """Cycle i of a table, its fields as Python numbers."""
    return tuple(column[i].item() for column in table)


def head(table: CycleTable, cycles: int) -> CycleTable:
    """The table's first cycles (a slice of the table itself takes fields)."""
    return CycleTable(*(column[:cycles] for column in table))


def assert_same_table(a: CycleTable, b: CycleTable) -> None:
    """Column by column: the same values (nan equal to nan) and dtypes."""
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y, strict=True)


def ratio(d_n: float, e_signed: float, f_hg: float, delta_r_sys: float = 0.0) -> float:
    """R(E) = |gamma_n|/|gamma_hg| + d_n E k g / (pi f_hg) + dR_sys, signed E."""
    return (abs(CONSTANTS.gamma_n) / abs(CONSTANTS.gamma_hg)
            + d_n * e_signed * KICK / (math.pi * f_hg) + delta_r_sys)


def test_extract_is_inverse_of_ratio():
    d, e, f_hg = 1e-20, 1e4, 7.59
    plus, minus = ratio(d, +e, f_hg, 1e-5), ratio(d, -e, f_hg, 1e-5)
    assert extract_dn_pair(plus, minus, e, f_hg, UNITS) == pytest.approx(d, rel=1e-12)


def test_extract_zero_and_linearity():
    assert extract_dn_pair(3.84, 3.84, 1e4, 7.59, UNITS) == 0.0
    base = extract_dn_pair(3.84 + 1e-6, 3.84 - 1e-6, 1e4, 7.59, UNITS)
    double = extract_dn_pair(3.84 + 2e-6, 3.84 - 2e-6, 1e4, 7.59, UNITS)
    assert double == pytest.approx(2.0 * base, rel=1e-9)


def _noiseless_config(**overrides) -> CampaignConfig:
    defaults = dict(
        true_dn=5e-21,
        cycles=4,
        counting_mode="expected",
        seed=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_cycle_zero_phase_puts_every_neutron_up():
    # b = 0 and dn = 0 give phi = 0; the clock frequency degenerates to 0
    config = CampaignConfig(true_dn=0.0, b_nominal=0.0, cycles=2, seed=0)
    table = run_campaign(config)
    assert table.index.size == 2
    assert np.all(table.n_up == config.neutrons_per_cycle)
    assert np.all(table.n_down == 0)
    assert np.all(table.f_n == 0.0)
    assert np.all(np.isnan(table.r))


def test_cycle_noiseless_ratio_matches_formula():
    config = _noiseless_config()
    table = run_campaign(config)
    f_hg = abs(CONSTANTS.gamma_hg) * config.b_nominal / (2.0 * math.pi)
    for i, sign in enumerate((+1, -1)):
        _, polarity, _, _, f_n, rec_f_hg, r = cycle(table, i)
        assert polarity == sign
        assert rec_f_hg == pytest.approx(f_hg, rel=1e-15)
        assert r == pytest.approx(ratio(config.true_dn, sign * config.e_magnitude, f_hg),
                                  rel=1e-12)
        assert r == pytest.approx(f_n / rec_f_hg, rel=1e-12)


def test_ratio_r_polarity_difference():
    # R(+E) - R(-E) of a campaign's own cycles, the difference the estimator inverts
    config = _noiseless_config()
    table = run_campaign(config)
    f_hg = abs(CONSTANTS.gamma_hg) * config.b_nominal / (2.0 * math.pi)
    difference = 2.0 * config.true_dn * config.e_magnitude * KICK / (math.pi * f_hg)
    assert table.polarity[0] == +1 and table.polarity[1] == -1
    assert table.r[0] - table.r[1] == pytest.approx(difference, rel=1e-11)


def test_cycle_determinism():
    config = CampaignConfig(true_dn=0.0, cycles=4, seed=42)
    a = run_campaign(config)
    b = run_campaign(config)
    assert a.polarity[3] == -1
    assert cycle(a, 3) == cycle(b, 3)


def test_campaign_length_and_polarity_pattern():
    config = CampaignConfig(cycles=6, seed=0)
    table = run_campaign(config)
    assert [column.shape for column in table] == [(6,)] * 7
    assert table.polarity.tolist() == [1, -1, 1, -1, 1, -1]
    assert table.index.tolist() == list(range(6))


def test_campaign_prefix_preservation():
    # doubling the cycle count with a fixed seed extends, not reshuffles
    short = run_campaign(CampaignConfig(cycles=8, seed=11))
    long = run_campaign(CampaignConfig(cycles=16, seed=11))
    assert_same_table(head(long, 8), short)


def test_noiseless_pair_extraction_recovers_dipole():
    config = _noiseless_config(cycles=6)
    table = run_campaign(config)
    assert table.r.size == 6
    for plus, minus in zip(range(0, 6, 2), range(1, 6, 2)):
        est = extract_dn_pair(
            table.r[plus], table.r[minus], config.e_magnitude,
            0.5 * (table.f_hg[plus] + table.f_hg[minus]), UNITS
        )
        assert est == pytest.approx(config.true_dn, rel=1e-10)


def test_noiseless_round_trip_with_reduced_visibility():
    config = _noiseless_config(cycles=4, visibility=0.7)
    est = campaign_estimator(run_campaign(config), config)
    assert est.dn_hat == pytest.approx(config.true_dn, rel=1e-10)


def test_reported_se_matches_counting_scatter():
    # delta-method SE against the seed-to-seed spread, counting noise only
    estimates, errors = [], []
    for seed in range(120):
        config = CampaignConfig(true_dn=0.0, cycles=60, seed=seed, visibility=0.8)
        est = campaign_estimator(run_campaign(config), config)
        estimates.append(est.dn_hat)
        errors.append(est.standard_error)
    empirical = float(np.std(estimates, ddof=1))
    reported = float(np.mean(errors))
    assert empirical / reported == pytest.approx(1.0, abs=0.2)


def test_estimator_statistics_mean_and_scaling():
    # true_dn = 0, counting noise only: mean compatible with zero and the
    # seed-to-seed scatter shrinks as 1/sqrt(cycles)
    seeds = range(200)
    estimates_small, estimates_large = [], []
    for seed in seeds:
        for cycles, sink in ((10, estimates_small), (1000, estimates_large)):
            config = CampaignConfig(true_dn=0.0, cycles=cycles, seed=seed)
            est = campaign_estimator(run_campaign(config), config)
            sink.append(est.dn_hat)
    small = np.asarray(estimates_small)
    large = np.asarray(estimates_large)
    for sample in (small, large):
        se_mean = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean()) < 4.0 * se_mean
    ratio = small.std(ddof=1) / large.std(ddof=1)
    assert 7.5 <= ratio <= 12.5  # factor 10 within 25%


def test_common_mode_field_shift_cancels_exactly_noiseless():
    config_a = _noiseless_config(cycles=4)
    config_b = _noiseless_config(cycles=4, b_nominal=1.5e-6)
    est_a = campaign_estimator(run_campaign(config_a), config_a)
    est_b = campaign_estimator(run_campaign(config_b), config_b)
    assert est_a.dn_hat == pytest.approx(config_a.true_dn, rel=1e-10)
    assert est_b.dn_hat == pytest.approx(est_a.dn_hat, rel=1e-9)


def test_common_mode_field_shift_within_statistics():
    # shift B by an integer number of fringes so the working point is kept;
    # independent seeds make this a genuine statistical comparison
    config_a = CampaignConfig(true_dn=0.0, cycles=400, seed=5)
    shift = 100.0 * math.pi / (CONSTANTS.mu_n * config_a.free_time)
    config_b = CampaignConfig(
        true_dn=0.0, cycles=400, seed=1005, b_nominal=config_a.b_nominal + shift
    )
    est_a = campaign_estimator(run_campaign(config_a), config_a)
    est_b = campaign_estimator(run_campaign(config_b), config_b)
    combined = math.hypot(est_a.standard_error, est_b.standard_error)
    assert abs(est_a.dn_hat - est_b.dn_hat) < 5.0 * combined


def test_poisson_mode_runs_and_fluctuates_totals():
    config = CampaignConfig(cycles=20, seed=2, counting_mode="poisson")
    table = run_campaign(config)
    totals = set((table.n_up + table.n_down).tolist())
    assert len(totals) > 1  # the total itself fluctuates


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(cycles=3)
    with pytest.raises(ValueError):
        CampaignConfig(cycles=0)
    with pytest.raises(ValueError):
        CampaignConfig(counting_mode="exact")
    with pytest.raises(ValueError):
        CampaignConfig(e_magnitude=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(visibility=2.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("cycles", 4.0),
        ("cycles", True),
        ("neutrons_per_cycle", 10_000.5),
        ("neutrons_per_cycle", True),
        ("neutrons_per_cycle", np.int64(100)),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_config_refuses_counts_that_are_not_ints(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        CampaignConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("b_nominal", True),
        ("visibility", True),
        ("true_dn", False),
        ("b_nominal", "1e-6"),
        ("free_time", None),
        ("e_magnitude", 10**400),
        ("b_drift_sd", math.nan),
        ("delta_r_sys", -math.inf),
    ],
)
def test_config_refuses_reals_that_are_not_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        CampaignConfig(**{field: value})


def test_config_accepts_ints_and_numpy_reals():
    config = CampaignConfig(b_nominal=1, e_magnitude=10_000, free_time=np.float64(105.0),
                            visibility=np.int64(1))
    assert (config.b_nominal, config.e_magnitude, config.visibility) == (1, 10_000, 1)


def test_config_cycles_stop_at_the_substream_index_limit():
    assert CampaignConfig(cycles=1 << 48).cycles == 1 << 48
    for cycles in ((1 << 48) + 2, 1 << 50):
        with pytest.raises(ValueError, match="cycles"):
            CampaignConfig(cycles=cycles)


def test_config_neutrons_stop_at_the_int64_limit():
    # the count draws take an int64, as contrast's trials do
    assert CampaignConfig(neutrons_per_cycle=_MAX_TRIALS).neutrons_per_cycle == 2**63 - 1
    with pytest.raises(ValueError, match=r"neutrons_per_cycle must lie in \[1, 2\*\*63 - 1\]"):
        CampaignConfig(neutrons_per_cycle=_MAX_TRIALS + 1)


def test_config_poisson_neutrons_stop_at_numpy_poisson_limit():
    # numpy refuses a Poisson mean whose double exceeds 2**63 - 1 - 10 sqrt(2**63 - 1);
    # the largest int that rounds down to that double is accepted
    largest = 9223372006484771328
    for n in (largest, largest + 1):
        CampaignConfig(neutrons_per_cycle=n, counting_mode="binomial")
    CampaignConfig(neutrons_per_cycle=largest, counting_mode="poisson")
    with pytest.raises(ValueError, match="neutrons_per_cycle must be <= .* in poisson mode"):
        CampaignConfig(neutrons_per_cycle=largest + 1, counting_mode="poisson")


@pytest.mark.parametrize("seed", range(4))
def test_overflowing_field_is_refused_by_the_phase_check(seed):
    # the drift overflows the field to inf at some seeds, and at the others
    # the finite field overflows the phase; cos(inf) would raise a bare
    # "math domain error"
    config = CampaignConfig(b_nominal=1.7e308, b_drift_sd=1e308, cycles=2, seed=seed)
    with pytest.raises(ValueError, match="b_nominal and b_drift_sd"):
        run_campaign(config)


@pytest.mark.parametrize("b_nominal", [1e140, 1e150, 1e290])
def test_estimator_keeps_pairs_whose_clock_squares_overflow(b_nominal):
    # f_hg is about 7.6e156 Hz at 1e150 T, so f_hg^2 and the pair slope's
    # square overflow; the pairs are unsaturated and all kept, with the
    # standard error of the same campaign at 1 uT up to rounding. The
    # warning filter fails the test on any numpy overflow warning
    config = CampaignConfig(b_nominal=b_nominal, visibility=1.0, cycles=4096, seed=2)
    reference = CampaignConfig(b_nominal=1e-6, visibility=1.0, cycles=4096, seed=2)
    estimate = campaign_estimator(run_campaign(config), config)
    assert estimate.n_pairs == 2048 and not estimate.degenerate
    assert estimate.standard_error == pytest.approx(
        campaign_estimator(run_campaign(reference), reference).standard_error, rel=1e-12
    )


def test_estimator_keeps_pairs_of_a_huge_free_time():
    # each pair's ratio variance, with its 1/(2 pi t)^2, underflowed to 0
    # here, and the campaign was refused as having no usable pairs
    config = CampaignConfig(b_nominal=4e-160, free_time=1e151, cycles=8, seed=2)
    estimate = campaign_estimator(run_campaign(config), config)
    assert estimate.n_pairs == 4
    assert 0.0 < estimate.standard_error < math.inf


@pytest.mark.parametrize("mode", ["binomial", "poisson", "expected"])
def test_delta_r_sys_offsets_every_ratio_and_cancels_in_the_estimate(mode):
    base = CampaignConfig(true_dn=3e-22, b_drift_sd=1e-12, f_hg_noise_sd=1e-8,
                          cycles=400, seed=20_261_018, counting_mode=mode)
    shifted = dataclasses.replace(base, delta_r_sys=0.001)
    table, moved = run_campaign(base), run_campaign(shifted)
    assert_same_table(moved._replace(r=table.r), table)
    assert table.r.size == 400
    for r, offset in zip(table.r.tolist(), moved.r.tolist()):
        assert abs(offset - r - 0.001) <= math.ulp(offset)
    estimate = campaign_estimator(table, base)
    offset_estimate = campaign_estimator(moved, shifted)
    # each ratio lies below 4, so the offset's rounding moves a pair's
    # difference by at most two ulps of 4
    rounding = extract_dn_pair(2.0 * math.ulp(4.0), 0.0, base.e_magnitude,
                               max(table.f_hg.tolist()), UNITS)
    assert abs(offset_estimate.dn_hat - estimate.dn_hat) <= rounding
    assert offset_estimate.standard_error == estimate.standard_error
    assert offset_estimate.n_pairs == estimate.n_pairs


def test_cycle_table_validation():
    # a cycle file may hold a polarity of 0 or a negative count; a campaign cannot
    for polarity in (0, 0.5, 2**64, "+"):
        with pytest.raises(ValueError, match="polarity must be"):
            rows_to_cycles([[0, polarity, 10, 10, 1.0, 1.0, 1.0], [1, -1, 10, 10, 1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="counts must be"):
        rows_to_cycles([[0, 1, -1, 10, 1.0, 1.0, 1.0], [1, -1, 10, 10, 1.0, 1.0, 1.0]])
    config = CampaignConfig(cycles=4, seed=0)
    table = run_campaign(config)
    polarity = table.polarity.copy()
    polarity[2] = 0
    with pytest.raises(ValueError, match="polarity must be"):
        campaign_estimator(table._replace(polarity=polarity), config)
