"""INI configuration parsing and validation."""

from dataclasses import asdict

import pytest

from nedmsim.config import ConfigError, parse_config_text

GOOD = """\
[campaign]
true_dn_e_cm = 5e-21
b_nominal_tesla = 1e-6
e_field_v_per_cm = 1e4
free_time_s = 105.0
neutrons_per_cycle = 10000
cycles = 8
visibility = 0.9
seed = 42
counting_mode = expected

[units]
geometric_factor = 0.5

[inference]
cl = 0.9
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.campaign.true_dn == 5e-21
    assert cfg.campaign.cycles == 8
    assert cfg.campaign.counting_mode == "expected"
    assert cfg.campaign.visibility == 0.9
    assert cfg.units.geometric_factor == 0.5
    assert cfg.inference.cl == 0.9
    # untouched sections fall back to defaults
    assert cfg.constants.mu_n == pytest.approx(abs(cfg.constants.gamma_n) / 2)


EVERY_KEY = """\
[campaign]
true_dn_e_cm = 3e-22
b_nominal_tesla = 2e-6
b_drift_sd_tesla = 1e-12
e_field_v_per_cm = 2e4
free_time_s = 100.0
neutrons_per_cycle = 20000
cycles = 10
visibility = 0.8
delta_r_sys = 1e-9
f_hg_noise_sd_rel = 1e-8
seed = 7
counting_mode = poisson

[units]
phase_per_edm_field_time = 1.5e15
geometric_factor = 0.5

[constants]
gamma_n_rad_per_s_tesla = -1.8e8
gamma_hg_rad_per_s_tesla = 4.8e7
mu_n_rad_per_s_tesla = 9e7

[inference]
dn_max_e_cm = 1e-20
delta_max_e_cm = 2e-20
dn_min_e_cm = 1e-22
delta_min_e_cm = 1e-23
grid_points = 9
resolution = 1e-3
cl = 0.9
"""


def test_every_key_lands_on_its_field():
    # each of the 24 keys set to a value that is not its default
    assert asdict(parse_config_text(EVERY_KEY)) == {
        "campaign": {
            "true_dn": 3e-22, "b_nominal": 2e-6, "b_drift_sd": 1e-12, "e_magnitude": 2e4,
            "free_time": 100.0, "neutrons_per_cycle": 20000, "cycles": 10, "visibility": 0.8,
            "delta_r_sys": 1e-9, "f_hg_noise_sd": 1e-8, "seed": 7, "counting_mode": "poisson",
        },
        "units": {"phase_per_edm_field_time": 1.5e15, "geometric_factor": 0.5},
        "constants": {"gamma_n": -1.8e8, "gamma_hg": 4.8e7, "mu_n": 9e7},
        "inference": {
            "dn_max": 1e-20, "delta_max": 2e-20, "dn_min": 1e-22,
            "delta_min": 1e-23, "grid_points": 9, "resolution": 1e-3, "cl": 0.9,
        },
    }


def test_campaign_reals_written_as_integers_parse_as_floats():
    # "10000" is a valid real field; it reaches CampaignConfig as a float
    cfg = parse_config_text("[campaign]\ne_field_v_per_cm = 10000\nfree_time_s = 105\n")
    assert type(cfg.campaign.e_magnitude) is float and cfg.campaign.e_magnitude == 1e4
    assert type(cfg.campaign.free_time) is float


def test_empty_config_is_all_defaults():
    cfg = parse_config_text("")
    assert cfg.campaign.cycles == 100
    assert cfg.units.geometric_factor == pytest.approx(0.5773502691896258)
    assert cfg.inference.dn_max is None


def test_unknown_key_listed():
    text = "[campaign]\ntrue_dn = 1e-21\ncycles = 4\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "campaign.true_dn" in str(err.value)
    assert str(err.value) == "invalid configuration: campaign.true_dn (unknown key)"


def test_unknown_section_listed():
    with pytest.raises(ConfigError, match="campain"):
        parse_config_text("[campain]\ncycles = 4\n")


def test_unknown_section_message():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[campain]\ncycles = 4\n")
    assert str(err.value) == "invalid configuration: campain (unknown section)"


def test_bad_value_listed():
    with pytest.raises(ConfigError, match="campaign.cycles"):
        parse_config_text("[campaign]\ncycles = four\n")


def test_negative_noise_sd_listed():
    # CampaignConfig refuses the first negative SD, so each is set alone
    for key, value, field in (("b_drift_sd_tesla", "-1e-12", "b_drift_sd"),
                              ("f_hg_noise_sd_rel", "-0.1", "f_hg_noise_sd")):
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"[campaign]\n{key} = {value}\n")
        assert str(err.value) == f"invalid [campaign] section: {field} must be >= 0"


def test_multiple_problems_reported_together():
    text = "[campaign]\ncycles = four\nbogus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == (
        "invalid configuration: campaign.cycles (invalid literal for int() with base 10: "
        "'four'), campaign.bogus (unknown key)"
    )


def test_contract_violation_reported():
    with pytest.raises(ConfigError, match="campaign"):
        parse_config_text("[campaign]\ncycles = 3\n")  # odd cycle count


def test_unparseable_ini():
    with pytest.raises(ConfigError, match="unparseable"):
        parse_config_text("not an ini file at all\n")


@pytest.mark.parametrize("key", ["dn_max_e_cm", "dn_min_e_cm", "resolution", "cl"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_inference_values_must_be_finite(key, value):
    # a nan resolution, cl or dn_min once reached fit and bound, whose
    # checks name the overriding flag (--resolution) rather than the key
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[inference]\n{key} = {value}\n")
    kind = "a finite number or null" if key == "dn_max_e_cm" else "a finite number"
    field = key.removesuffix("_e_cm")
    assert str(err.value) == f"invalid [inference] section: {field} must be {kind}, got {value}"
