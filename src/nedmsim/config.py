"""Typed INI configuration for campaigns, units, constants, inference.

Flat key-value sections; every physical quantity carries its unit in the
key name (``e_field_v_per_cm``, ``free_time_s``, ...) so a config file
cannot be misread in the wrong unit silently. Unknown sections or keys,
unparseable values, and contract violations are all reported together as
a :class:`ConfigError` listing the offending ``section.key`` entries.

Example::

    [campaign]
    true_dn_e_cm = 5e-21
    b_nominal_tesla = 1e-6
    e_field_v_per_cm = 1e4
    free_time_s = 105.0
    neutrons_per_cycle = 10000
    cycles = 100
    seed = 42
    counting_mode = binomial

    [units]
    geometric_factor = 0.5773502691896258
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass

from .comagnetometer import CampaignConfig
from .inference import CL_DEFAULT, GRID_POINTS_DEFAULT, RESOLUTION_DEFAULT
from .quantities import PhysicalConstants, UnitSystem, _require_finite

__all__ = [
    "ConfigError",
    "InferenceSettings",
    "ResolvedConfig",
    "load_config",
    "parse_config_text",
]


class ConfigError(ValueError):
    """Configuration rejected; ``offending_keys`` lists section.key names."""

    def __init__(self, message: str, offending_keys: list[str] | None = None):
        self.offending_keys = offending_keys or []
        if self.offending_keys:
            message = f"{message}: {', '.join(self.offending_keys)}"
        super().__init__(message)


@dataclass(frozen=True)
class InferenceSettings:
    """Search box and confidence settings for the fit and bound commands.

    ``None`` ceilings mean "not configured": the commands then derive
    them from the dataset with :func:`nedmsim.inference.search_ceilings`
    (half a flip oscillation at the largest xi for the dipole; for delta,
    five envelope widths in ``fit`` and one in ``bound``).
    """

    dn_max_e_cm: float | None = None
    delta_max_e_cm: float | None = None
    dn_min_e_cm: float = 0.0
    delta_min_e_cm: float = 0.0
    grid_points: int = GRID_POINTS_DEFAULT
    resolution: float = RESOLUTION_DEFAULT
    cl: float = CL_DEFAULT

    def __post_init__(self) -> None:
        # a nan or inf here would reach the fit and bound checks, which name
        # the flag that overrides the key, not the key
        _require_finite(**{key: v for key, v in asdict(self).items() if v is not None})


@dataclass(frozen=True)
class ResolvedConfig:
    campaign: CampaignConfig
    units: UnitSystem
    constants: PhysicalConstants
    inference: InferenceSettings


def _parse_non_negative_float(text: str) -> float:
    v = float(text)
    if v < 0.0:
        raise ValueError("must be >= 0.0")
    return v


def _parse_int(text: str) -> int:
    return int(text, 10)


# section -> key -> (parser, dataclass field name)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "campaign": {
        "true_dn_e_cm": (float, "true_dn"),
        "b_nominal_tesla": (float, "b_nominal"),
        "b_drift_sd_tesla": (_parse_non_negative_float, "b_drift_sd"),
        "e_field_v_per_cm": (float, "e_magnitude"),
        "free_time_s": (float, "free_time"),
        "neutrons_per_cycle": (_parse_int, "neutrons_per_cycle"),
        "cycles": (_parse_int, "cycles"),
        "visibility": (float, "visibility"),
        "delta_r_sys": (float, "delta_r_sys"),
        "f_hg_noise_sd_rel": (_parse_non_negative_float, "f_hg_noise_sd"),
        "seed": (_parse_int, "seed"),
        "counting_mode": (str, "counting_mode"),
    },
    "units": {
        "phase_per_edm_field_time": (float, "phase_per_edm_field_time"),
        "geometric_factor": (float, "geometric_factor"),
    },
    "constants": {
        "gamma_n_rad_per_s_tesla": (float, "gamma_n"),
        "gamma_hg_rad_per_s_tesla": (float, "gamma_hg"),
        "mu_n_rad_per_s_tesla": (float, "mu_n"),
    },
    "inference": {
        "dn_max_e_cm": (float, "dn_max_e_cm"),
        "delta_max_e_cm": (float, "delta_max_e_cm"),
        "dn_min_e_cm": (float, "dn_min_e_cm"),
        "delta_min_e_cm": (float, "delta_min_e_cm"),
        "grid_points": (_parse_int, "grid_points"),
        "resolution": (float, "resolution"),
        "cl": (float, "cl"),
    },
}

_SECTION_TYPES = {
    "campaign": CampaignConfig,
    "units": UnitSystem,
    "constants": PhysicalConstants,
    "inference": InferenceSettings,
}


def parse_config_text(text: str) -> ResolvedConfig:
    """Parse INI text into validated configuration objects."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    offending: list[str] = []
    kwargs: dict[str, dict] = {name: {} for name in _SCHEMA}

    for section in parser.sections():
        if section not in _SCHEMA:
            offending.append(f"{section} (unknown section)")
            continue
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                offending.append(f"{section}.{key} (unknown key)")
                continue
            parse, target = schema[key]
            try:
                kwargs[section][target] = parse(raw)
            except ValueError as exc:
                offending.append(f"{section}.{key} ({exc})")
    if offending:
        raise ConfigError("invalid configuration", offending)

    built = {}
    for section, cls in _SECTION_TYPES.items():
        try:
            built[section] = cls(**kwargs[section])
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] section: {exc}") from exc
    return ResolvedConfig(
        campaign=built["campaign"],
        units=built["units"],
        constants=built["constants"],
        inference=built["inference"],
    )


def load_config(path: str) -> ResolvedConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
