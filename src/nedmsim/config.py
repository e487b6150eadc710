"""Typed INI configuration for campaigns, units, constants, inference.

Flat key-value sections, one per config type: each key is a field of the
section's type, named by the field's ``ini`` metadata where that differs
from the field's name, and parsed as the field's annotation says. Every
physical quantity carries its unit in the key name (``e_field_v_per_cm``,
``free_time_s``, ...) so a config file cannot be misread in the wrong
unit silently. Unknown sections or keys and unparseable values are
reported together as a :class:`ConfigError` listing the offending
``section.key`` entries; then each section's type checks its values.

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
from dataclasses import dataclass, field, fields

from .comagnetometer import CampaignConfig
from .inference import CL_DEFAULT, GRID_POINTS_DEFAULT, RESOLUTION_DEFAULT
from .quantities import PhysicalConstants, UnitSystem, check_fields

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
    five envelope widths in ``fit`` and one in ``bound``). A field's
    ``ini`` metadata is its key in a config file's ``[inference]`` section.
    """

    dn_max: float | None = field(default=None, metadata={"ini": "dn_max_e_cm"})
    delta_max: float | None = field(default=None, metadata={"ini": "delta_max_e_cm"})
    dn_min: float = field(default=0.0, metadata={"ini": "dn_min_e_cm"})
    delta_min: float = field(default=0.0, metadata={"ini": "delta_min_e_cm"})
    grid_points: int = GRID_POINTS_DEFAULT
    resolution: float = RESOLUTION_DEFAULT
    cl: float = CL_DEFAULT

    def __post_init__(self) -> None:
        # a nan here would reach fit's and bound's checks, which name the flag
        check_fields(self)


@dataclass(frozen=True)
class ResolvedConfig:
    campaign: CampaignConfig
    units: UnitSystem
    constants: PhysicalConstants
    inference: InferenceSettings


_SECTION_TYPES = {
    "campaign": CampaignConfig,
    "units": UnitSystem,
    "constants": PhysicalConstants,
    "inference": InferenceSettings,
}

# the parser of each field annotation's text; an int is read in base 10 only
_PARSERS = {"float": float, "float | None": float, "int": lambda text: int(text, 10), "str": str}

# section -> key -> (parser, field name); a field's key is its name unless
# its metadata names another
_KEYS = {
    section: {f.metadata.get("ini", f.name): (_PARSERS[f.type], f.name) for f in fields(cls)}
    for section, cls in _SECTION_TYPES.items()
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
    kwargs: dict[str, dict] = {name: {} for name in _KEYS}

    for section in parser.sections():
        if section not in _KEYS:
            offending.append(f"{section} (unknown section)")
            continue
        keys = _KEYS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                offending.append(f"{section}.{key} (unknown key)")
                continue
            parse, target = keys[key]
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
    return ResolvedConfig(**built)


def load_config(path: str) -> ResolvedConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
