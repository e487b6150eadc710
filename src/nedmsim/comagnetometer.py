"""Bound-setting campaign: Ramsey cycles, polarity alternation, Hg clock.

Per cycle the simulator draws the magnetic field (nominal plus white
drift), accumulates the Ramsey phase, converts it to spin-up/spin-down
counts, and then runs the same analysis chain a counting experiment
would: measured asymmetry -> phase -> neutron frequency -> ratio

    R = f_n / f_hg  ~  |gamma_n|/|gamma_hg| + d_n E k g / (pi f_hg) + dR_sys

The fringe order (number of completed turns) is taken as known from the
nominal field, as it is in practice; only the fractional phase is read
back from the counts, so counting noise propagates into R exactly the way
it propagates in the analysis. The mercury frequency is generated from
the same per-cycle field, which is what cancels common-mode field changes
in the polarity difference

    R(+E) - R(-E) = 2 d_n E k g / (pi f_hg).

Counting modes: ``binomial`` (default) draws N_up at fixed total,
``poisson`` fluctuates the total first, ``expected`` pushes exact
real-valued populations through the chain (no counting noise), which
makes a noise-free campaign reproduce its configured dipole exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantities import PhysicalConstants, UnitSystem, _finite_real
from .spin_dynamics import _phase, asymmetry, up_probability
from .streams import _MAX_INDEX, DOMAIN_CYCLE, substreams

__all__ = [
    "COUNTING_MODES",
    "CampaignConfig",
    "CycleRecord",
    "ratio_r",
    "extract_dn_pair",
    "simulate_cycle",
    "run_campaign",
]

COUNTING_MODES = ("binomial", "poisson", "expected")

_TWO_PI = 2.0 * math.pi

_REAL_FIELDS = (
    "true_dn",
    "b_nominal",
    "b_drift_sd",
    "e_magnitude",
    "free_time",
    "visibility",
    "delta_r_sys",
    "f_hg_noise_sd",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a polarity-alternating measurement campaign.

    Units: dipole in e·cm, fields in tesla (magnetic) and V/cm (electric),
    time in s. ``b_drift_sd`` is the white per-cycle field scatter,
    ``f_hg_noise_sd`` the relative scatter of the clock frequency, and
    ``delta_r_sys`` a constant additive offset on R. ``cycles``,
    ``neutrons_per_cycle`` and ``seed`` must be ``int`` (not ``bool``), and
    ``cycles`` at most 2**48, one substream index per cycle. The other
    numeric fields must be finite real numbers: an int or a float, not a
    ``bool`` or a string; the error names the field. Defaults put the
    nominal working point near mid-fringe, where the phase readout is
    most sensitive.
    """

    true_dn: float = 0.0
    b_nominal: float = 1e-6
    b_drift_sd: float = 0.0
    e_magnitude: float = 1e4
    free_time: float = 105.0
    neutrons_per_cycle: int = 10_000
    cycles: int = 100
    visibility: float = 1.0
    delta_r_sys: float = 0.0
    f_hg_noise_sd: float = 0.0
    seed: int = 0
    counting_mode: str = "binomial"

    def __post_init__(self) -> None:
        for name in ("cycles", "neutrons_per_cycle", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 2 <= self.cycles <= _MAX_INDEX or self.cycles % 2 != 0:
            raise ValueError("cycles must be an even number in [2, 2**48]")
        if self.neutrons_per_cycle < 1:
            raise ValueError("neutrons_per_cycle must be >= 1")
        if self.e_magnitude <= 0:
            raise ValueError("e_magnitude must be > 0")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.b_drift_sd < 0 or self.f_hg_noise_sd < 0:
            raise ValueError("noise standard deviations must be >= 0")
        if self.free_time <= 0:
            raise ValueError("free_time must be > 0")
        if self.counting_mode not in COUNTING_MODES:
            raise ValueError(
                f"counting_mode must be one of {COUNTING_MODES}, "
                f"got {self.counting_mode!r}"
            )


@dataclass(frozen=True)
class CycleRecord:
    """One comagnetometer cycle: counts, frequencies, and their ratio.

    Counts are ints in sampling modes and floats in ``expected`` mode.
    ``r`` always equals ``f_n / f_hg`` as computed.
    """

    index: int
    polarity: int
    n_up: float
    n_down: float
    f_n: float
    f_hg: float
    r: float

    def __post_init__(self) -> None:
        if self.polarity not in (-1, 1):
            raise ValueError("polarity must be +1 or -1")
        if self.n_up < 0 or self.n_down < 0:
            raise ValueError("counts must be >= 0")


def ratio_r(
    constants: PhysicalConstants,
    d_n: float,
    e_signed: float,
    f_hg: float,
    delta_r_sys: float,
    units: UnitSystem,
) -> float:
    """Frequency ratio R for a signed electric field.

    R = |gamma_n|/|gamma_hg| + d_n * k * g * E_signed / (pi * f_hg)
    + delta_r_sys. The dipole term flips with the field polarity; the
    additive systematic does not, so it cancels in polarity differences.
    """
    if not f_hg > 0:
        raise ValueError("f_hg must be > 0")
    return (
        abs(constants.gamma_n) / abs(constants.gamma_hg)
        + d_n * units.kick * e_signed / (math.pi * f_hg)
        + delta_r_sys
    )


def extract_dn_pair(
    r_plus: float,
    r_minus: float,
    e_magnitude: float,
    f_hg: float,
    units: UnitSystem,
) -> float:
    """Dipole estimate from one polarity pair of ratios.

    d_n = pi * f_hg * (R_plus - R_minus) / (2 * E * k * g); the exact
    algebraic inverse of :func:`ratio_r` pairs in the noiseless case.
    """
    if not e_magnitude > 0:
        raise ValueError("e_magnitude must be > 0")
    if not f_hg > 0:
        raise ValueError("f_hg must be > 0")
    return math.pi * f_hg * (r_plus - r_minus) / (2.0 * e_magnitude * units.kick)


def _measured_phase(phi_true: float, a_measured: float, visibility: float) -> float:
    """Phase read back from a measured asymmetry.

    The fringe order and branch come from the true phase (the apparatus
    knows which fringe it sits on from the nominal field); the fractional
    position within the fringe comes from the counts.
    """
    turns = math.floor(phi_true / _TWO_PI)
    residual = phi_true - _TWO_PI * turns
    cos_hat = a_measured / visibility if visibility > 0 else 1.0
    cos_hat = min(1.0, max(-1.0, cos_hat))
    residual_hat = math.acos(cos_hat)
    if residual > math.pi:
        residual_hat = _TWO_PI - residual_hat
    return _TWO_PI * turns + residual_hat


def simulate_cycle(
    config: CampaignConfig,
    cycle_index: int,
    polarity: int,
    rng: np.random.Generator,
    constants: PhysicalConstants = PhysicalConstants(),
    units: UnitSystem = UnitSystem(),
) -> CycleRecord:
    """Simulate one cycle at the given field polarity.

    Draw order within the cycle is fixed (field drift, counts, clock
    noise), so a record is fully determined by the substream passed in.
    A field or dipole term large enough to make the Ramsey phase non-finite
    raises ValueError.
    """
    if polarity not in (-1, 1):
        raise ValueError("polarity must be +1 or -1")

    b_cycle = config.b_nominal + rng.normal(0.0, config.b_drift_sd)
    e_field = polarity * config.e_magnitude
    phi = _phase(
        constants.mu_n, b_cycle, config.true_dn, e_field, config.free_time, units
    )
    if not math.isfinite(phi):
        raise ValueError(
            f"cycle {cycle_index}: the Ramsey phase is not finite; b_nominal "
            "and b_drift_sd (or true_dn and e_magnitude) are too large"
        )
    p_up = up_probability(phi, config.visibility)

    n = config.neutrons_per_cycle
    if config.counting_mode == "binomial":
        n_up: float = int(rng.binomial(n, p_up))
        n_down: float = n - n_up
    elif config.counting_mode == "poisson":
        total = int(rng.poisson(n))
        n_up = int(rng.binomial(total, p_up)) if total > 0 else 0
        n_down = total - n_up
    else:  # expected: exact populations, no counting noise
        n_up = n * p_up
        n_down = n - n_up

    total_counts = n_up + n_down
    if total_counts > 0:
        a_hat = asymmetry(n_up, n_down)
        phi_hat = _measured_phase(phi, a_hat, config.visibility)
        f_n = phi_hat / (_TWO_PI * config.free_time)
    else:
        f_n = math.nan

    f_hg = abs(constants.gamma_hg * b_cycle) / _TWO_PI
    f_hg *= 1.0 + rng.normal(0.0, config.f_hg_noise_sd)
    r = f_n / f_hg if f_hg != 0 else math.nan

    return CycleRecord(
        index=cycle_index,
        polarity=polarity,
        n_up=n_up,
        n_down=n_down,
        f_n=f_n,
        f_hg=f_hg,
        r=r,
    )


def run_campaign(
    config: CampaignConfig,
    constants: PhysicalConstants = PhysicalConstants(),
    units: UnitSystem = UnitSystem(),
) -> list[CycleRecord]:
    """Simulate a full campaign with polarity alternating +, -, +, -, ...

    Each cycle uses the (seed, cycle index) substream, so the record list
    is deterministic given the seed and a longer campaign with the same
    seed extends a shorter one without changing its cycles. The cycles share
    one generator, re-keyed in place onto each cycle's substream by
    :func:`~nedmsim.streams.substreams`, which draws what a new one would.
    """
    records = []
    for i, rng in enumerate(substreams(config.seed, DOMAIN_CYCLE, config.cycles)):
        polarity = 1 if i % 2 == 0 else -1
        records.append(
            simulate_cycle(config, i, polarity, rng, constants=constants, units=units)
        )
    return records
