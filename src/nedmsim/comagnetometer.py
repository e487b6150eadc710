"""Bound-setting campaign: Ramsey cycles, polarity alternation, Hg clock.

Per cycle the simulator draws the magnetic field (nominal plus white
drift), accumulates the Ramsey phase, converts it to spin-up/spin-down
counts, and then runs the same analysis chain a counting experiment
would (a block of cycles does each step as one array operation):
measured asymmetry -> phase -> neutron frequency -> ratio

    R = f_n / f_hg + dR_sys  ~  |gamma_n|/|gamma_hg| + d_n E k g / (pi f_hg) + dR_sys

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

A campaign is a :class:`CycleTable`, one array per column.
:func:`campaign_estimator` combines per-pair dipole estimates with
inverse-variance weights, propagating counting variance through asymmetry
-> phase (delta method) and weighing the pairs in phase units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensemble import _MAX_TRIALS
from .quantities import PhysicalConstants, UnitSystem, check_fields
from .spin_dynamics import _phase, asymmetry, up_probability
from .streams import _MAX_INDEX, DOMAIN_CYCLE, substream

__all__ = [
    "CAMPAIGN_BLOCK",
    "COUNTING_MODES",
    "CampaignConfig",
    "CampaignEstimate",
    "CycleTable",
    "extract_dn_pair",
    "run_campaign",
    "campaign_estimator",
]

COUNTING_MODES = ("binomial", "poisson", "expected")

# Cycles per block; the streams docstring gives the draw layout. A block's
# arrays take a few hundred kB, and its three generators (about 60 us) are
# a small share of its arithmetic. Changing it changes every campaign's bytes.
CAMPAIGN_BLOCK = 4096

_TWO_PI = 2.0 * math.pi

# numpy's Poisson sampler refuses a mean whose double exceeds this
_POISSON_MAX = _MAX_TRIALS - 10.0 * math.sqrt(_MAX_TRIALS)


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a polarity-alternating measurement campaign.

    Units: dipole in e·cm, fields in tesla (magnetic) and V/cm (electric),
    time in s. ``b_drift_sd`` is the white per-cycle field scatter,
    ``f_hg_noise_sd`` the relative scatter of the clock frequency, and
    ``delta_r_sys`` a constant additive offset on R. ``cycles``,
    ``neutrons_per_cycle`` and ``seed`` must be ``int`` (not ``bool``),
    ``cycles`` at most 2**48, the substream index limit, and
    ``neutrons_per_cycle`` at most 2**63 - 1, numpy's count limit, and in
    ``poisson`` mode at most 2**63 - 1 - 10*sqrt(2**63 - 1) as a double,
    numpy's Poisson limit. The other numeric fields must be finite real
    numbers: an int or a float, not a ``bool`` or a string; the error
    names the field. Defaults put the nominal working point near
    mid-fringe, where the phase readout is most sensitive. A field's
    ``ini`` metadata is its key in a config file's ``[campaign]`` section,
    where that differs from the field's name.
    """

    true_dn: float = field(default=0.0, metadata={"ini": "true_dn_e_cm"})
    b_nominal: float = field(default=1e-6, metadata={"ini": "b_nominal_tesla"})
    b_drift_sd: float = field(default=0.0, metadata={"ini": "b_drift_sd_tesla"})
    e_magnitude: float = field(default=1e4, metadata={"ini": "e_field_v_per_cm"})
    free_time: float = field(default=105.0, metadata={"ini": "free_time_s"})
    neutrons_per_cycle: int = 10_000
    cycles: int = 100
    visibility: float = 1.0
    delta_r_sys: float = 0.0
    f_hg_noise_sd: float = field(default=0.0, metadata={"ini": "f_hg_noise_sd_rel"})
    seed: int = 0
    counting_mode: str = "binomial"

    def __post_init__(self) -> None:
        check_fields(self)
        if not 2 <= self.cycles <= _MAX_INDEX or self.cycles % 2 != 0:
            raise ValueError("cycles must be an even number in [2, 2**48]")
        if not 1 <= self.neutrons_per_cycle <= _MAX_TRIALS:
            raise ValueError("neutrons_per_cycle must lie in [1, 2**63 - 1]")
        if self.counting_mode == "poisson" and float(self.neutrons_per_cycle) > _POISSON_MAX:
            raise ValueError(f"neutrons_per_cycle must be <= {_POISSON_MAX:.16g} in poisson mode")
        if self.e_magnitude <= 0:
            raise ValueError("e_magnitude must be > 0")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.b_drift_sd < 0:
            raise ValueError("b_drift_sd must be >= 0")
        if self.f_hg_noise_sd < 0:
            raise ValueError("f_hg_noise_sd must be >= 0")
        if self.free_time <= 0:
            raise ValueError("free_time must be > 0")
        if self.counting_mode not in COUNTING_MODES:
            raise ValueError(
                f"counting_mode must be one of {COUNTING_MODES}, "
                f"got {self.counting_mode!r}"
            )


class CycleTable(NamedTuple):
    """A campaign's cycles, one equal-length array per field: int64 index,
    polarity and sampling-mode counts; float64 ``expected``-mode counts,
    frequencies and ``r`` = ``f_n / f_hg + delta_r_sys``. ``len`` counts fields."""

    index: np.ndarray
    polarity: np.ndarray
    n_up: np.ndarray
    n_down: np.ndarray
    f_n: np.ndarray
    f_hg: np.ndarray
    r: np.ndarray


def extract_dn_pair(
    r_plus,
    r_minus,
    e_magnitude: float,
    f_hg,
    units: UnitSystem,
):
    """Dipole estimate from one polarity pair of ratios.

    d_n = pi * f_hg * (R_plus - R_minus) / (2 * E * k * g), which inverts
    R(+-E) = |gamma_n|/|gamma_hg| +- d_n E k g / (pi f_hg) + dR_sys exactly
    in the noiseless case.
    Elementwise for arrays of pairs; every ``f_hg`` must be > 0.
    """
    if not e_magnitude > 0:
        raise ValueError("e_magnitude must be > 0")
    if not np.all(f_hg > 0):
        raise ValueError("f_hg must be > 0")
    return math.pi * f_hg * (r_plus - r_minus) / (2.0 * e_magnitude * units.kick)


def _measured_phase(phi_true, a_measured, visibility: float):
    """Phase read back from a measured asymmetry, elementwise.

    The fringe order and branch come from the true phase (the apparatus
    knows which fringe it sits on from the nominal field); the fractional
    position within the fringe comes from the counts.
    """
    turns = np.floor(phi_true / _TWO_PI)
    residual = phi_true - _TWO_PI * turns
    cos_hat = np.clip(a_measured / visibility, -1.0, 1.0) if visibility > 0 else 1.0
    residual_hat = np.arccos(cos_hat)
    residual_hat = np.where(residual > math.pi, _TWO_PI - residual_hat, residual_hat)
    return _TWO_PI * turns + residual_hat


def _block(
    config: CampaignConfig, start: int, constants: PhysicalConstants, units: UnitSystem
) -> tuple[np.ndarray, ...]:
    """The block of cycles from ``start``, a multiple of :data:`CAMPAIGN_BLOCK`.

    Returns its columns in :class:`CycleTable`'s field order, with int64
    counts in the sampling modes. Like Python's float arithmetic, the block
    overflows to inf and makes nan without a warning; a non-finite phase is
    refused.
    """
    size = min(CAMPAIGN_BLOCK, config.cycles - start)
    stream = 3 * (start // CAMPAIGN_BLOCK)
    drift = substream(config.seed, DOMAIN_CYCLE, stream).normal(0.0, config.b_drift_sd, size)
    clock = substream(config.seed, DOMAIN_CYCLE, stream + 2).normal(
        0.0, config.f_hg_noise_sd, size
    )
    index = np.arange(start, start + size)
    polarity = 1 - 2 * (index % 2)  # +, -, +, -, ...
    with np.errstate(over="ignore", invalid="ignore"):
        b_cycle = config.b_nominal + drift
        phi = _phase(
            constants.mu_n,
            b_cycle,
            config.true_dn,
            polarity * float(config.e_magnitude),
            config.free_time,
            units,
        )
        bad = np.flatnonzero(~np.isfinite(phi))
        if bad.size:
            raise ValueError(
                f"cycle {start + int(bad[0])}: the Ramsey phase is not finite; "
                "b_nominal and b_drift_sd (or true_dn and e_magnitude) are too large"
            )
        p_up = up_probability(phi, config.visibility)

        n = config.neutrons_per_cycle
        if config.counting_mode == "expected":  # exact populations, no counting noise
            n_up = n * p_up
            n_down = n - n_up
        else:
            counts = substream(config.seed, DOMAIN_CYCLE, stream + 1)
            totals = n
            if config.counting_mode == "poisson":
                totals = counts.poisson(n, CAMPAIGN_BLOCK)[:size]
            n_up = counts.binomial(totals, p_up)
            n_down = totals - n_up

        counted = np.flatnonzero(n_up + n_down > 0)
        phi_hat = np.full(size, math.nan)
        phi_hat[counted] = _measured_phase(
            phi[counted], asymmetry(n_up[counted], n_down[counted]), config.visibility
        )
        f_n = phi_hat / (_TWO_PI * config.free_time)

        f_hg = abs(constants.gamma_hg * b_cycle) / _TWO_PI
        f_hg *= 1.0 + clock
        r = np.divide(f_n, f_hg, out=np.full(size, math.nan), where=f_hg != 0)
        r += config.delta_r_sys

    return index, polarity, n_up, n_down, f_n, f_hg, r


def run_campaign(
    config: CampaignConfig,
    constants: PhysicalConstants = PhysicalConstants(),
    units: UnitSystem = UnitSystem(),
) -> CycleTable:
    """Simulate a full campaign with polarity alternating +, -, +, -, ...

    Cycles run in blocks of :data:`CAMPAIGN_BLOCK`, each drawing its field
    drift, counts and clock noise as vectors, each from its own substream
    (the layout is in :mod:`nedmsim.streams`); all blocks are computed
    first, then concatenated. The table is deterministic given the seed,
    and a longer campaign with the same seed extends a shorter one without
    changing its cycles. A field or dipole term large enough to make a
    Ramsey phase non-finite raises ValueError.
    """
    starts = range(0, config.cycles, CAMPAIGN_BLOCK)
    blocks = [_block(config, start, constants, units) for start in starts]
    return CycleTable(*map(np.concatenate, zip(*blocks)))


@dataclass(frozen=True)
class CampaignEstimate:
    """Inverse-variance combination of per-pair dipole estimates."""

    dn_hat: float
    standard_error: float
    n_pairs: int
    degenerate: bool = False


def _phase_variance(n_up: np.ndarray, n_down: np.ndarray, visibility: float) -> np.ndarray:
    """Counting variance of each cycle's measured phase (delta method).

    Takes 1-d float arrays of the cycles' counts. Var(A) = (1 - A^2)/N from
    the binomial split is mapped through A = visibility * cos(phi) to the
    phase. Cycles without counts, and saturated cycles (|A| >= visibility),
    have no phase sensitivity and get infinite variance.
    """
    total = n_up + n_down
    variance = np.full(total.shape, math.inf)
    counted = np.flatnonzero(total > 0)
    a_hat = asymmetry(n_up[counted], n_down[counted])
    sensitive = np.abs(a_hat) < visibility  # none when visibility <= 0
    cycles, a_hat = counted[sensitive], a_hat[sensitive]
    var_a = (1.0 - a_hat * a_hat) / total[cycles]  # > 0, since |a_hat| < visibility <= 1
    variance[cycles] = var_a / (visibility * visibility * (1.0 - (a_hat / visibility) ** 2))
    return variance


def campaign_estimator(
    table: CycleTable,
    config: CampaignConfig,
    units: UnitSystem = UnitSystem(),
) -> CampaignEstimate:
    """Dipole estimate and standard error from a campaign's cycle table.

    Consecutive cycles form polarity pairs, each one +1 and one -1 cycle in
    either order; each pair yields ``extract_dn_pair`` evaluated with the
    pair's mean measured clock frequency f. That function is linear in
    R_plus - R_minus, and a cycle's R = phi_c / (2 pi t f_c), so the pair's
    variance is k^2 * sum_c Var(phi_c) * (f / f_c)^2 over its two cycles,
    where k = ``extract_dn_pair(1, 0, E, 1) / (2 pi t)`` is the dipole per
    unit phase. Pairs are weighed in phase units, by
    1 / sum_c Var(phi_c) * (f / f_c)^2, and k scales the standard error
    alone; one that is not positive and finite raises ValueError. A pair
    with a ratio that is not finite is skipped; all pairs are combined as
    arrays at once, counts as float64. In the ``expected`` counting mode
    there is no counting noise to propagate: the estimate is the plain
    mean and the zero standard error is flagged as degenerate.

    The reported standard error covers counting statistics only (it
    matches the seed-to-seed scatter to ~3% when counting noise is the
    only noise source); field-drift and clock-noise contributions are not
    part of the error model and widen the true scatter beyond it.
    """
    index, polarity, n_up, n_down, _, f_hg, r = table
    if polarity.size < 2:
        raise ValueError("at least one polarity pair is required")
    if polarity.size % 2 != 0:
        raise ValueError("lone polarity cycle: cycles must form +/- pairs")
    if np.any((polarity != 1) & (polarity != -1)):
        raise ValueError("polarity must be +1 or -1")
    shared = np.flatnonzero(polarity[0::2] == polarity[1::2])
    if shared.size:
        a, b = index[2 * shared[0] : 2 * shared[0] + 2]
        raise ValueError(f"cycles {a} and {b} share polarity {int(polarity[2 * shared[0]]):+d}")

    # each pair's plus and minus cycle
    plus = np.arange(0, polarity.size, 2) + (polarity[0::2] != 1)
    minus = plus ^ 1
    usable = np.isfinite(r[plus]) & np.isfinite(r[minus])
    plus, minus = plus[usable], minus[usable]
    if not plus.size:
        raise ValueError("no usable polarity pairs (all saturated or invalid)")

    f_hg_pair = 0.5 * (f_hg[plus] + f_hg[minus])
    estimates = extract_dn_pair(r[plus], r[minus], config.e_magnitude, f_hg_pair, units)

    if config.counting_mode == "expected":
        return CampaignEstimate(float(np.mean(estimates)), 0.0, estimates.size, degenerate=True)

    # each cycle's phase variance, times (f / f_c)^2 for its pair's mean clock f
    cycles = np.concatenate([plus, minus])
    clock = np.tile(f_hg_pair, 2) / f_hg[cycles]
    up, down = (np.asarray(n[cycles], float) for n in (n_up, n_down))
    variances = (_phase_variance(up, down, config.visibility)
                 * (clock * clock)).reshape(2, -1).sum(axis=0)
    weighted = np.isfinite(variances) & (variances > 0)
    if not np.any(weighted):
        raise ValueError("no usable polarity pairs (all saturated or invalid)")
    weights = np.zeros(variances.shape)
    weights[weighted] = 1.0 / variances[weighted]
    dn_hat = float(np.sum(weights * estimates) / np.sum(weights))
    # k, the dipole per unit phase; dividing by t last forms no product with t
    per_phase = extract_dn_pair(1.0, 0.0, config.e_magnitude, 1.0, units) / _TWO_PI
    se = per_phase / config.free_time * math.sqrt(1.0 / np.sum(weights))
    if not 0.0 < se < math.inf:
        raise ValueError(f"standard error {se!r} is not positive and finite: "
                         "e_magnitude or free_time is too small or too large")
    return CampaignEstimate(dn_hat, se, int(np.count_nonzero(weighted)))
