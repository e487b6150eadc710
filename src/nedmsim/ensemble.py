"""Monte Carlo contrast between the quantum and stochastic flip models.

Two readings of an ensemble of neutrons with dipole uncertainty delta:

* quantum: every neutron flips with the single probability
  ``flip_probability(state, xi)``; with d_n = 0 that probability is
  exactly zero, so no trial ever flips, however large delta is.
* stochastic: each neutron is imagined to carry a definite dipole drawn
  from Normal(d_n, delta) and flips with probability sin(d*xi)^2; with
  d_n = 0 and delta > 0 a fraction (1 - exp(-2 xi^2 delta^2))/2 of the
  ensemble flips.

The two models are therefore separable by counting statistics alone.

In both models the trials are independent and share one probability of
flipping: P for the quantum reading, which carries no hidden value, and
for the stochastic reading the marginal E[sin^2(d xi)] =
:func:`expected_stochastic_fraction`, since each neutron draws its own
dipole independently of the others. A count is therefore exactly one
Binomial(trials, p) variate, drawn once from the (seed, DOMAIN_QUANTUM, 0)
or (seed, DOMAIN_STOCHASTIC, 0) substream by numpy's sampler (BTPE,
Kachitvichyanukul & Schmeiser, Commun. ACM 31 (1988) 216, and inversion
for small trials*p). No model starts a thread at any worker count. Where
p is exactly 0 or 1 (the quantum P is exactly 0 at d_n = 0 for any
delta), the count is 0 or ``trials`` and nothing is drawn.

The sampler is exact up to the double grid: numpy forms the smaller side
of a count (``flips`` or ``trials - flips``) in doubles, so once that side
exceeds 2**53 it lies on a grid of step at most 1024 (at trials =
2**63 - 1), far below the count's standard deviation there (above 6e7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .streams import DOMAIN_QUANTUM, DOMAIN_STOCHASTIC, substream
from .weak_measurement import DipoleState, check_phase, flip_probability

__all__ = [
    "MODEL_QUANTUM",
    "MODEL_STOCHASTIC",
    "EnsembleRun",
    "simulate_quantum",
    "simulate_stochastic",
    "expected_stochastic_fraction",
]

MODEL_QUANTUM = "quantum"
MODEL_STOCHASTIC = "stochastic"

# numpy's binomial takes the trial count as an int64
_MAX_TRIALS = (1 << 63) - 1


@dataclass(frozen=True)
class EnsembleRun:
    """Outcome of one counting run of either model."""

    model: str
    trials: int
    flips: int
    seed: int
    xi: float
    state: DipoleState

    def __post_init__(self) -> None:
        if self.model not in (MODEL_QUANTUM, MODEL_STOCHASTIC):
            raise ValueError(f"unknown model: {self.model!r}")
        if not 0 <= self.flips <= self.trials:
            raise ValueError("flips must lie in [0, trials]")

    @property
    def fraction(self) -> float:
        return self.flips / self.trials


def _binomial_count(p: float, trials: int, seed: int, domain: int) -> int:
    """One Binomial(trials, p) draw from the (seed, domain, 0) substream.

    At p exactly 0 or 1 the count is fixed and nothing is drawn.
    """
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**63 - 1], got {trials}")
    if p == 0.0 or p == 1.0:
        return 0 if p == 0.0 else trials
    return int(substream(seed, domain, 0).binomial(trials, p))


def simulate_quantum(
    state: DipoleState, xi: float, trials: int, seed: int, workers: int = 1
) -> EnsembleRun:
    """Count flips when every trial uses the single quantum probability.

    The count is one Binomial(trials, P) draw, deterministic given
    ``seed``; with d_n = 0 the flip probability is exactly 0 and the count
    is exactly 0 for any number of trials. ``workers`` is accepted and
    changes nothing: no thread is started.
    """
    flips = _binomial_count(flip_probability(state, xi), trials, seed, DOMAIN_QUANTUM)
    return EnsembleRun(MODEL_QUANTUM, trials, flips, seed, xi, state)


def simulate_stochastic(
    state: DipoleState, xi: float, trials: int, seed: int, workers: int = 1
) -> EnsembleRun:
    """Count flips when each trial samples a definite dipole value.

    Each trial draws d ~ Normal(d_n, delta) on its own and flips with
    probability sin(d*xi)^2, so the count is one Binomial(trials, f) draw
    with f = :func:`expected_stochastic_fraction`, deterministic given
    ``seed``. ``workers`` is accepted and changes nothing.
    """
    p = expected_stochastic_fraction(state, xi)
    flips = _binomial_count(p, trials, seed, DOMAIN_STOCHASTIC)
    return EnsembleRun(MODEL_STOCHASTIC, trials, flips, seed, xi, state)


def expected_stochastic_fraction(state: DipoleState, xi: float) -> float:
    """Gaussian expectation of sin(d*xi)^2 under the stochastic model.

    E[sin^2] = (1 - cos(2 d_n xi) exp(-2 s^2)) / 2 with s = xi*delta,
    evaluated as -expm1(-2 s^2)/2 + exp(-2 s^2) sin(d_n xi)^2, which has
    no cancellation at small phases. Reduces to sin(d_n xi)^2 at
    delta = 0 and saturates at 1/2 when s is large (fully randomized
    phase). s and s^2 are float products, as in :func:`flip_probability`'s
    float path, so an overflowing s squares to inf without a warning and
    gives exactly 1/2.
    """
    check_phase(state, xi)
    s = xi * state.delta
    two_s2 = 2.0 * (s * s)
    sine = math.sin(state.d_n * xi)
    return -0.5 * math.expm1(-two_s2) + math.exp(-two_s2) * (sine * sine)
