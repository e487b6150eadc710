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

The quantum trials share one probability P and carry no hidden value, so
their count is exactly one Binomial(trials, P) variate. It is drawn once
from the (seed, DOMAIN_QUANTUM, 0) substream by numpy's exact sampler
(BTPE, Kachitvichyanukul & Schmeiser, Commun. ACM 31 (1988) 216, and
inversion for small trials*P), so the model starts no thread at any
worker count. Where P is exactly 0 or 1 (d_n = 0 gives exactly 0 for any
delta), the count is 0 or ``trials`` and nothing is drawn.

Stochastic trials draw one uniform per neutron against the per-trial
probability; draws come from counter-based substreams in fixed blocks,
so a run is reproducible from (seed, parameters) at any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .streams import BLOCK_TRIALS, DOMAIN_QUANTUM, DOMAIN_STOCHASTIC, substream
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


def _check_trials(trials: int) -> None:
    if not 1 <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**63 - 1], got {trials}")


def _block_ranges(trials: int):
    for b in range(0, (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS):
        start = b * BLOCK_TRIALS
        yield b, min(BLOCK_TRIALS, trials - start)


def _worker_count(requested: int, blocks: int) -> int:
    """Threads worth starting: no more than the cores or the blocks."""
    return max(1, min(requested, os.cpu_count() or 1, blocks))


def _run_blocks(block_fn, trials: int, workers: int) -> int:
    blocks = list(_block_ranges(trials))
    workers = _worker_count(workers, len(blocks))
    if workers == 1:
        return sum(block_fn(b, m) for b, m in blocks)
    # fixed-order reduction over block index keeps the total independent
    # of completion order
    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = pool.map(lambda bm: block_fn(*bm), blocks)
        return sum(counts)


def simulate_quantum(
    state: DipoleState, xi: float, trials: int, seed: int, workers: int = 1
) -> EnsembleRun:
    """Count flips when every trial uses the single quantum probability.

    The count is one Binomial(trials, P) draw, deterministic given
    ``seed``; with d_n = 0 the flip probability is exactly 0 and the count
    is exactly 0 for any number of trials. At a probability of exactly 0
    or 1 nothing is drawn. ``workers`` is accepted for symmetry with
    :func:`simulate_stochastic` and changes nothing: no thread is started.
    """
    _check_trials(trials)
    p = flip_probability(state, xi)
    if p == 0.0 or p == 1.0:
        flips = 0 if p == 0.0 else trials
    else:
        flips = int(substream(seed, DOMAIN_QUANTUM, 0).binomial(trials, p))
    return EnsembleRun(MODEL_QUANTUM, trials, flips, seed, xi, state)


def simulate_stochastic(
    state: DipoleState, xi: float, trials: int, seed: int, workers: int = 1
) -> EnsembleRun:
    """Count flips when each trial samples a definite dipole value.

    Per trial: d ~ Normal(d_n, delta), flip with probability sin(d*xi)^2.
    Deterministic given ``seed``; the flip fraction converges to
    :func:`expected_stochastic_fraction` as trials grow.
    """
    _check_trials(trials)
    check_phase(state, xi)

    def block_fn(b: int, m: int) -> int:
        rng = substream(seed, DOMAIN_STOCHASTIC, b)
        # in place, the same floats as normal(d_n, delta) (d_n + delta*z)
        # times xi, then sin^2; normals are drawn before uniforms
        p = rng.standard_normal(m)
        p *= state.delta
        p += state.d_n
        p *= xi
        np.sin(p, out=p)
        np.square(p, out=p)
        return int(np.count_nonzero(rng.random(m) < p))

    flips = _run_blocks(block_fn, trials, workers)
    return EnsembleRun(MODEL_STOCHASTIC, trials, flips, seed, xi, state)


def expected_stochastic_fraction(state: DipoleState, xi: float) -> float:
    """Gaussian expectation of sin(d*xi)^2 under the stochastic model.

    E[sin^2] = (1 - cos(2 d_n xi) exp(-2 xi^2 delta^2)) / 2. Reduces to
    sin(d_n xi)^2 at delta = 0 and saturates at 1/2 when xi*delta is
    large (fully randomized phase).
    """
    check_phase(state, xi)
    damping = math.exp(-2.0 * (xi * state.delta) ** 2)
    return 0.5 * (1.0 - math.cos(2.0 * state.d_n * xi) * damping)
