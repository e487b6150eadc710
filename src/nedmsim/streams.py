"""Counter-based random streams for reproducible, order-free simulation.

Every stochastic routine in this package draws from a Philox generator
keyed by ``(seed, domain, index)``. Philox is counter based: the stream is
a pure function of its 128-bit key, so two runs that construct the same
(seed, domain, index) triple produce identical draws no matter how work is
scheduled. Domains keep independent parts of a simulation (each
ensemble model's count, a campaign's blocks) from sharing a stream.

Each ensemble model draws its whole count once, as one binomial variate:
the quantum model from ``substream(seed, DOMAIN_QUANTUM, 0)`` and the
stochastic model from ``substream(seed, DOMAIN_STOCHASTIC, 0)``. Like
every ``Generator`` method, that variate depends on numpy's sampler as well
as on the stream, and numpy does not promise to keep a sampler's output
across versions (NEP 19); the pinned ensemble digests in the tests catch
such a change. The :mod:`nedmsim.ensemble` docstring says where the
sampler's counts fall on the double grid.

A campaign draws by blocks of ``comagnetometer.CAMPAIGN_BLOCK`` = 4096
cycles (artifact version 0.11.0 on). Block ``b`` holds cycles
``4096 b`` to ``4096 b + 4095`` and draws each quantity from its own
``DOMAIN_CYCLE`` substream, as one vector in cycle order:

- index ``3 b``: the field drift, ``normal(0, b_drift_sd, m)`` for a
  block of ``m`` cycles;
- index ``3 b + 1``: the counts. In ``poisson`` mode the totals of a
  whole block come first, ``poisson(n, 4096)`` even where the campaign
  ends inside the block, and the first ``m`` are used. Then the split,
  ``binomial(totals, p_up)`` over the ``m`` cycles (``binomial(n, p_up)``
  in ``binomial`` mode). ``expected`` mode draws no counts;
- index ``3 b + 2``: the clock noise, ``normal(0, f_hg_noise_sd, m)``.

numpy's vector draws consume a stream in element order, so the first
``m`` cycles of a block draw the same whatever the block's length, and a
longer campaign with the same seed extends a shorter one. Before 0.11.0,
cycle ``i`` drew all three quantities from substream ``i``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DOMAIN_QUANTUM",
    "DOMAIN_STOCHASTIC",
    "DOMAIN_CYCLE",
    "substream",
]

DOMAIN_QUANTUM = 1
DOMAIN_STOCHASTIC = 2
DOMAIN_CYCLE = 3

_MASK64 = (1 << 64) - 1
_MAX_INDEX = 1 << 48


def _key(seed: int, domain: int, index: int) -> np.ndarray:
    """The 128-bit Philox key ``[seed, domain << 48 | index]``.

    Seeds are reduced modulo 2**64, so any Python int is accepted.
    """
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"substream index out of range: {index}")
    if not 0 <= domain < (1 << 16):
        raise ValueError(f"substream domain out of range: {domain}")
    return np.array([seed & _MASK64, (domain << 48) | index], dtype=np.uint64)


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator for the (seed, domain, index) substream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, domain, index)))
