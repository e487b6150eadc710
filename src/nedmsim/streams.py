"""Counter-based random substreams for reproducible, order-free simulation.

Every stochastic routine in this package draws from a Philox generator
keyed by ``(seed, domain, index)``. Philox is counter based: the stream is
a pure function of its 128-bit key, so two runs that construct the same
(seed, domain, index) triple produce identical draws no matter how work is
scheduled. Domains keep independent parts of a simulation (each
ensemble model's count, per-cycle noise) from sharing a stream.

Each ensemble model draws its whole count once, as one binomial variate:
the quantum model from ``substream(seed, DOMAIN_QUANTUM, 0)`` and the
stochastic model from ``substream(seed, DOMAIN_STOCHASTIC, 0)``. Like
every ``Generator`` method, that variate depends on numpy's sampler as well
as on the stream, and numpy does not promise to keep a sampler's output
across versions (NEP 19); the pinned ensemble digests in the tests catch
such a change. The :mod:`nedmsim.ensemble` docstring says where the
sampler's counts fall on the double grid.

A loop over many substreams (a campaign's cycles) need not build a
generator for each: :func:`rekey` assigns the (seed, domain, index) key to
an existing generator, with the counter, buffer and cached 32-bit half
reset as in a new Philox. Since the stream is a pure function of the key
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC'11), the re-keyed generator draws exactly what
``substream(seed, domain, index)`` would, at about a quarter of the cost.
``numpy.random.Generator`` keeps no draw state of its own beyond its bit
generator; its binomial set-up cache is a function of ``n`` and ``p`` alone.
Both functions build the key through :func:`_key`, the one home of the
key layout and its range checks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DOMAIN_QUANTUM",
    "DOMAIN_STOCHASTIC",
    "DOMAIN_CYCLE",
    "rekey",
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


def rekey(rng: np.random.Generator, seed: int, domain: int, index: int) -> None:
    """Move a Philox ``rng`` onto the (seed, domain, index) substream, in place.

    Afterwards ``rng`` draws exactly what ``substream(seed, domain, index)``
    draws.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": _key(seed, domain, index),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
