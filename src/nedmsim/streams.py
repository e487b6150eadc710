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
generator for each: :func:`substreams` re-keys one Philox generator in
place, writing each index into a reused key list and passing one reused
state dict (counter, buffer and cached 32-bit half as in a new Philox) to
the state setter, which copies the values. The stream is a pure function
of the key (Salmon, Moraes, Dror & Shaw, SC'11), so each re-keyed
generator draws exactly what ``substream`` would, for about 1 µs against
20 µs (2-CPU host, numpy 2.4). ``numpy.random.Generator`` keeps no draw
state beyond its bit generator; its binomial set-up cache depends on ``n``
and ``p`` alone. :func:`_key` is the one home of the key layout and its
range checks; :func:`substreams` calls it once, on its last index.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "DOMAIN_QUANTUM",
    "DOMAIN_STOCHASTIC",
    "DOMAIN_CYCLE",
    "substream",
    "substreams",
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


def substreams(seed: int, domain: int, count: int) -> Iterator[np.random.Generator]:
    """Yield one generator, re-keyed onto (seed, domain, i) for each i < count.

    The same object is yielded each time, so a caller must be done with it
    before asking for the next. Holds O(1) memory; nothing for count < 1.
    """
    if count < 1:
        return
    last = _key(seed, domain, count - 1)
    rng = np.random.Generator(np.random.Philox(key=last))
    key = last.tolist()
    first = key[1] - (count - 1)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i in range(count):
        key[1] = first + i
        rng.bit_generator.state = state
        yield rng
