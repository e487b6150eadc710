"""Counter-based substream contracts."""

import numpy as np
import pytest

from nedmsim.streams import substream, substreams


def test_same_key_reproduces():
    a = substream(42, 1, 7).random(16)
    b = substream(42, 1, 7).random(16)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    base = substream(42, 1, 7).random(16)
    assert not np.array_equal(base, substream(42, 1, 8).random(16))
    assert not np.array_equal(base, substream(42, 2, 7).random(16))
    assert not np.array_equal(base, substream(43, 1, 7).random(16))


def test_negative_and_huge_seeds_accepted():
    # seeds reduce modulo 2**64
    a = substream(-1, 1, 0).random(4)
    b = substream((1 << 64) - 1, 1, 0).random(4)
    assert np.array_equal(a, b)


def test_index_and_domain_bounds():
    with pytest.raises(ValueError):
        substream(0, 1, -1)
    with pytest.raises(ValueError):
        substream(0, 1, 1 << 48)
    with pytest.raises(ValueError):
        substream(0, 1 << 16, 0)


def test_substreams_draw_as_new_substreams():
    # each yield is the one generator, used (mid-buffer, with a cached 32-bit
    # half) and then re-keyed onto the next index; it draws exactly what a
    # generator built on that key draws. A seed of -1 and the top domain put
    # both key words above 2**63
    for seed, domain in ((42, 3), (-1, (1 << 16) - 1)):
        generators = set()
        for index, rng in enumerate(substreams(seed, domain, 6)):
            generators.add(id(rng))
            fresh = substream(seed, domain, index)
            assert rng.integers(0, 1 << 32, dtype=np.uint32) == fresh.integers(
                0, 1 << 32, dtype=np.uint32
            )
            assert rng.normal() == fresh.normal()
            assert rng.binomial(1000, 0.3) == fresh.binomial(1000, 0.3)
            assert rng.poisson(100.0) == fresh.poisson(100.0)
            assert np.array_equal(rng.random(9), fresh.random(9))
            rng.random(3)
            rng.integers(0, 10, dtype=np.uint32)
            rng.binomial(1000, 0.3)
        assert index == 5 and len(generators) == 1
    assert list(substreams(42, 3, 0)) == []


def test_substreams_check_the_key_like_substream():
    # the whole index range is accepted without building anything per index
    first = next(substreams(0, 1, 1 << 48))
    assert np.array_equal(first.random(4), substream(0, 1, 0).random(4))
    for key in ((0, 1, (1 << 48) + 1), (0, 1 << 16, 1)):
        with pytest.raises(ValueError):
            next(substreams(*key))
