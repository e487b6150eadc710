"""Counter-based substream contracts."""

import numpy as np
import pytest

from nedmsim.streams import rekey, substream


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


def test_rekey_draws_as_a_new_substream():
    # a used generator, mid-buffer and with a cached 32-bit half, re-keyed
    # onto a key draws exactly what a generator built on that key draws
    rng = substream(42, 3, 0)
    for index in (0, 5, 1, (1 << 48) - 1):
        rng.random(3)
        rng.integers(0, 10, dtype=np.uint32)
        rng.binomial(1000, 0.3)
        rekey(rng, 42, 3, index)
        fresh = substream(42, 3, index)
        assert rng.integers(0, 1 << 32, dtype=np.uint32) == fresh.integers(
            0, 1 << 32, dtype=np.uint32
        )
        assert rng.normal() == fresh.normal()
        assert rng.binomial(1000, 0.3) == fresh.binomial(1000, 0.3)
        assert rng.poisson(100.0) == fresh.poisson(100.0)
        assert np.array_equal(rng.random(9), fresh.random(9))


def test_rekey_checks_the_key_like_substream():
    rng = substream(0, 1, 0)
    for key in ((0, 1, -1), (0, 1, 1 << 48), (0, 1 << 16, 0)):
        with pytest.raises(ValueError):
            rekey(rng, *key)
