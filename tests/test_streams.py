"""Counter-based substream contracts."""

import numpy as np
import pytest

from nedmsim.streams import substream


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
