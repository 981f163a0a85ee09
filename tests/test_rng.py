"""Determinism and cross-path identity of the SplitMix64 streams."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfix.rng import MASK64, VectorStreams, check_seed, scramble
from scalar_reference import Stream


def test_scramble_stays_in_64_bits():
    for v in (0, 1, MASK64, 0xDEADBEEF):
        assert 0 <= scramble(v) <= MASK64


def test_streams_reproducible():
    a = [Stream(123, 5).uniform() for _ in range(3)]
    b = [Stream(123, 5).uniform() for _ in range(3)]
    assert a == b


def test_streams_distinct_across_replicas():
    words = {Stream(9, r).next_word() for r in range(100)}
    assert len(words) == 100


def test_scalar_vector_identity():
    first, count, steps = 7, 11, 200
    for seed in (2024, (1 << 64) - 1, (1 << 64) - 5):
        vector = VectorStreams(seed, first, count)
        scalars = [Stream(seed, first + r) for r in range(count)]
        for _ in range(steps):
            vec = vector.uniforms()
            ref = np.array([s.uniform() for s in scalars])
            assert np.array_equal(vec, ref)


def test_uniform_fraction_matches_float():
    s1 = Stream(77, 0)
    s2 = Stream(77, 0)
    for _ in range(50):
        f = s1.uniform()
        q = s2.uniform_fraction()
        assert f == float(q)
        assert 0 <= q < 1
        assert q.denominator <= 1 << 53


def test_uniforms_cover_unit_interval():
    s = Stream(5, 0)
    values = [s.uniform() for _ in range(2000)]
    assert 0.0 <= min(values) and max(values) < 1.0
    assert abs(sum(values) / len(values) - 0.5) < 0.05


seeds = st.one_of(st.integers(0, MASK64), st.integers(MASK64 - 1000, MASK64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeds, st.integers(0, 10 ** 9), st.integers(1, 8))
def test_scalar_vector_identity_random(seed, first, count):
    vector = VectorStreams(seed, first, count)
    scalars = [Stream(seed, first + r) for r in range(count)]
    for _ in range(5):
        assert vector.uniforms().tolist() == [s.uniform() for s in scalars]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seeds, st.integers(0, 10 ** 9), st.integers(1, 8), st.integers(0, 50),
       st.lists(st.booleans(), min_size=8, max_size=8))
def test_keep_and_skip_continue_the_scalar_streams(seed, first, count, k, mask):
    vector = VectorStreams(seed, first, count)
    scalars = [Stream(seed, first + r) for r in range(count)]
    assert vector.uniforms().tolist() == [s.uniform() for s in scalars]
    rows = np.array(mask[:count])
    vector.keep(rows)
    kept = [s for s, m in zip(scalars, mask) if m]
    vector.skip(k)
    for s in kept:
        for _ in range(k):
            s.next_word()
    for _ in range(3):
        assert vector.next_words().tolist() == [s.next_word() for s in kept]


@pytest.mark.parametrize(
    "seed", [-1, 1 << 64, -(1 << 64), True, False, 1.0, 2.5, "1", None, np.int64(1), np.uint64(MASK64)],
)
def test_check_seed_rejects_seeds_outside_64_bits(seed):
    # a bool would draw the words of 0 or 1, so it is no seed; a numpy
    # integer is refused, as it is for every count (`check_integer`)
    with pytest.raises(ValueError, match="seed must lie in"):
        check_seed(seed)


def test_check_seed_accepts_the_64_bit_range():
    assert check_seed(0) == 0
    assert check_seed(MASK64) == MASK64


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_vector_streams_reject_seeds_outside_64_bits(seed):
    # a seed outside [0, 2^64) would draw the words of seed mod 2^64
    with pytest.raises(ValueError, match="seed must lie in"):
        VectorStreams(seed, 0, 3)
