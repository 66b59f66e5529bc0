import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddsi.rng import Xoshiro256StarStar, lane_shape, mix_seed, splitmix64_next

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """Second build of splitmix64 + xoshiro256**, vectorized over numpy."""
    state = np.uint64(seed & MASK)
    golden = np.uint64(0x9E3779B97F4A7C15)
    s = np.zeros(4, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(4):
            state = state + golden
            z = state
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            s[i] = z ^ (z >> np.uint64(31))

        def rotl(x, k):
            return (x << np.uint64(k)) | (x >> np.uint64(64 - k))

        out = []
        for _ in range(count):
            out.append(int(rotl(s[1] * np.uint64(5), 7) * np.uint64(9)))
            t = s[1] << np.uint64(17)
            s[2] ^= s[0]
            s[3] ^= s[1]
            s[1] ^= s[2]
            s[0] ^= s[3]
            s[2] ^= t
            s[3] = rotl(s[3], 45)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 0xDEADBEEF])
def test_stream_matches_independent_build(seed):
    rng = Xoshiro256StarStar(seed)
    got = [rng.next_u64() for _ in range(64)]
    assert got == reference_stream(seed, 64)


def test_splitmix_advances_state():
    s1, out1 = splitmix64_next(0)
    s2, out2 = splitmix64_next(s1)
    assert s1 != 0 and s2 != s1 and out1 != out2
    assert 0 <= out1 <= MASK


def test_mix_seed_order_sensitive():
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert mix_seed(1, 2) == mix_seed(1, 2)


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_random_unit_interval():
    rng = Xoshiro256StarStar(5)
    vals = [rng.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(np.mean(vals) - 0.5) < 0.03


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=2**32))
def test_randbelow_in_range(n, seed):
    rng = Xoshiro256StarStar(seed)
    assert 0 <= rng.randbelow(n) < n


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).randbelow(0)


@given(st.lists(st.integers(), max_size=50), st.integers(min_value=0, max_value=2**32))
def test_shuffle_is_permutation(items, seed):
    shuffled = list(items)
    Xoshiro256StarStar(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=2**32))
def test_sample_indices_distinct(k, seed):
    out = Xoshiro256StarStar(seed).sample_indices(30, k)
    assert len(out) == k == len(set(out))
    assert all(0 <= i < 30 for i in out)


def test_sample_indices_k_too_large():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).sample_indices(3, 4)


def assert_fill_uniform_equals_uniform_calls(seed, n, lo, hi):
    a, b = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    want = [a.uniform(lo, hi) for _ in range(n)]
    got = b.fill_uniform(n, lo, hi)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    assert b.next_u64() == a.next_u64()


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=5000),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_fill_uniform_equals_uniform_calls(seed, n, lo, hi):
    assert_fill_uniform_equals_uniform_calls(seed, n, lo, hi)


@pytest.mark.parametrize("lanes_wanted", [2, 30, 50])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fill_uniform_at_whole_lanes_and_one_either_side(lanes_wanted, offset):
    # lane length c with lanes_wanted * c a whole number of lanes of itself
    c = 2 * lanes_wanted
    whole = lanes_wanted * c
    assert lane_shape(whole) == (lanes_wanted, c)
    n = whole + offset
    lanes, length = lane_shape(n)
    if offset == 1:
        assert n == (lanes - 1) * length + 1  # the last lane makes one draw
    assert_fill_uniform_equals_uniform_calls(lanes_wanted * 31 + offset, n, -0.125, 0.125)


def test_lane_shape_covers_n_with_every_lane_used():
    for n in range(1, 3000):
        lanes, length = lane_shape(n)
        assert (lanes - 1) * length < n <= lanes * length
