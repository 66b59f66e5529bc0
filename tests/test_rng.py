import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddsi.rng import Xoshiro256StarStar, lane_shape, mix_seed, splitmix64_next

MASK = (1 << 64) - 1


def rotl64(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK


class PerDrawXoshiro:
    """xoshiro256** stepped once per output in Python integers, every
    consumer drawing through next_u64: the oracle for the buffered,
    lane-parallel Xoshiro256StarStar."""

    def __init__(self, seed):
        state = seed & MASK
        self.s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            self.s.append(out)

    def next_u64(self):
        s = self.s
        result = (rotl64((s[1] * 5) & MASK, 7) * 9) & MASK
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl64(s[3], 45)
        return result

    def random(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo, hi):
        return lo + self.random() * (hi - lo)

    def fill_uniform(self, n, lo, hi):
        return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    def randbelow(self, n):
        mask = (1 << n.bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def mixture_below(self, n, rate, head, tail):
        return [self.randbelow(head) if head and self.random() < rate else head + self.randbelow(tail) for _ in range(n)]

    def sample_indices(self, n, k):
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


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
    oracle = PerDrawXoshiro(seed)
    assert [oracle.next_u64() for _ in range(64)] == got


_FLOATS = st.floats(min_value=-1e6, max_value=1e6)
# a bound of 1 never rejects; one just past a power of two rejects most often
_BOUNDS = st.one_of(st.sampled_from([1, 2, 3, 5, 17, 65, 129, 2**32 + 1]), st.integers(min_value=1, max_value=300))
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["next_u64", "random"]), st.integers(min_value=1, max_value=300)),
    st.tuples(st.just("uniform"), _FLOATS, _FLOATS),
    st.tuples(st.just("randbelow"), st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=2**64)),
    st.tuples(st.just("shuffle"), st.integers(min_value=0, max_value=1200)),
    st.integers(min_value=0, max_value=400).flatmap(
        lambda n: st.tuples(st.just("sample_indices"), st.just(n), st.integers(min_value=0, max_value=n))
    ),
    st.tuples(st.just("fill_uniform"), st.integers(min_value=0, max_value=5000), _FLOATS, _FLOATS),
    st.tuples(
        st.just("mixture_below"),
        st.integers(min_value=0, max_value=2000),
        st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        st.one_of(st.just(0), _BOUNDS),
        _BOUNDS,
    ),
)


def _consume(rng, call):
    """What one call (or a run of repeated calls) gives, comparable by ==."""
    name, *args = call
    if name in ("next_u64", "random"):
        return [getattr(rng, name)() for _ in range(args[0])]
    if name == "randbelow":
        count, n = args
        return [rng.randbelow(n) for _ in range(count)]
    if name == "shuffle":
        items = list(range(args[0]))
        rng.shuffle(items)
        return items
    if name == "fill_uniform":
        return [x.hex() for x in rng.fill_uniform(*args).tolist()]
    return getattr(rng, name)(*args)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(_CALLS, max_size=12))
# rate 0 and 1, no coin (head 0), bounds of 1 and just past a power of two,
# and runs long enough to cross blocks
@example(
    3,
    [
        ("mixture_below", 700, 0.0, 65, 1),
        ("mixture_below", 700, 1.0, 1, 129),
        ("mixture_below", 1500, 0.2, 0, 33),
        ("mixture_below", 4000, 0.2, 100, 65),
        ("next_u64", 5),
    ],
)
def test_buffered_stream_equals_per_draw_oracle(seed, calls):
    fast, slow = Xoshiro256StarStar(seed), PerDrawXoshiro(seed)
    for call in calls:
        assert _consume(fast, call) == _consume(slow, call), call
    assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize("draws", [1984, 3007, 3008, 3009, 32703, 32704, 32705, 49087, 49088, 49089])
def test_fill_uniform_after_single_draws_up_to_a_listed_chunk_edge(draws):
    # single draws make blocks of 64, 128, ..., 16,384, each listed whole:
    # the block of 1,024 ends after 1,984 draws, 3,008 falls inside the
    # block of 2,048, the doubling ends after 32,704 draws and the first
    # capped block of 16,384 after 49,088
    fast, slow = Xoshiro256StarStar(99), PerDrawXoshiro(99)
    assert [fast.next_u64() for _ in range(draws)] == [slow.next_u64() for _ in range(draws)]
    assert fast.fill_uniform(1500, 0.0, 1.0).tolist() == slow.fill_uniform(1500, 0.0, 1.0).tolist()
    assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize(
    "epoch, head, digest",
    [
        (0, [276, 803, 815, 456, 810, 355, 798, 555], "b04aef9ffbfb2572b142da5f5e56220f638aacc5a0789072fa841fa65e02289c"),
        (1, [262, 64, 680, 234, 514, 27, 549, 623], "59acaddef16f8c95cc2306732559e1f70c2f284c30b057e7e3deb915de972ebd"),
        (29, [766, 574, 180, 797, 804, 94, 466, 593], "79b26fdf7467b2784835633ac8cadce58cdae2b67f342b19e33d831a4ec8dd0c"),
    ],
)
def test_epoch_shuffle_of_820_items_is_pinned(epoch, head, digest):
    # train() shuffles its queries with this generator each epoch
    items = list(range(820))
    Xoshiro256StarStar(mix_seed(12, epoch)).shuffle(items)
    assert items[:8] == head
    assert hashlib.sha256(",".join(map(str, items)).encode()).hexdigest() == digest


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


@pytest.mark.parametrize("rate, head, tail", [(0.5, -1, 5), (0.5, 5, 0), (-0.1, 5, 5), (1.5, 5, 5), (float("nan"), 5, 5)])
def test_mixture_below_rejects_bad_arguments(rate, head, tail):
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).mixture_below(4, rate, head, tail)


def test_mixture_below_keeps_to_its_parts():
    rng = Xoshiro256StarStar(11)
    assert set(rng.mixture_below(400, 1.0, 3, 5)) == {0, 1, 2}
    assert set(rng.mixture_below(400, 0.0, 3, 5)) == {3, 4, 5, 6, 7}
    assert set(rng.mixture_below(400, 0.5, 0, 5)) == {0, 1, 2, 3, 4}


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
    a, b = PerDrawXoshiro(seed), Xoshiro256StarStar(seed)
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
