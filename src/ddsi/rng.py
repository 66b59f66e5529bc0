"""Deterministic PRNG used everywhere randomness is needed.

xoshiro256** seeded through splitmix64, implemented directly so that
synthetic corpora, model initialization, and epoch shuffles are
bit-reproducible across platforms and language runtimes. numpy's
Generator is deliberately not used here: its bit streams are not part
of any cross-implementation contract.

The generator makes the same stream as stepping one draw at a time
(the tests keep that per-draw form as the oracle), but steps many lanes
of it together, a block at a time: this generator in numpy integer
arithmetic on uint64 arrays, still not numpy's Generator. Every method
draws from those blocks. The transition is linear
over GF(2) (Blackman & Vigna, "Scrambled linear pseudorandom number
generators", ACM TOMS 2021), so a 256x256 bit matrix, the transition
raised to the lane length, starts each lane that many draws past the
one before it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def mix_seed(*parts: int) -> int:
    """Fold integers into a single 64-bit seed, order-sensitively.

    Used to derive stream seeds such as (run_seed, epoch) without the
    streams aliasing each other.
    """
    state = 0
    for p in parts:
        state, out = splitmix64_next((state ^ (p & _MASK64)) & _MASK64)
        state = out
    _, out = splitmix64_next(state)
    return out


_U17, _U45, _U19 = np.uint64(17), np.uint64(45), np.uint64(19)


def _step_columns(state: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** transition of every column of the (4, L) uint64
    state, in place; t is an (L,) work vector."""
    s0, s1, s2, s3 = state
    np.left_shift(s1, _U17, out=t)
    np.bitwise_xor(s2, s0, out=s2)
    np.bitwise_xor(s3, s1, out=s3)
    np.bitwise_xor(s1, s2, out=s1)
    np.bitwise_xor(s0, s3, out=s0)
    np.bitwise_xor(s2, t, out=s2)
    np.left_shift(s3, _U45, out=t)
    np.right_shift(s3, _U19, out=s3)
    np.bitwise_or(s3, t, out=s3)


@functools.lru_cache(maxsize=32)
def _jump_rows(steps: int) -> np.ndarray:
    """(256, 4) uint64, read-only: row b is what `steps` transitions make of
    the state whose only set bit is bit b % 64 of word b // 64. Any state's
    image is the XOR of the rows of its set bits."""
    bit = np.arange(256)
    state = np.zeros((4, 256), dtype=np.uint64)
    state[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    t = np.empty(256, dtype=np.uint64)
    for _ in range(steps):
        _step_columns(state, t)
    rows = state.T.copy()
    rows.flags.writeable = False
    return rows


def lane_shape(n: int) -> tuple[int, int]:
    """(lanes, draws per lane) with which a block of n >= 1 draws is made: a
    lane length near sqrt(2n), so that stepping the 256 unit states to
    build the lane jump costs about what stepping the lanes does."""
    length = max(1, math.isqrt(2 * n))
    return -(-n // length), length


# A block makes at least this many draws, doubling per block up to
# _MAX_BLOCK: a generator asked for a few draws makes few, one asked for
# many makes them in blocks long enough that the lanes pay.
_FIRST_BLOCK = 64
_MAX_BLOCK = 1 << 14


class Xoshiro256StarStar:
    """xoshiro256** generator; state seeded via four splitmix64 outputs.

    Every method consumes one stream: the ints in `_buf` from `_pos` on,
    then the outputs that follow state `_s`, which `_raw` makes a
    lane-parallel block at a time. Draws, and their order, are those of
    stepping the state once per output.
    """

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        self._s = s
        self._buf: list[int] = []
        self._pos = 0
        self._block = _FIRST_BLOCK

    def _raw(self, n: int) -> np.ndarray:
        """The next n outputs after state `_s` as uint64, advancing `_s` past
        them."""
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        lanes, length = lane_shape(n)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        if lanes > 1:
            rows = _jump_rows(length)
            for j in range(1, lanes):
                bits = np.unpackbits(starts[j - 1].astype("<u8", copy=False).view(np.uint8), bitorder="little")
                np.bitwise_xor.reduce(rows.compress(bits, axis=0), axis=0, out=starts[j])
        state = starts.T.copy()
        s1_seen = np.empty((length, lanes), dtype=np.uint64)
        s1 = state[1]
        t = np.empty(lanes, dtype=np.uint64)
        last = n - (lanes - 1) * length  # draws taken from the last lane
        for i in range(length):
            s1_seen[i] = s1
            _step_columns(state, t)
            if i + 1 == last:
                self._s = [int(x) for x in state[:, -1]]
        x = s1_seen.T.reshape(-1)[:n] * np.uint64(5)
        return ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)

    def _refill(self, want: int) -> list[int]:
        """Replace the spent `_buf` with a new block of at least `want`
        outputs, listed whole as ints, to be read from `_pos` 0. The spent
        block is dropped first: with callers holding no reference to it, one
        listed block is alive at a time."""
        self._buf = []
        self._buf = buf = self._raw(max(want, self._block)).tolist()
        self._pos = 0
        self._block = min(2 * self._block, _MAX_BLOCK)
        return buf

    def next_u64(self) -> int:
        if self._pos == len(self._buf):
            self._refill(1)
        self._pos += 1
        return self._buf[self._pos - 1]

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.random() * (hi - lo)

    def fill_uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        """n uniform(lo, hi) draws as float64: the stream of n uniform() calls,
        leaving the state where those calls would."""
        if n <= 0:
            return np.empty(0)
        listed = self._buf[self._pos : self._pos + n]
        self._pos += len(listed)
        x = self._raw(n - len(listed))
        if listed:
            x = np.concatenate([np.array(listed, dtype=np.uint64), x])
        return lo + (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) * (hi - lo)

    def _below(self, bounds) -> list[int]:
        """One uniform integer in [0, b) per b of the sized sequence bounds,
        each by masked rejection (unbiased), in order."""
        out = []
        buf, pos = self._buf, self._pos
        end = len(buf)
        for n in bounds:
            mask = (1 << n.bit_length()) - 1
            r = n
            while r >= n:
                if pos == end:
                    # a bound takes at most 2 draws on average, a shuffle's
                    # 1.4, so this refill rarely falls short or overshoots
                    left = len(bounds) - len(out)
                    del buf
                    buf, pos = self._refill(left + (left >> 1) + 16), 0
                    end = len(buf)
                r = buf[pos] & mask
                pos += 1
            out.append(r)
        self._pos = pos
        return out

    def mixture_below(self, n: int, rate: float, head: int, tail: int) -> list[int]:
        """n integers from range(head + tail), each below head with
        probability rate: a coin lands below head when random() < rate (no
        coin is tossed when head is 0), then randbelow(head) or head +
        randbelow(tail) gives the integer. The draws are those of these calls,
        read straight from the listed block."""
        if not (head >= 0 and tail >= 1 and 0.0 <= rate <= 1.0):
            raise ValueError("mixture_below requires head >= 0, tail >= 1 and rate in [0, 1]")
        # random() < rate exactly when (x >> 11) < rate * 2**53, since scaling
        # by a power of two is exact, so when x < ceil(rate * 2**53) << 11
        cut = math.ceil(rate * 2.0**53) << 11
        head_mask, tail_mask = (1 << head.bit_length()) - 1, (1 << tail.bit_length()) - 1
        out = []
        buf, pos = self._buf, self._pos
        end = len(buf)
        for left in range(n, 0, -1):
            bound, mask, base = tail, tail_mask, head
            if head:
                if pos == end:
                    # a coin and at most 2 draws per bound on average
                    del buf
                    buf, pos = self._refill(3 * left + 16), 0
                    end = len(buf)
                if buf[pos] < cut:
                    bound, mask, base = head, head_mask, 0
                pos += 1
            r = bound
            while r >= bound:
                if pos == end:
                    del buf
                    buf, pos = self._refill(3 * left + 16), 0
                    end = len(buf)
                r = buf[pos] & mask
                pos += 1
            out.append(base + r)
        self._pos = pos
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        return self._below((n,))[0]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index down."""
        for i, j in zip(range(len(items) - 1, 0, -1), self._below(range(len(items), 1, -1))):
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), selection-order preserved."""
        if k > n:
            raise ValueError("sample_indices requires k <= n")
        pool = list(range(n))
        for i, r in enumerate(self._below(range(n, n - k, -1))):
            pool[i], pool[i + r] = pool[i + r], pool[i]
        return pool[:k]  # no later swap reaches back below i
