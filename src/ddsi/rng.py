"""Deterministic PRNG used everywhere randomness is needed.

xoshiro256** seeded through splitmix64, implemented directly so that
synthetic corpora, model initialization, and epoch shuffles are
bit-reproducible across platforms and language runtimes. numpy's
Generator is deliberately not used here: its bit streams are not part
of any cross-implementation contract.

`fill_uniform` makes the same stream as one draw at a time, but steps
many lanes of it together: this generator in numpy integer arithmetic
on uint64 arrays, still not numpy's Generator. The transition is linear
over GF(2) (Blackman & Vigna, "Scrambled linear pseudorandom number
generators", ACM TOMS 2021), so a 256x256 bit matrix, the transition
raised to the lane length, starts each lane that many draws past the
one before it.
"""

from __future__ import annotations

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


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_columns(state: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** transition of every column of the (4, L) uint64
    state, in place; t is an (L,) work vector."""
    s0, s1, s2, s3 = state
    np.left_shift(s1, np.uint64(17), out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, np.uint64(45), out=t)
    s3 >>= np.uint64(19)
    s3 |= t


def _jump_rows(steps: int) -> np.ndarray:
    """(256, 4) uint64: row b is what `steps` transitions make of the state
    whose only set bit is bit b % 64 of word b // 64. Any state's image is
    the XOR of the rows of its set bits."""
    bit = np.arange(256)
    state = np.zeros((4, 256), dtype=np.uint64)
    state[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    t = np.empty(256, dtype=np.uint64)
    for _ in range(steps):
        _step_columns(state, t)
    return state.T.copy()


def lane_shape(n: int) -> tuple[int, int]:
    """(lanes, draws per lane) with which fill_uniform makes n >= 1 draws: a
    lane length near sqrt(2n), so that stepping the 256 unit states to
    build the lane jump costs about what stepping the lanes does."""
    length = max(1, math.isqrt(2 * n))
    return -(-n // length), length


class Xoshiro256StarStar:
    """xoshiro256** generator; state seeded via four splitmix64 outputs."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64_next(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

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
        lanes, length = lane_shape(n)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        if lanes > 1:
            jump = _jump_rows(length)
            for j in range(1, lanes):
                bits = np.unpackbits(starts[j - 1].astype("<u8").view(np.uint8), bitorder="little")
                starts[j] = np.bitwise_xor.reduce(jump[bits.astype(bool)], axis=0)
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
        x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
        return lo + (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) * (hi - lo)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        mask = (1 << n.bit_length()) - 1
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), selection-order preserved."""
        if k > n:
            raise ValueError("sample_indices requires k <= n")
        pool = list(range(n))
        out = []
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out
