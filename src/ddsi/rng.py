"""Deterministic PRNG used everywhere randomness is needed.

xoshiro256** seeded through splitmix64, implemented directly so that
synthetic corpora, model initialization, and epoch shuffles are
bit-reproducible across platforms and language runtimes. numpy's
Generator is deliberately not used here: its bit streams are not part
of any cross-implementation contract.
"""

from __future__ import annotations

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

    def fill_uniform(self, n: int, lo: float, hi: float) -> list[float]:
        """n uniform(lo, hi) draws: the stream of n uniform() calls, with the
        state held in locals."""
        s0, s1, s2, s3 = self._s
        scale = 2.0 ** -53
        width = hi - lo
        out = [0.0] * n
        for i in range(n):
            x = (s1 * 5) & _MASK64
            result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            out[i] = lo + (result >> 11) * scale * width
        self._s = [s0, s1, s2, s3]
        return out

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
