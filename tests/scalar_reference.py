"""Scalar reference samplers: the oracles of the vectorized and compiled
Monte Carlo engines.

Each draws one replica at a time in a plain loop, from a scalar SplitMix64
stream that redraws the words of `permfix.rng.VectorStreams` one by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from permfix.altcouplings import AscentPeakSample
from permfix.rng import GOLDEN, MASK64, TWO_NEG53, scramble


def stream_state(seed: int, replica: int) -> int:
    """Initial state of the stream for one replica: hash of (seed, replica)."""
    return scramble((scramble(seed & MASK64) + (replica + 1) * GOLDEN) & MASK64)


class Stream:
    """Scalar SplitMix64 stream; the reference implementation."""

    def __init__(self, seed: int, replica: int = 0):
        self.state = stream_state(seed, replica)

    def next_word(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return scramble(self.state)

    def uniform(self) -> float:
        return (self.next_word() >> 11) * TWO_NEG53

    def uniform_fraction(self) -> Fraction:
        """The same dyadic uniform as an exact rational (53-bit numerator)."""
        return Fraction(self.next_word() >> 11, 1 << 53)


# ---------------------------------------------------------------------------
# the Mallows bit chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MallowsSample:
    """One draw of the truncated bit chain with its two partial sums."""

    bits: tuple[int, ...]  # X_1 .. X_K
    s_n: int
    s_trunc: int
    N: int
    K: int
    tail_bound: Fraction


def mallows_sample(N: int, K: int, stream: Stream) -> MallowsSample:
    """Draw X_1..X_K and both sums; truncation error bound is 1/K."""
    if K < N + 1:
        raise ValueError("K must be at least N + 1")
    bits = [1]
    for n in range(2, K + 1):
        bits.append(1 if stream.uniform() < 1.0 / n else 0)
    b = tuple(bits)
    s_n = sum(b[i] * b[i + 1] for i in range(N - 1)) + b[N - 1]
    s_trunc = sum(b[i] * b[i + 1] for i in range(K - 1))
    return MallowsSample(
        bits=b, s_n=s_n, s_trunc=s_trunc, N=N, K=K, tail_bound=Fraction(1, K)
    )


# ---------------------------------------------------------------------------
# the ascent/peak construction
# ---------------------------------------------------------------------------

class TieEncountered(RuntimeError):
    """Two uniforms compared exactly equal (probability zero event)."""


def ascent_peak_from_uniforms(us: Sequence[float]) -> AscentPeakSample:
    """Evaluate S and T on a given uniform sequence (must be long enough)."""
    s = t = None
    n = 1
    while s is None or t is None:
        if n + 1 >= len(us) + 1:
            raise ValueError("uniform sequence exhausted before S and T were set")
        u_prev = us[n - 2] if n >= 2 else None
        u_n, u_next = us[n - 1], us[n]
        if u_n == u_next or (u_prev is not None and u_prev == u_n):
            raise TieEncountered(f"tie at index {n}")
        if s is None and u_n < u_next:
            s = n
        if t is None and n >= 2 and u_n > u_prev and u_n > u_next:
            t = n
        n += 1
    return AscentPeakSample(s=s, t=t)


def ascent_peak_sample(seed: int, replica: int = 0) -> AscentPeakSample:
    """Lazily consume one uniform stream until both S and T are determined."""
    stream = Stream(seed, replica)
    us = [stream.uniform(), stream.uniform()]
    while True:
        try:
            return ascent_peak_from_uniforms(us)
        except ValueError:
            us.append(stream.uniform())
