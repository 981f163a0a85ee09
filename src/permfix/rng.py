"""Deterministic 64-bit random streams for the simulators.

The generator is SplitMix64 (Steele, Lea & Flood's mixing constants): state
advances by the golden-ratio increment and the output is a three-round
xor-shift-multiply scramble.  Per-replica streams are derived by hashing
(seed, replica index) through the same scramble, so replica r of a run is
reproducible in isolation, whichever engine reads it.  Uniforms are 53-bit
dyadics (out >> 11) * 2^-53 in [0, 1), exactly representable both as
doubles and as Fractions with denominator 2^53; an engine may compare the
53-bit word out >> 11 itself, with the integer cut `grid_cut`.
"""
from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(MIX1)
_U_MIX2 = np.uint64(MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
TWO_NEG53 = 2.0 ** -53


def scramble(value: int) -> int:
    """The SplitMix64 output function on a single 64-bit word."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """seed as an int, or ValueError when it is not an integer in [0, 2^64).

    The scramble reduces the seed mod 2^64, so a seed outside that range
    would silently draw the same words as the one inside it, and a bool
    would draw those of 0 or 1; every stream is checked here when it is
    made (`VectorStreams`), and by each routine whose compiled loop derives
    its streams from the seed itself.  A numpy integer is an integer.
    """
    try:
        value = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value <= MASK64:
        raise ValueError(f"seed must lie in the integers [0, 2^64), got {seed!r}")
    return value


def grid_cut(c: Fraction | float) -> int:
    """ceil(c * 2^53) for a cut c in [0, 1], a Fraction or a double taken
    exactly.

    For an integer j, j * 2^-53 < c exactly when j < grid_cut(c), so the
    53-bit word of a uniform compared with the stored numerator decides as
    the exact rational comparison does.
    """
    c = Fraction(c)
    return -((-c.numerator << 53) // c.denominator)


class VectorStreams:
    """One SplitMix64 stream per replica, advanced in lockstep with numpy.

    Row r is the stream of replica first_replica + r: its state starts at
    scramble(scramble(seed) + (first_replica + r + 1) GOLDEN), and its
    word k >= 1 is the scramble of that state plus k GOLDEN, all mod 2^64
    (the tests hold the same stream as a scalar reference).  The seed must
    lie in [0, 2^64) (`check_seed`), so no two seeds share their streams.

    `keep` and `skip` change which rows advance and where, never what a
    row's stream is: a kept row continues its own stream, and after skip(k)
    the next word is the one k words further on.
    """

    def __init__(self, seed: int, first_replica: int, count: int):
        replicas = np.arange(first_replica, first_replica + count, dtype=np.uint64)
        base = np.uint64(scramble(check_seed(seed)))
        with np.errstate(over="ignore"):
            states = base + (replicas + np.uint64(1)) * _U_GOLDEN
            self.states = self._scramble(states)

    @staticmethod
    def _scramble(z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            z = (z ^ (z >> _U30)) * _U_MIX1
            z = (z ^ (z >> _U27)) * _U_MIX2
            return z ^ (z >> _U31)

    def next_words(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            self.states = self.states + _U_GOLDEN
            return self._scramble(self.states)

    def uniforms(self) -> np.ndarray:
        """One 53-bit dyadic uniform per replica."""
        return (self.next_words() >> _U11).astype(np.float64) * TWO_NEG53

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows a boolean mask selects; the others stop advancing."""
        self.states = self.states[rows]

    def skip(self, k: int) -> None:
        """Advance every row past its next k >= 0 words without drawing them:
        the state moves by k * GOLDEN mod 2^64."""
        with np.errstate(over="ignore"):
            self.states = self.states + np.uint64(k * GOLDEN & MASK64)
