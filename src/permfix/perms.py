"""Permutation and cycle-type utilities for the enumeration oracles.

Permutations are tuples of images on range(N).  Cycle decomposition is done
by the usual marking sweep.  Each enumeration oracle refuses N above its own
fixed guard; the environment variable PERMFIX_GUARD_N, when set, overrides
every guard so larger machines can push N.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _permutations
from typing import Iterator

GUARD_ENV = "PERMFIX_GUARD_N"


class EnumerationGuardError(ValueError):
    """Raised when a brute-force enumeration is asked beyond its guard."""


def check_guard(N: int, limit: int, what: str) -> None:
    """Refuse N above the limit, or above PERMFIX_GUARD_N when that is set."""
    raw = os.environ.get(GUARD_ENV)
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise ValueError(f"{GUARD_ENV} must be an integer, got {raw!r}") from exc
    if N > limit:
        raise EnumerationGuardError(
            f"{what} refuses N={N} above the enumeration guard {limit} "
            f"(override with {GUARD_ENV})"
        )


def iter_permutations(N: int) -> Iterator[tuple[int, ...]]:
    """All permutations of range(N) in lexicographic order."""
    return _permutations(range(N))


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    n = len(perm)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return out


def cycle_counts(perm: tuple[int, ...]) -> tuple[int, ...]:
    """(eta_1, ..., eta_N): the number of cycles of each length."""
    n = len(perm)
    counts = [0] * n
    for length in cycle_lengths(perm):
        counts[length - 1] += 1
    return tuple(counts)


def eta1(perm: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(perm) if i == v)


def eta2(perm: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(perm) if i < v and perm[v] == i)


@dataclass(frozen=True, order=True)
class CycleType:
    """State of the coagulation-fragmentation chain: cycle-length multiplicities."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("multiplicities must be non-negative")
        n = len(self.counts)
        if sum((l + 1) * c for l, c in enumerate(self.counts)) != n:
            raise ValueError(f"sum of l * eta_l must equal N={n}")

    @property
    def N(self) -> int:
        return len(self.counts)

    @property
    def fixed_points(self) -> int:
        return self.counts[0]

    @staticmethod
    def of_permutation(perm: tuple[int, ...]) -> "CycleType":
        return CycleType(cycle_counts(perm))

    def class_size(self) -> int:
        """Size of the conjugacy class: N! / prod_l (l^{eta_l} eta_l!)."""
        denom = 1
        for l, c in enumerate(self.counts, start=1):
            denom *= l ** c * math.factorial(c)
        size, rem = divmod(math.factorial(self.N), denom)
        assert rem == 0
        return size

    def class_weight(self) -> Fraction:
        """Probability of the class under the uniform law on S_N."""
        return Fraction(self.class_size(), math.factorial(self.N))


def all_cycle_types(N: int) -> list[CycleType]:
    """Cycle types of S_N (integer partitions of N), sorted by multiplicity vector."""
    types: list[CycleType] = []

    def build(remaining: int, max_part: int, counts: list[int]) -> None:
        if remaining == 0:
            types.append(CycleType(tuple(counts)))
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            build(remaining - part, part, counts)
            counts[part - 1] -= 1

    build(N, N, [0] * N)
    types.sort()
    return types


def apply_transposition(perm: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """The product tau * perm for the transposition tau = (a b)."""
    out = list(perm)
    ia = perm.index(a)
    ib = perm.index(b)
    out[ia] = b
    out[ib] = a
    return tuple(out)
