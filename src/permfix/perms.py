"""Permutation and cycle-type utilities for the enumeration oracles.

A permutation is a sequence of images on range(N).  The oracles hold all of
S_N at once as one int8 table, `permutation_table(N)`, whose row r is the
permutation of lexicographic rank r (`lex_rank` inverts it), read whole
cycle types off it with `cycle_counts_table`, read the fixed points and
2-cycles alone off its columns with `fixed_point_sums`, and find the
transposition moves tau sigma as ranks with `transposition_ranks`.  At
N = 8 the table takes 40320 x 8 bytes.  Each enumeration oracle refuses N
above its own fixed guard before it builds a table; the environment
variable PERMFIX_GUARD_N, when set, overrides every guard so larger
machines can push N.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _permutations
from typing import Iterator

import numpy as np

from .exactdist import check_integer

GUARD_ENV = "PERMFIX_GUARD_N"
ROWS_PER_SLICE = 1 << 16  # rows of the table `fixed_point_sums` transposes at once; 8! < 2^16 < 9!


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
    check_integer("N", N, 0)
    return _permutations(range(N))


def permutation_table(N: int) -> np.ndarray:
    """All permutations of range(N) as an (N!, N) int8 array, rows in
    lexicographic order (the order of `iter_permutations`).

    Built level by level: the permutations of range(k) starting with f are f
    followed by those of range(k-1), with every value >= f moved up by one.
    """
    check_integer("N", N, 0)
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, N + 1):
        m = len(table)
        out = np.empty((k * m, k), dtype=np.int8)
        for first in range(k):
            block = out[first * m:(first + 1) * m]
            block[:, 0] = first
            block[:, 1:] = table + (table >= first)
        table = out
    return table


def lex_rank(rows: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row (its index in `permutation_table`),
    from its Lehmer code: sum_i #{j > i : row[j] < row[i]} (N-1-i)!."""
    M, N = rows.shape
    rank = np.zeros(M, dtype=np.int64)
    digit = np.empty(M, dtype=np.int64)
    for i in range(N - 1):
        digit[:] = 0
        for j in range(i + 1, N):
            digit += rows[:, j] < rows[:, i]
        digit *= math.factorial(N - 1 - i)
        rank += digit
    return rank


def transposition_ranks(table: np.ndarray) -> Iterator[np.ndarray]:
    """For each transposition tau = (a b), a < b, in lexicographic order of
    (a, b): the `lex_rank` of tau sigma for every row sigma of the table.
    tau sigma is sigma with the values a and b swapped."""
    N = table.shape[1]
    for a in range(N):
        for b in range(a + 1, N):
            moved = table.copy()
            moved[table == a] = b
            moved[table == b] = a
            yield lex_rank(moved)


def cycle_counts_table(rows: np.ndarray) -> np.ndarray:
    """(eta_1, ..., eta_N), the number of cycles of each length, for each row,
    as an (M, N) uint8 array.

    Every point is followed until it returns; the length of its cycle is the
    number of steps taken, and a cycle of length l is met by its l points.
    One int64 array of flat positions serves every point, so no temporary
    is M x N int64.
    """
    M, N = rows.shape
    flat = np.ascontiguousarray(rows).ravel()
    points = np.zeros((M, N), dtype=np.uint8)
    value = np.zeros(M, dtype=np.int8)
    at = np.arange(M)
    at *= N  # flat position of rows[r, value[r]]
    for i in range(N):
        at += i - value
        value[:] = i
        length = np.zeros(M, dtype=np.uint8)
        away = np.ones(M, dtype=bool)
        while away.any():
            image = flat.take(at)
            at += image - value
            value = image
            length += away
            away &= value != i
        for l in range(1, N + 1):
            points[:, l - 1] += length == l
    points //= np.arange(1, N + 1, dtype=np.uint8)
    return points


def fixed_point_sums(N: int) -> tuple[list[int], list[int]]:
    """(count, two_cycles) over S_N, as exact integers: count[x] permutations
    have x fixed points, and they have two_cycles[x] 2-cycles in all.

    eta_1 and eta_2 are read by their definitions, column by column of the
    table: sigma fixes i where column i holds i, and swaps i < v where
    column i holds v and column v holds i.  Both counts fit in uint8.  The
    columns are read off a contiguous transpose of ROWS_PER_SLICE rows at a
    time, so the table is held once, beside one slice.
    """
    table = permutation_table(N)
    eta1 = np.zeros(len(table), dtype=np.uint8)
    eta2 = np.zeros_like(eta1)
    for a in range(0, len(table), ROWS_PER_SLICE):
        cols = np.ascontiguousarray(table[a:a + ROWS_PER_SLICE].T)  # cols[i][r] = sigma_{a+r}(i)
        fixed, swapped = eta1[a:a + ROWS_PER_SLICE], eta2[a:a + ROWS_PER_SLICE]
        for i in range(N):
            fixed += cols[i] == i
            for v in range(i + 1, N):
                swapped += (cols[i] == v) & (cols[v] == i)
    count, two_cycles = [], []
    for x in range(N + 1):  # no bincount: it would copy eta1 as N! int64
        has = eta1 == x
        count.append(int(np.count_nonzero(has)))
        two_cycles.append(int(eta2[has].sum(dtype=np.int64)))
    return count, two_cycles


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

    def class_size(self) -> int:
        """Size of the conjugacy class: N! / prod_l (l^{eta_l} eta_l!)."""
        denom = 1
        for l, c in enumerate(self.counts, start=1):
            denom *= l ** c * math.factorial(c)
        return math.factorial(self.N) // denom

    def class_weight(self) -> Fraction:
        """Probability of the class under the uniform law on S_N."""
        return Fraction(self.class_size(), math.factorial(self.N))


def all_cycle_types(N: int) -> list[CycleType]:
    """Cycle types of S_N (integer partitions of N), sorted by multiplicity vector."""
    check_integer("N", N, 0)
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

