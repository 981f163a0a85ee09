"""Moment identities and the Gram apparatus for functions of the fixed-point count.

F_k denotes the falling-factorial statistic eta_1 (eta_1 - 1) ... (eta_1 - k + 1),
which is also the number of ordered k-tuples of distinct fixed points.  Its
expectation under the uniform law is 1 for every k <= N, the mixed moments
E[F_k F_l] form an explicit integer Gram matrix, and solving one linear
system against it reconstructs the conditional two-cycle mean exactly (the
second system, for the constant 1, has the known solution e_0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactdist import Interval, enclosure_digits, fixed_point_pmf, inv_e_interval
from .kernels import p_closedform, state_space
from .perms import check_guard, fixed_point_sums


def bell_numbers(k_max: int) -> list[int]:
    """Bell numbers B_0..B_{k_max} by the Bell triangle (exact integers)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    bells = [1]
    row = [1]
    for _ in range(k_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells[: k_max + 1]


def falling_moment(N: int, k: int) -> Fraction:
    """E[F_k] under pi_N, computed from the exact law as one integer sum
    over its denominator; equals 1 for k <= N."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    den, nums = fixed_point_pmf(N).integer_weights
    return Fraction(sum(n * math.perm(x, k) for x, n in nums.items()), den)


def raw_moment_equality(N: int, k: int) -> tuple[Fraction, int, bool]:
    """(E[X^k] under pi_N, k-th Bell number, equal?).

    The Bell number is the k-th raw moment of Poisson(1); the two agree for
    all k <= N and must differ at k = N + 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    den, nums = fixed_point_pmf(N).integer_weights
    moment = Fraction(sum(n * x ** k for x, n in nums.items()), den)
    bell = bell_numbers(k)[k]
    return moment, bell, moment == bell


def eta2_fk(N: int, k: int) -> Fraction:
    """E[eta_2 F_k] under the uniform law on S_N: 1/2 for k <= N-2 and 0
    for k in {N-1, N}."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    return Fraction(1, 2) if k <= N - 2 else Fraction(0)


def eta2_fk_bruteforce(N: int, k: int) -> Fraction:
    """`eta2_fk` summed over all of S_N (guarded at N = 8)."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    check_guard(N, 8, "eta2_fk_bruteforce")
    _, two_cycles = fixed_point_sums(N)
    total = sum(t * math.perm(x, k) for x, t in enumerate(two_cycles))
    return Fraction(total, math.factorial(N))


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """G_{k,l} = E[F_k F_l] for k, l in V, as exact integers.

    Symmetric with first row identically 1 (F_0 == 1 and E[F_l] = 1); the
    F_k are linearly independent on the N-point support, so G is invertible.
    """

    N: int
    indices: tuple[int, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def entry(self, k: int, l: int) -> Fraction:
        return self.entries[self.indices.index(k)][self.indices.index(l)]


def gram(N: int) -> GramMatrix:
    """Closed-form Gram matrix: G_{k,l} = k! sum_{r=0}^{k ^ (N-l)} C(l, k-r)/r! for k <= l."""
    if N < 1:
        raise ValueError("N must be >= 1")
    idx = state_space(N)
    entries = []
    for k in idx:
        row = []
        for l in idx:
            a, b = min(k, l), max(k, l)
            top = min(a, N - b)
            total = sum(math.comb(b, a - r) * math.perm(top, top - r) for r in range(top + 1))
            row.append(Fraction(math.factorial(a) * total, math.factorial(top)))
        entries.append(tuple(row))
    return GramMatrix(N=N, indices=idx, entries=tuple(entries))


def gram_bruteforce(N: int) -> GramMatrix:
    """E[F_k F_l] by enumeration of S_N (the oracle for the closed form)."""
    check_guard(N, 7, "gram_bruteforce")
    idx = state_space(N)
    hist, _ = fixed_point_sums(N)
    total = math.factorial(N)
    entries = []
    for k in idx:
        row = []
        for l in idx:
            val = sum(c * math.perm(x, k) * math.perm(x, l) for x, c in enumerate(hist))
            row.append(Fraction(val, total))
        entries.append(tuple(row))
    return GramMatrix(N=N, indices=idx, entries=tuple(entries))


def solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact rational Gaussian elimination with partial (first nonzero) pivoting."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [vr - factor * vc for vr, vc in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


@dataclass(frozen=True)
class CoefficientSystems:
    """Solutions of the two Gram systems and the function they reconstruct.

    G a = (1, ..., 1, 0)  reconstructs f = 2p as sum_k a_k F_k,
    G b = (1, ..., 1)     reconstructs the constant function 1 = F_0,
    c = a - b             expands g = f - 1,
    and needed_functional encloses sum_{x <= N-2} |g(x)| / (e x!).

    b = e_0 needs no solve: G is symmetric with row 0 identically 1, so its
    column 0 is (1, ..., 1), and G is invertible, so e_0 is the only
    solution.
    """

    N: int
    indices: tuple[int, ...]
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    f_values: dict[int, Fraction]
    needed_functional: Interval


def coefficient_systems(N: int) -> CoefficientSystems:
    """Solve the Gram system for a and verify f = 2p exactly on V."""
    if N < 4:
        raise ValueError("N must be >= 4")
    G = gram(N)
    idx = G.indices
    a = solve_exact(G.entries, [2 * eta2_fk(N, k) for k in idx])
    b = [Fraction(1)] + [Fraction(0)] * (len(idx) - 1)
    c = [ai - bi for ai, bi in zip(a, b)]

    p = p_closedform(N)
    f_values: dict[int, Fraction] = {}
    for x in idx:
        fx = sum((ak * math.perm(x, k) for ak, k in zip(a, idx)), Fraction(0))
        if fx != 2 * p[x]:
            raise AssertionError(f"reconstructed f({x}) = {fx} != 2 p({x}) = {2 * p[x]}")
        f_values[x] = fx

    rational_sum = sum(  # sum_{x <= N-2} |f(x) - 1| / x!
        (abs(f - 1) / math.factorial(x) for x, f in f_values.items() if x <= N - 2),
        Fraction(0),
    )
    functional = inv_e_interval(enclosure_digits(N)).scale(rational_sum)
    return CoefficientSystems(
        N=N,
        indices=idx,
        a=tuple(a),
        b=tuple(b),
        c=tuple(c),
        f_values=f_values,
        needed_functional=functional,
    )
