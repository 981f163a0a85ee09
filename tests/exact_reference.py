"""Reference laws in plain `Fraction` arithmetic: the oracles of the builders
that hand `ExactDist` integer numerators.

Each returns a dict from atom to `Fraction` weight, built one `Fraction` at
a time by the textbook formula, with zero weights dropped; an `ExactDist`
equals such a dict when its weights are the same.  `peak_tail_prefix_count`
is the oracle of the memoised `peak_tail_exact`: the same prefix count with
every peak-free prefix walked anew.  `mallows_differ` is the exact
P[S_N != S_K] that the Monte Carlo `mallows_discrepancy` estimates.
"""
from __future__ import annotations

import math
from fractions import Fraction


def derangement_counts(n_max: int) -> list[int]:
    """D_0 .. D_{n_max} by the two-term recurrence D_n = (n-1)(D_{n-1} + D_{n-2})."""
    d = [1, 0]
    for n in range(2, n_max + 1):
        d.append((n - 1) * (d[-1] + d[-2]))
    return d[: n_max + 1]


def normalised(weights: dict) -> dict:
    """weights over their total, zero weights dropped."""
    total = sum(weights.values(), Fraction(0))
    return {x: w / total for x, w in weights.items() if w}


def pi_law(N: int) -> dict[int, Fraction]:
    """pi_N(x) = D_{N-x} / ((N-x)! x!)."""
    d = derangement_counts(N)
    return normalised(
        {x: Fraction(d[N - x], math.factorial(N - x) * math.factorial(x)) for x in range(N + 1)}
    )


def conditioned(law: dict, lo: int, hi: int) -> dict[int, Fraction]:
    """law conditioned on the window [lo, hi]."""
    return normalised({x: w for x, w in law.items() if lo <= x <= hi})


def truncated_poisson(k_max: int) -> dict[int, Fraction]:
    """Poisson(1) conditioned on [0, k_max]: weights 1/x!, normalised."""
    return normalised({x: Fraction(1, math.factorial(x)) for x in range(k_max + 1)})


def birth_death_stationary(kernel) -> dict:
    """The stationary law of a birth-and-death kernel in ratio form:
    w(x_0) = 1, w(x_{i+1}) = w(x_i) K(x_i, x_{i+1}) / K(x_{i+1}, x_i),
    read through `entry`, then normalised."""
    states = kernel.states
    weights = {states[0]: Fraction(1)}
    for x, y in zip(states, states[1:]):
        weights[y] = weights[x] * kernel.entry(x, y) / kernel.entry(y, x)
    return normalised(weights)


def mallows_pmf(N: int) -> dict[int, Fraction]:
    """The law of S_N by a `Fraction` dynamic programme over (last bit,
    partial sum), with P[X_n = 1] = 1/n and X_1 = 1."""
    dist = {(1, 0): Fraction(1)}
    for n in range(2, N + 1):
        p_one = Fraction(1, n)
        nxt: dict = {}
        for (prev, acc), w in dist.items():
            for bit in (0, 1):
                key = (bit, acc + (prev & bit))
                nxt[key] = nxt.get(key, Fraction(0)) + w * (p_one if bit else 1 - p_one)
        dist = nxt
    law: dict = {}
    for (last, acc), w in dist.items():
        law[acc + last] = law.get(acc + last, Fraction(0)) + w
    return {s: w for s, w in law.items() if w}


def mallows_differ(N: int, K: int) -> Fraction:
    """P[S_N != S_K] for the independent bits X_n, P[X_n = 1] = 1/n, by an
    integer dynamic programme over (last bit, D), where

        D = X_N - (X_N X_{N+1} + ... + X_{K-1} X_K) = S_N - S_K.

    Bit n weighs 1 when set and n - 1 when clear, so the weights over
    n = N..K sum to K! / (N - 1)!; at N = 1, X_1 = 1 since a clear bit
    weighs 0."""
    weights = {(1, 1): 1, (0, 0): N - 1}
    for n in range(N + 1, K + 1):
        nxt: dict = {}
        for (last, d), w in weights.items():
            for bit, factor in ((1, 1), (0, n - 1)):
                key = (bit, d - (last & bit))
                nxt[key] = nxt.get(key, 0) + w * factor
        weights = nxt
    differ = sum(w for (_, d), w in weights.items() if d)
    return Fraction(differ, math.factorial(K) // math.factorial(N - 1))


def peak_tail_prefix_count(N: int) -> Fraction:
    """P[T > N] as the share of the (N+1)! orderings of N+1 values with no
    interior peak, by extending peak-free prefixes one entry at a time."""
    m = N + 1

    def extensions(prev: int, last: int, unused: int) -> int:
        """Peak-free completions of a prefix ending (prev, last), where bit v
        of unused marks the values still to place."""
        if not unused:
            return 1
        count = 0
        for v in range(m):
            if unused >> v & 1 and not prev < last > v:
                count += extensions(last, v, unused & ~(1 << v))
        return count

    # the sentinel m as prev keeps the first entry from counting as a peak
    full = (1 << m) - 1
    count = sum(extensions(m, v, full & ~(1 << v)) for v in range(m))
    return Fraction(count, math.factorial(m))
