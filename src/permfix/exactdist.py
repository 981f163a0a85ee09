"""Exact laws on the non-negative integers and their distances.

Everything here is computed in rational arithmetic.  The only transcendental
constant that ever enters is e^{-1}; it is carried around as an exact rational
enclosure (an interval whose endpoints are consecutive partial sums of the
alternating series sum (-1)^k / k!, D_k / k! and D_{k+1} / (k+1)!, see
`exp_interval`, which sums in integers and builds one `Fraction` per
endpoint), so every comparison against an analytic bound can be certified
rather than merely observed in floating point.  The enclosure for a
quantity at N has `enclosure_digits(N)` digits, enough to resolve the
distance between pi_N and Poisson(1).

A law (`ExactDist`) is integer numerators over one denominator, as a
kernel row is, so a sum over a law is an integer sum of its numerators.
One function, `checked_weights`, holds the rule for that form (den a
positive int, the numerators non-negative ints summing to it, reduced by
one gcd, zeros dropped, read-only) for a law, a kernel row and a chain's
invariant law alike.
Between two laws of mass one, sum |d1 - d2| = 2 sum (d1 - d2)_+ and the
positive-part sum is the same in either order, so every distance is one
positive-part sum, over the product of the two denominators.  Against
Poisson(1) it is one exact linear form A + B e^{-1}.  Each term
d(x) - e^{-1}/x! has a sign that one comparison of d(x) x! with the
enclosure decides; the positive terms give A, over the law's denominator,
and B, and the enclosure is scaled once.  Enclosing each term on its own
would let e^{-1} take a different value in every term, and widen the
result.  B is one integer sum over the largest factorial it meets.
`over_one_denominator` is the one reader of exact weights, `kernels` and
`lumping` included: an `ExactDist`'s stored numerators, or any mapping's
over the lcm of its denominators, so every exact sum in the package is an
integer sum over a denominator known before the sum.

A value is memoised only where a route reads it again, each by
`lru_cache(maxsize=8, typed=True)`: `fixed_point_pmf`, `inv_e_interval`
and the TV against Poisson(1) here, `kernels.p_closedform` and
`coupling._c_hat`.  The routes that visit one N (a log rate, a TV, p, the
kernels and their laws) run in a row and share one build; eight entries
keep the memory flat, and the typed key lets a bool, a float or a numpy
integer miss and be refused.  The TV is keyed on the reference and on a
law, which hashes once; `log_rate` shares it with its caller.  Every
cached object is immutable: an `Interval`, an `ExactDist` (its
`integer_weights` and kept hash can be neither reassigned nor deleted, its
numerators a read-only mapping) or a frozen `PFunction`.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Union


class PrecisionInsufficient(ArithmeticError):
    """Raised when a requested quantity is not resolved at the working precision."""


def check_integer(name: str, value: object, minimum: int) -> None:
    """ValueError unless value is an int of at least minimum; a bool is
    refused, though Python counts it as one.  The one type and range rule
    for every size and count the package takes: N, k, n_max, k_max and
    digits here and in the other exact modules, and the counts of the
    Monte Carlo entry points."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_integers(name: str, values: Iterable[object], minimum: int) -> tuple[int, ...]:
    """values as a tuple, read once (they may be a one-shot iterable), each
    checked by `check_integer`; ValueError when values is not iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be an iterable of integers") from None
    values = tuple(items)
    for value in values:
        check_integer(name, value, minimum)
    return values


# ---------------------------------------------------------------------------
# rational interval arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    def __add__(self, shift: Fraction | int) -> "Interval":
        """Shift by an exact scalar."""
        return Interval(self.lo + shift, self.hi + shift)

    def scale(self, factor: Fraction | int) -> "Interval":
        """Multiply by an exact scalar (sign-aware)."""
        f = Fraction(factor)
        a, b = self.lo * f, self.hi * f
        return Interval(min(a, b), max(a, b))

    def certainly_within(self, lo: Fraction | int, hi: Fraction | int) -> bool:
        return lo <= self.lo and self.hi <= hi


def exp_interval(x: Fraction | int, digits: int) -> Interval:
    """Rational enclosure of e^x for rational |x| <= 1.

    The terms |x|^k / k! decrease, so consecutive partial sums of the
    alternating series sum_k (-|x|)^k / k! bracket e^{-|x|}; the sum stops at
    the first term below 10^-digits, which bounds the width.  For x > 0 the
    bracket is inverted, which widens it by at most a factor e^2.

    With |x| = a/b the k-th partial sum is s_k / (b^k k!), where
    s_k = k b s_{k-1} + (-a)^k from s_0 = 1, so the sums and the stopping
    test stay in integers and one `Fraction` is built per endpoint.  At
    x = -1, s_k is the derangement number D_k.
    """
    a, b = Fraction(x).as_integer_ratio()
    a = abs(a)
    if a > b:
        raise ValueError("exp_interval needs |x| <= 1")
    check_integer("digits", digits, 1)
    scale = 10 ** digits
    s, den, power = 1, 1, 1  # s_k, b^k k!, a^k
    k = 0
    while power * scale >= den:  # the term a^k / (b^k k!) is >= 10^-digits
        k += 1
        power *= a
        prev = (s, den)
        s = k * b * s + (-power if k & 1 else power)
        den *= k * b
    # the last term, (-a)^k / (b^k k!), is <= 0 for odd k
    (lo_n, lo_d), (hi_n, hi_d) = ((s, den), prev) if k & 1 else (prev, (s, den))
    if x > 0:
        return Interval(Fraction(hi_d, hi_n), Fraction(lo_d, lo_n))
    return Interval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


@lru_cache(maxsize=8, typed=True)  # typed, so a bool or a float misses it and is refused
def inv_e_interval(digits: int) -> Interval:
    """Rational enclosure of e^{-1} of width below 10^-digits."""
    return exp_interval(-1, digits)


def enclosure_digits(N: int) -> int:
    """Digits of e^{-1} that resolve 2^N/(N+1)!, about 10^{-N log10 N}: that
    many plus a 20-digit guard, and never fewer than 50."""
    check_integer("N", N, 0)
    return max(50, math.ceil(N * math.log10(max(N, 1))) + 20)


# ---------------------------------------------------------------------------
# derangement numbers
# ---------------------------------------------------------------------------

def derangements(n_max: int) -> tuple[int, ...]:
    """Exact derangement counts D_0 .. D_{n_max}, by D_n = n D_{n-1} + (-1)^n
    from D_0 = 1 (the alternating sum D_n = n! sum_{k<=n} (-1)^k / k!,
    multiplied by n!)."""
    check_integer("n_max", n_max, 0)
    vals = [1]
    for n in range(1, n_max + 1):
        vals.append(n * vals[-1] + (-1 if n & 1 else 1))
    return tuple(vals)


# ---------------------------------------------------------------------------
# exact finitely supported distributions
# ---------------------------------------------------------------------------

def checked_weights(den: int, numerators: Mapping) -> tuple[int, Mapping]:
    """The one rule for exact weights, a law's, a kernel row's or a chain's
    invariant law's: den a positive int, the numerators non-negative ints
    (bools refused) summing to den.  Gives back (den, {key: numerator})
    reduced by one gcd, zero numerators dropped and the keys in their given
    order, the numerators a read-only copy.  The keys are the caller's to
    check.
    """
    if type(den) is not int or den <= 0:
        raise ValueError(f"den must be a positive int, got {den!r}")
    zeros = False  # a zero numerator to drop
    for k, n in numerators.items():
        if type(n) is not int or n <= 0:
            if type(n) is not int:
                raise ValueError(f"numerator at {k!r} must be an int, got {n!r}")
            if n < 0:
                raise ValueError(f"negative entry at {k!r}: {Fraction(n, den)}")
            zeros = True
    nums = numerators.values()
    if sum(nums) != den:
        raise ValueError(f"sums to {Fraction(sum(nums), den)}, not 1")
    g = math.gcd(den, *nums)
    if g > 1 or zeros:
        return den // g, MappingProxyType({k: n // g for k, n in numerators.items() if n})
    return den, MappingProxyType(dict(numerators))


def _atom(x) -> int:
    """x as an int, if it is a non-negative integer (a numpy integer
    included, a bool refused)."""
    try:
        atom = operator.index(x)
    except TypeError:
        atom = -1
    if atom < 0 or type(x) is bool:
        raise ValueError(f"support must consist of non-negative integers, got {x!r}")
    return atom


class ExactDist(Mapping[int, Fraction]):
    """Finitely supported probability law on Z+ with exact rational weights.

    The one constructor, `ExactDist(den, {atom: numerator})`, takes integer
    numerators over one denominator under `checked_weights`, the rule a
    kernel row is held to, and its own check that each atom is a
    non-negative integer (a bool refused), stored as an int.  They are
    stored once, as `integer_weights` = (den, {atom: numerator}) reduced
    by one gcd, zero numerators dropped and the atoms increasing.  The law
    reads as a read-only mapping from each atom to its reduced `Fraction`
    weight, built where it is read, so two laws are equal (and hash equal)
    when their weights are, a dict of the same weights included.
    `integer_weights` is set once, in `__init__`, and the hash is kept on
    its first call: assigning or deleting either raises AttributeError, so
    a law shared by a cache stays the law it was built as.
    """

    __slots__ = ("integer_weights", "_hash")

    def __init__(self, den: int, numerators: Mapping[int, int]) -> None:
        atoms = dict(sorted(zip(map(_atom, numerators), numerators.values())))
        object.__setattr__(self, "integer_weights", checked_weights(den, atoms))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExactDist is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ExactDist is read-only: cannot delete {name!r}")

    def __getitem__(self, x: int) -> Fraction:
        den, nums = self.integer_weights
        return Fraction(nums[x], den)

    def __iter__(self):
        return iter(self.integer_weights[1])

    def __len__(self) -> int:
        return len(self.integer_weights[1])

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first call
            den, nums = self.integer_weights
            object.__setattr__(self, "_hash", hash((den, tuple(nums.items()))))
            return self._hash

    def __repr__(self) -> str:
        den, nums = self.integer_weights
        return f"ExactDist({den}, {dict(nums)!r})"

    def restrict(self, lo: int, hi: int) -> "ExactDist":
        """Condition on the window [lo, hi]: the kept numerators over their sum."""
        kept = {x: n for x, n in self.integer_weights[1].items() if lo <= x <= hi}
        if not kept:
            raise ValueError("conditioning on a null event")
        return ExactDist(sum(kept.values()), kept)

    def cumulative(self) -> tuple[Fraction, ...]:
        den, nums = self.integer_weights
        return tuple(Fraction(c, den) for c in accumulate(nums.values()))


def over_one_denominator(weights: Mapping) -> tuple[int, Mapping]:
    """Exact weights as (den, {state: numerator}), each weight numerator / den.

    An `ExactDist` gives back its `integer_weights` and builds nothing.  Any
    other mapping of ints, `Fraction`s or floats (taken exactly) is put over
    the lcm of its distinct denominators, its least common denominator; the
    empty mapping gives (1, {}).
    """
    if isinstance(weights, ExactDist):
        return weights.integer_weights
    ratios = {
        s: (w if isinstance(w, Fraction) else Fraction(w)).as_integer_ratio()
        for s, w in weights.items()
    }
    den = math.lcm(*{d for _, d in ratios.values()})
    return den, {s: n * (den // d) for s, (n, d) in ratios.items()}


@lru_cache(maxsize=8, typed=True)  # typed, so a bool or a float misses it and is refused
def fixed_point_pmf(N: int) -> ExactDist:
    """Law of the number of fixed points of a uniform permutation of N items.

    pi(x) = C(N, x) D_{N-x} / N!, that is D_{N-x} / ((N-x)! x!); the
    impossible value N-1 carries weight 0 and is omitted from the support.
    """
    check_integer("N", N, 1)
    table = derangements(N)
    return ExactDist(
        math.factorial(N), {x: math.comb(N, x) * table[N - x] for x in range(N + 1)}
    )


def pi_conditioned(N: int) -> ExactDist:
    """The fixed-point law conditioned on [0, N-4]."""
    check_integer("N", N, 5)
    return fixed_point_pmf(N).restrict(0, N - 4)


# ---------------------------------------------------------------------------
# the Poisson(1) reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonRef:
    """Poisson(1), weights e^{-1}/k!, with e^{-1} enclosed at `digits` digits.

    The transcendental factor enters every numeric answer only through
    inv_e_interval(digits), so distances against the reference come back
    as certified rational intervals.
    """

    digits: int

    def __post_init__(self) -> None:
        check_integer("digits", self.digits, 1)


def poisson_pmf(k_max: int, digits: int | None = None) -> PoissonRef:
    """Poisson(1) with an e^{-1} enclosure of `enclosure_digits(k_max)`
    digits, or of `digits` when given."""
    check_integer("k_max", k_max, 0)
    return PoissonRef(enclosure_digits(k_max) if digits is None else digits)


def poisson_truncated(k_max: int) -> ExactDist:
    """Poisson(1) conditioned on [0, k_max]: exactly rational, weights prop. to 1/x!,
    that is the numerators k_max!/x! over their sum.

    This is the law called zeta when k_max = N - 4.
    """
    check_integer("k_max", k_max, 0)
    nums = {x: math.perm(k_max, k_max - x) for x in range(k_max + 1)}
    return ExactDist(sum(nums.values()), nums)


def zeta_law(N: int) -> ExactDist:
    """Poisson(1) conditioned on [0, N-4]."""
    check_integer("N", N, 4)
    return poisson_truncated(N - 4)


# ---------------------------------------------------------------------------
# distances and bounds
# ---------------------------------------------------------------------------

DistLike = Union[ExactDist, PoissonRef]

_CONVENTIONS = ("half", "total")


def tv_distance(d1: DistLike, d2: DistLike, convention: str) -> Fraction | Interval:
    """Total variation distance between two laws.

    convention="half"  -> sum_x (d1 - d2)_+
    convention="total" -> sum_x |d1 - d2|  (twice the half value)

    Both laws have mass one, so the half value is the same in either order
    and the total is twice it: one positive-part sum serves all four cases.
    Exact Fraction when both inputs are ExactDist; a certified Interval when
    the Poisson reference (carrying e^{-1}) is involved, or
    PrecisionInsufficient when its enclosure of e^{-1} cannot tell the sign
    of a term.  The convention is mandatory because the two differ by a
    factor of two and the literature mixes them.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}")
    if isinstance(d1, PoissonRef):
        d1, d2 = d2, d1
    if not (isinstance(d1, ExactDist) and isinstance(d2, (ExactDist, PoissonRef))):
        raise ValueError("tv_distance needs an ExactDist and an ExactDist or a PoissonRef")
    if isinstance(d2, PoissonRef):
        half = _tv_against_poisson(d1, d2)
        return half if convention == "half" else half.scale(2)
    (m1, nums1), (m2, nums2) = d1.integer_weights, d2.integer_weights
    # d1(x) - d2(x), over m1 m2
    diffs = (n1 * m2 - nums2.get(x, 0) * m1 for x, n1 in nums1.items())
    half = Fraction(sum(diff for diff in diffs if diff > 0), m1 * m2)
    return half if convention == "half" else 2 * half


@lru_cache(maxsize=8, typed=True)  # one N's routes share the TV; an error is raised, not cached
def _tv_against_poisson(d: ExactDist, ref: PoissonRef) -> Interval:
    """sum_x (d(x) - e^{-1}/x!)_+ as the exact linear form A + B e^{-1}.

    The sign of d(x) - e^{-1}/x! is that of d(x) x! - e^{-1}, which the
    enclosure of e^{-1} decides (PrecisionInsufficient if it cannot).  The
    positive terms, all inside the support of d, give A = sum d(x), one
    integer sum over the denominator of d, and B = -sum 1/x!, that is
    -sum top!/x! over top! for the largest atom top; e^{-1} enters once.
    """
    inv_e = inv_e_interval(ref.digits)
    (lo_n, lo_d), (hi_n, hi_d) = inv_e.lo.as_integer_ratio(), inv_e.hi.as_integer_ratio()
    den, nums = d.integer_weights
    a_num, b_facts = 0, []  # b_facts: x! of each positive term
    fact = 1
    for x in range(max(nums) + 1):
        if x:
            fact *= x
        num = nums.get(x, 0)
        if num * fact * hi_d >= hi_n * den:  # d(x) x! >= hi
            a_num += num
            b_facts.append(fact)
        elif num * fact * lo_d > lo_n * den:  # lo < d(x) x! < hi
            raise PrecisionInsufficient(
                f"sign of d({x}) - e^-1/{x}! not resolved at {ref.digits} digits"
            )
    b = Fraction(-sum(fact // f for f in b_facts), fact)
    return inv_e.scale(b) + Fraction(a_num, den)


def tv_bracket(N: int) -> tuple[Fraction, Fraction]:
    """Exact bracket for the total-convention distance between pi_N and Poisson(1).

    lower = N/(N+2) * 2^{N+1}/(N+1)!,  upper = (2^{N+1} - 1)/(N+1)!.
    """
    check_integer("N", N, 1)
    fact = math.factorial(N + 1)
    lower = Fraction(N, N + 2) * Fraction(2 ** (N + 1), fact)
    upper = Fraction(2 ** (N + 1) - 1, fact)
    return lower, upper


def log_rate(N: int) -> float:
    """ln(TV(pi_N, Poisson(1))) / (N ln N), total convention: the mean of
    ln(lo) and ln(hi) of the TV against `poisson_pmf(N)`, over N ln N.

    The logarithms are taken in `decimal` at 40 significant digits: a double
    holds 17, so 23 guard digits remain before the one rounding to float.
    """
    check_integer("N", N, 4)
    tv = tv_distance(fixed_point_pmf(N), poisson_pmf(N), "total")
    if tv.lo <= 0:
        raise PrecisionInsufficient(f"TV for N={N} not resolved away from zero")
    with localcontext(Context(prec=40)):
        lo, hi = ((Decimal(q.numerator) / q.denominator).ln() for q in (tv.lo, tv.hi))
        return float((lo + hi) / 2 / (N * Decimal(N).ln()))
