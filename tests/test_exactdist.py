"""Exact laws, derangements, distances, bounds."""
import math
from fractions import Fraction
from itertools import accumulate, permutations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfix import altcouplings, coupling, exactdist, kernels, lumping, moments, perms
from permfix.exactdist import (
    ExactDist,
    Interval,
    PoissonRef,
    PrecisionInsufficient,
    checked_weights,
    derangements,
    enclosure_digits,
    exp_interval,
    fixed_point_pmf,
    inv_e_interval,
    log_rate,
    pi_conditioned,
    poisson_pmf,
    poisson_truncated,
    tv_bracket,
    tv_distance,
    zeta_law,
)
from permfix.kernels import StochasticKernel, hat_ordering, hat_stationary
from permfix.lumping import PartitionedChain
from permfix.perms import fixed_point_sums
import exact_reference


def count_derangements_by_enumeration(n):
    return sum(
        1 for p in permutations(range(n)) if all(p[i] != i for i in range(n))
    )


def two_term_failures(table):
    """The n >= 2 at which table breaks D_n = (n-1)(D_{n-1} + D_{n-2})."""
    return [
        n for n in range(2, len(table))
        if table[n] != (n - 1) * (table[n - 1] + table[n - 2])
    ]


def empirical_fixed_point_law(n):
    counts = {}
    for p in permutations(range(n)):
        k = sum(1 for i in range(n) if p[i] == i)
        counts[k] = counts.get(k, 0) + 1
    total = math.factorial(n)
    return {k: Fraction(c, total) for k, c in counts.items()}


class TestDerangements:
    def test_convention_d0(self):
        assert derangements(0)[0] == 1

    @pytest.mark.parametrize("n", range(0, 9))
    def test_against_enumeration(self, n):
        assert derangements(n)[n] == count_derangements_by_enumeration(n)
        assert derangements(n)[n] == fixed_point_sums(n)[0][0]

    def test_known_values(self):
        assert derangements(5) == (1, 0, 1, 2, 9, 44)

    def test_two_term_recurrence_to_300(self):
        assert two_term_failures(derangements(300)) == []

    def test_late_entry_fails_running_sum(self):
        values = list(derangements(40))
        values[40] += 1
        assert two_term_failures(tuple(values)) == [40]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            derangements(-1)


class TestFixedPointPmf:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_enumeration(self, n):
        assert fixed_point_pmf(n) == empirical_fixed_point_law(n)

    def test_n4_zero_fixed_points(self):
        assert fixed_point_pmf(4)[0] == Fraction(3, 8)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_boundary_masses(self, n):
        pi = fixed_point_pmf(n)
        assert pi[n] == Fraction(1, math.factorial(n))
        assert pi.get(n - 1, 0) == 0
        assert n - 1 not in pi

    def test_support_and_total(self):
        pi = fixed_point_pmf(6)
        assert tuple(pi) == (0, 1, 2, 3, 4, 6)
        assert sum(pi.values()) == 1


class TestExactDist:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ExactDist(6, {0: 3, 1: 2})  # 1/2 + 1/3

    def test_zero_weights_dropped(self):
        d = ExactDist(1, {0: 1, 5: 0})
        assert tuple(d) == (0,)

    def test_unsorted_mapping_stored_in_increasing_order(self):
        d = ExactDist(2, {2: 1, 0: 1})
        assert list(d) == [0, 2]

    def test_read_only(self):
        d = ExactDist(1, {0: 1})
        with pytest.raises(TypeError):
            d[0] = Fraction(1, 2)
        with pytest.raises(TypeError):
            d[1] = Fraction(0)

    def test_integer_weights_reduced_and_read_only(self):
        d = ExactDist(12, {3: 6, 0: 3, 1: 3, 2: 0})
        assert d.integer_weights == (4, {0: 1, 1: 1, 3: 2})
        assert list(d.integer_weights[1]) == [0, 1, 3]
        assert d == {0: Fraction(1, 4), 1: Fraction(1, 4), 3: Fraction(1, 2)}
        assert all(type(w) is Fraction for w in d.values())
        with pytest.raises(TypeError):
            d.integer_weights[1][0] = 2

    @pytest.mark.parametrize("build", [lambda: ExactDist(4, {0: 1, 2: 3}), lambda: fixed_point_pmf(5)],
                             ids=["constructed", "cached"])
    def test_integer_weights_cannot_be_reassigned_or_deleted(self, build):
        d = build()
        before = d.integer_weights
        with pytest.raises(AttributeError):
            d.integer_weights = (1, {0: 1})
        with pytest.raises(AttributeError):
            del d.integer_weights
        assert d.integer_weights is before
        assert build().integer_weights == before

    def test_equal_by_weights(self):
        weights = {0: Fraction(1, 4), 2: Fraction(3, 4)}
        assert ExactDist(4, {0: 1, 2: 3}) == weights
        assert ExactDist(4, {0: 1, 2: 3}) == ExactDist(8, {2: 6, 0: 2})
        assert ExactDist(4, {0: 1, 2: 3}) != ExactDist(4, {0: 3, 2: 1})

    def test_equal_laws_hash_equal(self):
        # built apart, in another order and over another denominator
        law, twin = ExactDist(4, {0: 1, 2: 3}), ExactDist(8, {2: 6, 0: 2})
        assert law is not twin and hash(law) == hash(twin)
        assert hash(fixed_point_pmf(12)) == hash(ExactDist(*fixed_point_pmf(12).integer_weights))
        assert len({law, twin, ExactDist(4, {0: 3, 2: 1})}) == 2

    def test_hash_is_kept_and_read_only(self):
        law = ExactDist(8, {2: 6, 0: 2})
        with pytest.raises(AttributeError):
            law._hash = 0  # not even before the first call
        first = hash(law)
        den, nums = law.integer_weights
        assert hash(law) == first == law._hash == hash((den, tuple(nums.items())))
        with pytest.raises(AttributeError):
            law._hash = first + 1
        with pytest.raises(AttributeError):
            del law._hash
        assert hash(law) == first

    def test_negative_atom_and_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            ExactDist(1, {-1: 1})
        with pytest.raises(ValueError, match="negative entry at 1: -1/2"):
            ExactDist(2, {0: 3, 1: -1})

    @pytest.mark.parametrize("den", [0, -4, 4.0, True, Fraction(4), np.int64(4), None])
    def test_den_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError, match="den must be a positive int"):
            ExactDist(den, {0: 1, 1: 3})

    @pytest.mark.parametrize("numerator", [1.0, True, Fraction(1), np.int64(1), "1"])
    def test_numerator_must_be_an_int(self, numerator):
        # True counts as 1 and 1.0 equals 1, so either would otherwise pass
        # the sum check
        with pytest.raises(ValueError, match="must be an int"):
            ExactDist(2, {0: numerator, 1: 1})

    @pytest.mark.parametrize(
        "weights",
        [(2, {0.5: 1, 1: 1}), (1, {2.0: 1}), (2, {"a": 1, 1: 1}), (1, {0.5: 0, 0: 1}), (1, {True: 1})],
    )
    def test_non_integer_atom_rejected(self, weights):
        with pytest.raises(ValueError, match="non-negative integers"):
            ExactDist(*weights)

    def test_numpy_integer_atom_accepted(self):
        d = ExactDist(2, {np.int64(2): 1, 0: 1})
        assert d == {0: Fraction(1, 2), 2: Fraction(1, 2)}
        assert all(type(x) is int for x in d)
        assert tv_distance(d, ExactDist(1, {0: 1}), "half") == Fraction(1, 2)

    def test_restrict_renormalizes(self):
        d = fixed_point_pmf(8).restrict(0, 4)
        assert sum(d.values()) == 1
        assert tuple(d) == (0, 1, 2, 3, 4)


# den, numerators on the keys 0 and 1, the refusal, and whether a chain's
# invariant law (a mapping of weights put over one denominator) can hold it
MALFORMED_WEIGHTS = [
    (0, {0: 1, 1: 1}, "den must be a positive int, got 0", False),
    (True, {0: 1}, "den must be a positive int, got True", False),
    (4.0, {0: 1, 1: 3}, "den must be a positive int, got 4.0", False),
    (2, {0: True, 1: 1}, "numerator at 0 must be an int, got True", False),
    (2, {0: 1.0, 1: 1}, "numerator at 0 must be an int, got 1.0", False),
    (2, {0: np.int64(1), 1: 1}, f"numerator at 0 must be an int, got {np.int64(1)!r}", False),
    (2, {0: "1", 1: 1}, "numerator at 0 must be an int, got '1'", False),
    (2, {0: 3, 1: -1}, "negative entry at 1: -1/2", True),
    (2, {0: 1, 1: 2}, "sums to 3/2, not 1", True),
]


class TestCheckedWeights:
    """The one rule for exact weights, as a law, a kernel row and a chain's
    invariant law each meet it."""

    @pytest.mark.parametrize(
        "den, numerators, message, as_invariant", MALFORMED_WEIGHTS,
        ids=["den-0", "den-true", "den-float", "num-true", "num-float", "num-numpy",
             "num-str", "negative", "wrong-sum"],
    )
    def test_every_caller_refuses_with_the_rule_message(self, den, numerators, message, as_invariant):
        with pytest.raises(ValueError) as law:
            ExactDist(den, numerators)
        assert str(law.value) == message
        with pytest.raises(ValueError) as row:
            StochasticKernel((0, 1), ((den, numerators), (1, {1: 1})))
        assert str(row.value) == f"row 0: {message}"
        if as_invariant:
            identity = StochasticKernel((0, 1), ((1, {0: 1}), (1, {1: 1})))
            invariant = {k: Fraction(n, den) for k, n in numerators.items()}
            with pytest.raises(ValueError) as chain:
                PartitionedChain(kernel=identity, invariant=invariant, blocks={0: 0, 1: 0})
            assert str(chain.value) == message

    def test_reduced_zero_free_and_read_only(self):
        den, nums = checked_weights(9, {1: 0, 0: 6, 2: 3})
        assert (den, dict(nums), list(nums)) == (3, {0: 2, 2: 1}, [0, 2])
        with pytest.raises(TypeError):
            nums[0] = 1
        given = {0: 2, 1: 1}  # reduced and zero-free already: held as a copy
        held = checked_weights(3, given)[1]
        given[0] = 5
        assert held == {0: 2, 1: 1}


# (label, call, name, minimum): every public function and class that takes
# a size or a count, called with the value under test in one argument
SIZE_ARGUMENTS = [
    ("derangements", derangements, "n_max", 0),
    ("fixed_point_pmf", fixed_point_pmf, "N", 1),
    ("pi_conditioned", pi_conditioned, "N", 5),
    ("poisson_pmf", poisson_pmf, "k_max", 0),
    ("poisson_pmf-digits", lambda v: poisson_pmf(4, digits=v), "digits", 1),
    ("PoissonRef", PoissonRef, "digits", 1),
    ("poisson_truncated", poisson_truncated, "k_max", 0),
    ("zeta_law", zeta_law, "N", 4),
    ("tv_bracket", tv_bracket, "N", 1),
    ("log_rate", log_rate, "N", 4),
    ("exp_interval", lambda v: exp_interval(-1, v), "digits", 1),
    ("inv_e_interval", inv_e_interval, "digits", 1),
    ("enclosure_digits", enclosure_digits, "N", 0),
    ("state_space", kernels.state_space, "N", 0),
    ("PFunction", lambda v: kernels.PFunction(N=v, values={}), "N", 0),
    ("p_bruteforce", kernels.p_bruteforce, "N", 1),
    ("p_closedform", kernels.p_closedform, "N", 1),
    ("p_recursion", kernels.p_recursion, "N", 4),
    ("build_penta", lambda v: kernels.build_penta(v, kernels.p_closedform(5)), "N", 1),
    ("build_tridiag_tilde", lambda v: kernels.build_tridiag_tilde(v, kernels.p_closedform(5)), "N", 1),
    ("hat_ordering", kernels.hat_ordering, "N", 4),
    ("build_hat", kernels.build_hat, "N", 4),
    ("hat_stationary", kernels.hat_stationary, "N", 4),
    ("restricted_kernel", lambda v: kernels.restricted_kernel(v, "R"), "N", 5),
    ("build_restricted", kernels.build_restricted, "N", 5),
    ("poisson_reversible_penta", kernels.poisson_reversible_penta, "N", 2),
    ("reversible_pair", lambda v: kernels.reversible_pair(v, "R_tilde"), "N", 5),
    ("permutation_table", perms.permutation_table, "N", 0),
    ("iter_permutations", perms.iter_permutations, "N", 0),
    ("all_cycle_types", perms.all_cycle_types, "N", 0),
    ("fixed_point_sums", perms.fixed_point_sums, "N", 0),
    ("transposition_walk", lumping.transposition_walk, "N", 2),
    ("uniform_on_permutations", lumping.uniform_on_permutations, "N", 0),
    ("cycle_type_chain", lumping.cycle_type_chain, "N", 2),
    ("permutation_chain", lumping.permutation_chain, "N", 2),
    ("bell_numbers", moments.bell_numbers, "k_max", 0),
    ("falling_moment-N", lambda v: moments.falling_moment(v, 0), "N", 1),
    ("falling_moment-k", lambda v: moments.falling_moment(6, v), "k", 0),
    ("raw_moment_equality-N", lambda v: moments.raw_moment_equality(v, 0), "N", 1),
    ("raw_moment_equality-k", lambda v: moments.raw_moment_equality(6, v), "k", 0),
    ("eta2_fk-N", lambda v: moments.eta2_fk(v, 0), "N", 0),
    ("eta2_fk-k", lambda v: moments.eta2_fk(6, v), "k", 0),
    ("eta2_fk_bruteforce-N", lambda v: moments.eta2_fk_bruteforce(v, 0), "N", 0),
    ("eta2_fk_bruteforce-k", lambda v: moments.eta2_fk_bruteforce(6, v), "k", 0),
    ("gram", moments.gram, "N", 0),
    ("gram_bruteforce", moments.gram_bruteforce, "N", 0),
    ("coefficient_systems", moments.coefficient_systems, "N", 4),
    ("drift_certificate", coupling.drift_certificate, "N", 5),
    ("suggested_horizon", coupling.suggested_horizon, "N", 5),
    ("assemble_tv_bound-N", lambda v: coupling.assemble_tv_bound(v, 10), "N", 5),
    ("assemble_tv_bound-n", lambda v: coupling.assemble_tv_bound(10, v), "n", 0),
    ("selector_kernels", lambda v: coupling.selector_kernels(v, "r-r"), "N", 5),
    ("RunConfig-N", lambda v: coupling.RunConfig(N=v, horizon=1, replicas=1, seed=0), "N", 5),
    ("RunConfig-horizon", lambda v: coupling.RunConfig(N=8, horizon=v, replicas=1, seed=0), "horizon", 0),
    ("RunConfig-replicas", lambda v: coupling.RunConfig(N=8, horizon=1, replicas=v, seed=0), "replicas", 1),
    ("mallows_exact_pmf", altcouplings.mallows_exact_pmf, "N", 1),
    ("mallows_discrepancy-N", lambda v: altcouplings.mallows_discrepancy(v, 10, 30, 0), "N", 1),
    ("mallows_discrepancy-replicas", lambda v: altcouplings.mallows_discrepancy(10, v, 30, 0), "replicas", 1),
    ("mallows_discrepancy-K", lambda v: altcouplings.mallows_discrepancy(10, 10, v, 0), "K", 11),
    ("ascent_peak_batch-samples", lambda v: altcouplings.ascent_peak_batch(v, 0), "samples", 1),
    ("ascent_peak_batch-ns", lambda v: altcouplings.ascent_peak_batch(10, 0, ns=(4, v)), "every N in ns", 1),
    ("peak_tail_exact", altcouplings.peak_tail_exact, "N", 2),
]


class TestOneIntegerRule:
    """`check_integer`, the one type and range rule of every size and count,
    met at each size argument of the package."""

    @pytest.mark.parametrize("value", [True, 5.0, np.int64(5), "5"], ids=["bool", "float", "numpy", "str"])
    @pytest.mark.parametrize("call, name, minimum", [case[1:] for case in SIZE_ARGUMENTS],
                             ids=[case[0] for case in SIZE_ARGUMENTS])
    def test_a_non_integer_is_refused(self, call, name, minimum, value):
        with pytest.raises(ValueError) as refused:
            call(value)
        assert str(refused.value) == f"{name} must be an integer"

    @pytest.mark.parametrize("call, name, minimum", [case[1:] for case in SIZE_ARGUMENTS],
                             ids=[case[0] for case in SIZE_ARGUMENTS])
    def test_one_below_the_minimum_is_refused(self, call, name, minimum):
        with pytest.raises(ValueError) as refused:
            call(minimum - 1)
        assert str(refused.value) == f"{name} must be >= {minimum}"

    @pytest.mark.parametrize("call, value", [
        (inv_e_interval, 7), (coupling.suggested_horizon, 30), (lambda v: coupling.assemble_tv_bound(v, 10), 30),
        (derangements, 5), (fixed_point_pmf, 5), (kernels.p_closedform, 5), (poisson_truncated, 5),
    ], ids=["inv_e_interval", "suggested_horizon", "assemble_tv_bound",
            "derangements", "fixed_point_pmf", "p_closedform", "poisson_truncated"])
    def test_a_cached_size_is_refused_after_its_int_is_cached(self, call, value):
        # refused whether or not a memo sits in front: a memo keys on the
        # type too, so True, 1.0 and 1 are three keys and only 1 is a hit
        call(value)
        for same in (float(value), np.int64(value)):
            with pytest.raises(ValueError, match="must be an integer"):
                call(same)


@pytest.mark.parametrize("build", [fixed_point_pmf, kernels.p_closedform, inv_e_interval],
                         ids=lambda build: build.__name__)
def test_per_n_builders_are_built_once_and_bounded(build):
    # the routes for one N (for inv_e_interval, one digit count) share one
    # build; eight entries keep memory flat
    assert build(37) is build(37)
    assert build.cache_info().maxsize == 8
    for n in range(40, 50):
        build(n)
    assert build.cache_info().currsize == 8


class TestIntegerBuilders:
    """The builders that hand `ExactDist` integer numerators, against the
    `Fraction` formulas of `exact_reference`."""

    @pytest.mark.parametrize(
        "build", [fixed_point_pmf, pi_conditioned, zeta_law, poisson_truncated, hat_stationary],
        ids=lambda build: build.__name__,
    )
    def test_integer_weights_round_trip_in_lowest_terms(self, build):
        for n in range(5, 201):
            d = build(n)
            den, nums = d.integer_weights
            assert math.gcd(den, *nums.values()) == 1
            assert ExactDist(*d.integer_weights) == d

    def test_laws_equal_fraction_formulas(self):
        for n in range(5, 61):
            pi = exact_reference.pi_law(n)
            assert fixed_point_pmf(n) == pi
            assert fixed_point_pmf(n).integer_weights[0] == math.factorial(n)
            assert pi_conditioned(n) == exact_reference.conditioned(pi, 0, n - 4)
            assert zeta_law(n) == exact_reference.truncated_poisson(n - 4)
            assert poisson_truncated(n) == exact_reference.truncated_poisson(n)
            z = hat_ordering(n)
            assert hat_stationary(n) == {i: pi[x] for i, x in enumerate(z) if x in pi}

    def test_restrict_and_cumulative_equal_fraction_formulas(self):
        for n in range(5, 31):
            pi = exact_reference.pi_law(n)
            for lo, hi in ((0, n - 4), (2, n), (n - 2, n + 3)):
                assert fixed_point_pmf(n).restrict(lo, hi) == exact_reference.conditioned(pi, lo, hi)
            assert fixed_point_pmf(n).cumulative() == tuple(accumulate(pi.values()))
        with pytest.raises(ValueError, match="null event"):
            fixed_point_pmf(8).restrict(7, 7)


class TestPoissonRef:
    @pytest.mark.parametrize("digits", [0, -3])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError, match="digits must be >= 1"):
            poisson_pmf(4, digits=digits)
        with pytest.raises(ValueError, match="digits must be >= 1"):
            PoissonRef(digits)

    def test_negative_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_max must be >= 0"):
            poisson_pmf(-1)

    def test_enclosure_brackets_inv_e(self):
        iv = inv_e_interval(50)
        assert iv.hi - iv.lo < Fraction(1, 10 ** 50)
        assert iv.lo < Fraction(36787944117, 10 ** 11) + Fraction(1, 10 ** 10)
        # against mpmath at higher precision
        with mpmath.workdps(80):
            val = mpmath.exp(-1)
            assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator < val
            assert mpmath.mpf(iv.hi.numerator) / iv.hi.denominator > val

    @pytest.mark.parametrize("digits", [1, 2, 10, 50, 200])
    def test_inv_e_is_the_exp_enclosure_at_minus_one(self, digits):
        assert inv_e_interval(digits) == exp_interval(-1, digits)

    def test_truncation_proportional_to_inverse_factorials(self):
        zeta = poisson_truncated(4)
        ratios = [zeta[x] * math.factorial(x) for x in range(5)]
        assert len(set(ratios)) == 1
        assert zeta_law(8) == poisson_truncated(4)


LINEAR_FORM_NS = list(range(1, 51)) + [100, 150, 200]


class TestTvDistance:
    def test_identical_is_zero(self):
        d = fixed_point_pmf(6)
        assert tv_distance(d, d, "half") == 0
        assert tv_distance(d, d, "total") == 0

    def test_convention_is_mandatory(self):
        d = fixed_point_pmf(4)
        with pytest.raises(ValueError):
            tv_distance(d, d, "tv")

    def test_n4_against_mpmath_oracle(self):
        # independent oracle: plain mpmath floats, no interval machinery
        with mpmath.workdps(40):
            pi = {0: mpmath.mpf(3) / 8, 1: mpmath.mpf(1) / 3,
                  2: mpmath.mpf(1) / 4, 4: mpmath.mpf(1) / 24}
            half = mpmath.mpf(0)
            for x in range(0, 60):
                poisson = mpmath.exp(-1) / mpmath.factorial(x)
                diff = pi.get(x, mpmath.mpf(0)) - poisson
                if diff > 0:
                    half += diff
            expected = float(half)
        got = tv_distance(fixed_point_pmf(4), poisson_pmf(4), "half")
        assert isinstance(got, Interval)
        for end in (got.lo, got.hi):
            assert abs(float(end) - expected) < 1e-25
            assert abs(float(end) - 0.09951919486069309) < 1e-12

    @pytest.mark.parametrize("n", LINEAR_FORM_NS)
    def test_total_is_twice_half(self, n):
        pi, ref = fixed_point_pmf(n), poisson_pmf(n)
        half = tv_distance(pi, ref, "half")
        assert tv_distance(pi, ref, "total") == Interval(2 * half.lo, 2 * half.hi)

    def test_n4_total_in_bracket(self):
        total = tv_distance(fixed_point_pmf(4), poisson_pmf(4), "total")
        lower, upper = tv_bracket(4)
        assert total.certainly_within(lower, upper)
        for end in (total.lo, total.hi):
            assert abs(float(end) - 0.19903838972138618) < 1e-12

    def test_argument_order_symmetric_total(self):
        pi = fixed_point_pmf(5)
        ref = poisson_pmf(5)
        a = tv_distance(pi, ref, "total")
        b = tv_distance(ref, pi, "total")
        assert a.lo == b.lo and a.hi == b.hi

    @pytest.mark.parametrize("n", LINEAR_FORM_NS)
    def test_half_flipped_arguments(self, n):
        # both laws have mass one, so sum (P - pi)_+ = sum (pi - P)_+
        pi, ref = fixed_point_pmf(n), poisson_pmf(n)
        assert tv_distance(ref, pi, "half") == tv_distance(pi, ref, "half")

    @pytest.mark.parametrize("args", [
        (fixed_point_pmf(4), {0: 1}),
        ({0: 1}, fixed_point_pmf(4)),
        (poisson_pmf(4), {0: 1}),
        ({0: 1}, poisson_pmf(4)),
        (poisson_pmf(4), poisson_pmf(5)),
    ])
    def test_argument_types_checked(self, args):
        for convention in ("half", "total"):
            with pytest.raises(ValueError, match="needs an ExactDist"):
                tv_distance(*args, convention)

    def test_exact_rational_between_exact_dists(self):
        got = tv_distance(pi_conditioned(8), zeta_law(8), "half")
        assert isinstance(got, Fraction)

    @pytest.mark.parametrize("convention", ["half", "total"])
    def test_exact_dists_against_term_by_term_sum(self, convention):
        for n in range(5, 61):
            d1, d2 = pi_conditioned(n), zeta_law(n)
            assert tv_distance(d1, d2, convention) == term_by_term_tv(d1, d2, convention)
            assert tv_distance(d2, d1, convention) == term_by_term_tv(d2, d1, convention)

    @pytest.mark.parametrize("n", LINEAR_FORM_NS)
    def test_linear_form_inside_per_point_sum(self, n):
        pi, ref = fixed_point_pmf(n), poisson_pmf(n)
        for convention in ("half", "total"):
            for poisson_first in (False, True):
                args = (ref, pi) if poisson_first else (pi, ref)
                got = tv_distance(*args, convention)
                lo, hi = per_point_tv(pi, ref, convention, poisson_first)
                assert lo <= got.lo <= got.hi <= hi
                assert (float(got.lo), float(got.hi)) == (float(lo), float(hi))

    def test_undecided_sign_refused(self):
        # at 10 digits the enclosure of e^{-1} cannot tell D_30 / 30! from it
        for args in [(fixed_point_pmf(30), poisson_pmf(30, digits=10)),
                     (poisson_pmf(30, digits=10), fixed_point_pmf(30))]:
            for convention in ("half", "total"):
                with pytest.raises(PrecisionInsufficient, match="not resolved at 10 digits"):
                    tv_distance(*args, convention)

    def test_an_equal_law_and_ref_share_one_tv(self, clear_memos):
        memo = exactdist._tv_against_poisson
        half = tv_distance(fixed_point_pmf(20), poisson_pmf(20), "half")
        twin = ExactDist(*fixed_point_pmf(20).integer_weights)
        total = tv_distance(PoissonRef(enclosure_digits(20)), twin, "total")
        assert (memo.cache_info().hits, memo.cache_info().misses) == (1, 1)
        assert total == half.scale(2)
        assert memo.cache_info().maxsize == 8

    def test_a_coarse_ref_is_refused_on_every_call(self, clear_memos):
        # the error is raised each time, never cached as an answer
        memo = exactdist._tv_against_poisson
        for calls in (1, 2, 3):
            with pytest.raises(PrecisionInsufficient, match="not resolved at 10 digits"):
                tv_distance(fixed_point_pmf(30), poisson_pmf(30, digits=10), "half")
            assert (memo.cache_info().misses, memo.cache_info().currsize) == (calls, 0)


def term_by_term_tv(d1, d2, convention):
    """The distance between two exact laws, one Fraction term at a time."""
    total = Fraction(0)
    for x in sorted(set(d1) | set(d2)):
        diff = d1.get(x, 0) - d2.get(x, 0)
        if convention == "total":
            total += abs(diff)
        elif diff > 0:
            total += diff
    return total


def per_point_tv(d, ref, convention, poisson_first):
    """The distance between d and Poisson(1) as a sum of per-point intervals.

    Each difference d(x) - e^{-1}/x! (negated when the reference comes
    first) is enclosed on its own, through its own copy of the e^{-1}
    enclosure, and its positive part or absolute value is summed; the
    Poisson tail beyond the support of d enters wherever P - d is counted.
    Returns (lo, hi).
    """
    inv_e = inv_e_interval(ref.digits)
    top = max(d)
    lo = hi = Fraction(0)
    for x in range(top + 1):
        coeff = Fraction(1, math.factorial(x))
        a, b = d.get(x, 0) - inv_e.hi * coeff, d.get(x, 0) - inv_e.lo * coeff
        if poisson_first:
            a, b = -b, -a
        if convention == "half":
            a, b = max(a, 0), max(b, 0)
        elif b <= 0:
            a, b = -b, -a
        elif a < 0:
            a, b = Fraction(0), max(-a, b)
        lo, hi = lo + a, hi + b
    if convention == "total" or poisson_first:
        head = sum((Fraction(1, math.factorial(k)) for k in range(top + 1)), Fraction(0))
        lo, hi = lo + 1 - inv_e.hi * head, hi + 1 - inv_e.lo * head
    return lo, hi


def linear_form_reference(d, ref):
    """sum_x (d(x) - e^{-1}/x!)_+ as A + B e^{-1}, one `Fraction` at a time:
    A = sum d(x) and B = -sum 1/x! over the x with d(x) x! >= hi."""
    inv_e = inv_e_interval(ref.digits)
    a = b = Fraction(0)
    for x in range(max(d) + 1):
        if d.get(x, 0) * math.factorial(x) >= inv_e.hi:
            a += d[x]
            b -= Fraction(1, math.factorial(x))
    return inv_e.scale(b) + a


class TestLinearFormAgainstPoisson:
    @pytest.mark.parametrize("law, ns", [(fixed_point_pmf, range(4, 61)), (zeta_law, range(8, 31))],
                             ids=["pi", "zeta"])
    def test_equals_term_by_term_linear_form(self, law, ns):
        for n in ns:
            d, ref = law(n), poisson_pmf(n)
            assert exactdist._tv_against_poisson(d, ref) == linear_form_reference(d, ref)


class TestTvBracket:
    def test_n4(self):
        assert tv_bracket(4) == (Fraction(16, 90), Fraction(31, 120))

    def test_n1_literal_formula(self):
        assert tv_bracket(1) == (Fraction(2, 3), Fraction(3, 2))

    def test_ratio_tends_to_one(self):
        ratios = []
        for n in range(1, 51):
            lower, upper = tv_bracket(n)
            ratios.append(upper / lower)
        assert all(r > 1 for r in ratios)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] - 1 < Fraction(3, 50)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_bracket_holds_exactly(self, n):
        total = tv_distance(fixed_point_pmf(n), poisson_pmf(n), "total")
        lower, upper = tv_bracket(n)
        assert total.certainly_within(lower, upper)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_abstract_half_bound(self, n):
        half = tv_distance(fixed_point_pmf(n), poisson_pmf(n), "half")
        assert half.hi <= Fraction(2 ** n, math.factorial(n + 1))

    @pytest.mark.parametrize("n", range(2, 16))
    def test_odd_index_majorant_chain(self, n):
        # the odd-index majorant sits between the half distance and the
        # 2^{N+1}/(N+1)! cap; at N=1 it is smaller than the distance (the
        # alternating-tail signs put the positive terms at even indices), so
        # the chain genuinely starts at N=2
        half = tv_distance(fixed_point_pmf(n), poisson_pmf(n), "half")
        middle = sum(
            (
                Fraction(1, math.factorial(k + 1) * math.factorial(n - k))
                for k in range(1, n + 1, 2)
            ),
            Fraction(0),
        )
        assert half.hi <= middle
        assert middle <= Fraction(2 ** (n + 1), math.factorial(n + 1))

    def test_odd_majorant_fails_at_n1(self):
        half = tv_distance(fixed_point_pmf(1), poisson_pmf(1), "half")
        assert half.hi > Fraction(1, 2)  # odd-index sum at N=1


class TestLogRate:
    def test_n30_frozen_value(self):
        # frozen from a 120-digit mpmath evaluation of ln(tv)/(N ln N)
        assert abs(log_rate(30) - (-0.5553474730683111)) < 1e-9

    @pytest.mark.parametrize("n", list(range(4, 201)) + [300, 500])
    def test_equals_a_120_digit_evaluation(self, n):
        # the same enclosure, its logarithms taken by mpmath at 120 digits
        tv = tv_distance(fixed_point_pmf(n), poisson_pmf(n), "total")
        with mpmath.workdps(120):
            logs = mpmath.log(mp(tv.lo)) + mpmath.log(mp(tv.hi))
            expected = float(logs / 2 / (n * mpmath.log(n)))
        assert log_rate(n) == expected

    def test_low_n_finite_negative(self):
        value = log_rate(4)
        assert value < 0 and math.isfinite(value)

    def test_insufficient_precision_detected(self, monkeypatch, clear_memos):
        with pytest.raises(PrecisionInsufficient):
            tv_distance(fixed_point_pmf(30), poisson_pmf(30, digits=10), "total")
        monkeypatch.setattr(exactdist, "enclosure_digits", lambda N: 10)
        with pytest.raises(PrecisionInsufficient):
            log_rate(30)

    @pytest.mark.parametrize("n", [49, 60, 100, 200])
    def test_default_precision_resolves_total_tv(self, n):
        total = tv_distance(fixed_point_pmf(n), poisson_pmf(n), "total")
        lower, upper = tv_bracket(n)
        assert total.lo > 0
        assert total.certainly_within(lower, upper)

    @pytest.mark.parametrize("n, digits", [(1, 50), (22, 50), (23, 52), (30, 65), (100, 220)])
    def test_enclosure_digits_rule(self, n, digits):
        assert enclosure_digits(n) == digits
        assert poisson_pmf(n).digits == digits

    def test_decreasing_on_small_window(self):
        values = [log_rate(n) for n in range(10, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))


def separation_ratio_term(N, x):
    """Enclosure of 1 - pi_N(x) / P(x) = 1 - e * D_{N-x} / (N-x)!."""
    pi = fixed_point_pmf(N)
    inv_e = inv_e_interval(enclosure_digits(N))
    coeff = Fraction(1, math.factorial(x))
    # 1 - pi(x)/(e^{-1}/x!) = 1 - pi(x) x! / e^{-1}; bound via interval division
    ratio_lo = pi[x] / coeff / inv_e.hi
    ratio_hi = pi[x] / coeff / inv_e.lo
    return Interval(1 - ratio_hi, 1 - ratio_lo)


class TestSeparation:
    def test_index_n_minus_4_term_is_negative(self):
        # 1 - e D_4 / 4! = 1 - 9e/24, contradicting the claimed positive sign
        term = separation_ratio_term(20, 16)
        with mpmath.workdps(40):
            expected = float(1 - 9 * mpmath.e / 24)
        for end in (term.lo, term.hi):
            assert abs(float(end) - expected) < 1e-12
        assert term.hi <= 0

    def test_index_n_minus_3_term_is_positive(self):
        # 1 - e D_3 / 3! = 1 - e/3 > 0: the plausible intended index
        term = separation_ratio_term(20, 17)
        with mpmath.workdps(40):
            expected = float(1 - mpmath.e / 3)
        for end in (term.lo, term.hi):
            assert abs(float(end) - expected) < 1e-12
        assert term.lo >= 0


class TestInterval:
    def test_scale_negative(self):
        iv = Interval(Fraction(1), Fraction(2)).scale(-3)
        assert iv == Interval(Fraction(-6), Fraction(-3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
rationals = st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6)


def mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def series_exp_interval(x, digits):
    """`exp_interval` summed one `Fraction` term at a time (its reference):
    consecutive partial sums of sum_k (-|x|)^k / k!, stopped at the first
    term below 10^-digits, and inverted for x > 0."""
    x = Fraction(x)
    target = Fraction(1, 10 ** digits)
    term = s = Fraction(1)
    k = 0
    while abs(term) >= target:
        k += 1
        term = term * -abs(x) / k
        prev, s = s, s + term
    lo, hi = sorted((prev, s))
    return Interval(1 / hi, 1 / lo) if x > 0 else Interval(lo, hi)


class TestExpInterval:
    @PROPERTY
    @given(rationals, st.integers(1, 60))
    def test_encloses_exp(self, x, digits):
        iv = exp_interval(x, digits)
        with mpmath.workdps(120):
            assert mp(iv.lo) <= mpmath.exp(mp(x)) <= mp(iv.hi)
        assert (iv.hi - iv.lo) * 10 ** digits <= Fraction(739, 100)  # e^2 < 7.39

    def test_exact_at_zero(self):
        assert exp_interval(0, 30) == Interval(1, 1)

    @pytest.mark.parametrize(
        "x", [-1, 0, 1, Fraction(1, 3), Fraction(-1, 3), Fraction(7, 9), Fraction(-7, 9)]
    )
    @pytest.mark.parametrize("digits", [1, 2, 10, 45, 50, 200, 480])
    def test_equals_the_fraction_series(self, x, digits):
        assert exp_interval(x, digits) == series_exp_interval(x, digits)

    def test_equals_the_fraction_series_at_every_drift_argument(self):
        digits = coupling._DRIFT_DIGITS
        for N in range(5, 201):
            for theta in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                for x in (-theta / N, theta / N):
                    assert exp_interval(x, digits) == series_exp_interval(x, digits), (N, x)

    def test_equals_the_fraction_series_at_every_enclosure_digit_count(self):
        for N in range(4, 201):
            digits = enclosure_digits(N)
            assert exp_interval(-1, digits) == series_exp_interval(-1, digits), N

    @pytest.mark.parametrize("digits", [1, 2, 10, 50, 200, 480])
    def test_inv_e_ends_are_derangement_ratios(self, digits):
        """e^{-1} lies between D_k/k! and D_{k+1}/(k+1)! for the k where the
        series stops."""
        iv = inv_e_interval(digits)
        ratios = [Fraction(d, math.factorial(k)) for k, d in enumerate(derangements(500))]
        k = next(k for k, r in enumerate(ratios) if r in (iv.lo, iv.hi))
        assert {iv.lo, iv.hi} == {ratios[k], ratios[k + 1]}

    @pytest.mark.parametrize("x, digits", [(Fraction(101, 100), 10), (-2, 10), (1, 0)])
    def test_rejects_out_of_range(self, x, digits):
        with pytest.raises(ValueError):
            exp_interval(x, digits)


def intervals():
    ends = st.fractions(min_value=-10, max_value=10, max_denominator=1000)
    return st.tuples(ends, ends).map(lambda ab: Interval(min(ab), max(ab)))


def members(iv):
    t = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    return t.map(lambda s: iv.lo + s * (iv.hi - iv.lo))


def contains(iv, value):
    return iv.lo <= value <= iv.hi


class TestIntervalSoundness:
    @PROPERTY
    @given(st.data(), intervals(), st.fractions(min_value=-5, max_value=5, max_denominator=100))
    def test_scale_and_shift(self, data, a, factor):
        x = data.draw(members(a))
        assert contains(a.scale(factor), x * factor)
        assert contains(a + factor, x + factor)


def exact_weights():
    """Values a mapping of exact weights may hold: ints, `Fraction`s over
    small and factorial-sized denominators, and floats (taken exactly)."""
    dens = st.one_of(st.integers(1, 1000), st.integers(1, 80).map(math.factorial))
    return st.one_of(
        st.integers(-10 ** 30, 10 ** 30),
        st.tuples(st.integers(-10 ** 30, 10 ** 30), dens).map(lambda t: Fraction(*t)),
        st.floats(allow_nan=False, allow_infinity=False),
    )


def exact_dists():
    numerators = st.dictionaries(st.integers(0, 40), st.integers(1, 10 ** 20), min_size=1)
    return st.one_of(
        st.integers(1, 60).map(fixed_point_pmf),
        st.integers(0, 60).map(poisson_truncated),
        numerators.map(lambda nums: ExactDist(sum(nums.values()), nums)),
    )


class TestOverOneDenominator:
    @PROPERTY
    @given(st.one_of(
        st.dictionaries(st.integers(0, 50), exact_weights(), max_size=20), exact_dists()
    ))
    def test_least_common_denominator(self, weights):
        den, nums = exactdist.over_one_denominator(weights)
        assert type(den) is int and den >= 1
        assert list(nums) == list(weights)
        assert all(type(n) is int and Fraction(n, den) == Fraction(w)
                   for n, w in zip(nums.values(), weights.values()))
        # den is least exactly when no integer > 1 divides it and every numerator
        assert math.gcd(den, *nums.values()) == 1

    def test_empty_mapping(self):
        assert exactdist.over_one_denominator({}) == (1, {})

    @PROPERTY
    @given(exact_dists())
    def test_exact_dist_gives_its_integer_weights(self, law):
        assert exactdist.over_one_denominator(law) is law.integer_weights
        assert exactdist.over_one_denominator(dict(law)) == law.integer_weights
