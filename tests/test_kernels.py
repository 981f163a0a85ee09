"""Kernel construction, the three routes to p, reversibility checking."""
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permfix.exactdist import fixed_point_pmf, pi_conditioned, poisson_truncated, zeta_law
from permfix.kernels import (
    KERNEL_LABELS,
    RESTRICTED_LABELS,
    PFunction,
    StochasticKernel,
    _kernel,
    birth_death_stationary,
    build_hat,
    build_penta,
    build_restricted,
    build_tridiag_tilde,
    check_reversibility,
    hat_ordering,
    hat_stationary,
    lemma_b1_bound,
    p_bruteforce,
    p_closedform,
    p_recursion,
    poisson_reversible_penta,
    prop41_bound,
    recursion_map,
    restricted_kernel,
    reversible_pair,
    state_space,
)
from permfix.lumping import cycle_type_chain, project, transposition_walk, uniform_on_permutations
from permfix.perms import EnumerationGuardError
import exact_reference


class TestPFunctions:
    def test_bruteforce_n4(self):
        p = p_bruteforce(4)
        assert p[0] == Fraction(2, 3)  # 3 double transpositions among 9 derangements
        assert p[2] == 1

    def test_bruteforce_n5_value_at_n_minus_3(self):
        assert p_bruteforce(5)[2] == 0

    def test_bruteforce_guard(self):
        with pytest.raises(EnumerationGuardError):
            p_bruteforce(9)

    def test_closedform_examples(self):
        p = p_closedform(4)
        assert p[0] == Fraction(2, 3)
        assert p[2] == 1
        assert p[1] == 0
        assert p_closedform(12)[10] == 1
        assert p_closedform(12)[9] == 0

    def test_recursion_first_step(self):
        p = p_recursion(4)
        assert p[0] == Fraction(2, 3)  # k(0) = 4*3/9 = 4/3

    def test_recursion_fixed_point_of_map(self):
        for n in (5, 9, 17):
            for x in range(0, n - 3):
                assert recursion_map(n, x, Fraction(1)) == 1

    @pytest.mark.parametrize("n", range(4, 8))
    def test_triple_agreement(self, n):
        brute = p_bruteforce(n)
        closed = p_closedform(n)
        rec = p_recursion(n)
        assert brute.values == closed.values == rec.values

    @pytest.mark.parametrize("n", range(4, 201))
    def test_closedform_equals_recursion(self, n):
        assert p_closedform(n).values == p_recursion(n).values

    @pytest.mark.parametrize("n", range(4, 31))
    def test_prop41_and_b1_bounds(self, n):
        p = p_closedform(n)
        for x in range(0, n - 1):
            gap = abs(2 * p[x] - 1)
            assert gap <= prop41_bound(n, x)
            assert gap <= lemma_b1_bound(n, x)
        for x in range(0, n - 3):
            assert Fraction(1, 4) <= p[x] <= Fraction(3, 4)

    @pytest.mark.parametrize("n", range(4, 201))
    def test_sign_alternation(self, n):
        """The forced values and Prop 4.1's sign pattern, on every route to p:
        2p(N-2-x) - 1 is positive for even x and negative for odd x."""
        routes = [p_closedform(n), p_recursion(n)] + ([p_bruteforce(n)] if n <= 8 else [])
        for p in routes:
            assert (p[n], p[n - 2], p[n - 3]) == (0, 1, 0)
            for off in range(0, n - 1):
                s = 2 * p[n - 2 - off] - 1
                assert (s > 0) if off % 2 == 0 else (s < 0)

    def test_invariant_violation_rejected(self):
        bad = dict(p_closedform(5).values)
        bad[5] = Fraction(1, 7)
        with pytest.raises(ValueError, match="targets unknown state 6"):
            build_penta(5, PFunction(N=5, values=bad))

    def test_domain_must_be_v(self):
        bad = dict(p_closedform(5).values)
        bad[4] = Fraction(0)
        with pytest.raises(ValueError, match="defined exactly on V"):
            PFunction(N=5, values=bad)

    def test_negative_value_rejected(self):
        bad = dict(p_closedform(5).values)
        bad[0] = Fraction(-1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            PFunction(N=5, values=bad)

    def test_values_are_read_only(self):
        p = p_closedform(6)
        with pytest.raises(TypeError):
            p.values[0] = -5
        assert p[0] == p_recursion(6)[0] >= 0


class TestPentaKernel:
    def test_top_row_single_move(self):
        P = build_penta(4, p_closedform(4))
        assert P.entry(4, 2) == 1

    def test_up_two_from_n_minus_2(self):
        P = build_penta(4, p_closedform(4))
        assert P.entry(2, 4) == Fraction(1, 6)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_detailed_balance(self, n):
        P = build_penta(n, p_closedform(n))
        report = check_reversibility(P, fixed_point_pmf(n))
        assert report.ok

    def test_structural_zeros(self):
        P = build_penta(8, p_closedform(8))
        assert P.bandwidth() <= 2
        # moves into the excluded state N-1 are impossible by construction
        assert 7 not in P.states

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_kolmogorov_triangle_identity(self, n):
        P = build_penta(n, p_closedform(n))
        for x in range(0, n - 4):
            lhs = P.entry(x, x + 1) * P.entry(x + 1, x + 2) * P.entry(x + 2, x)
            rhs = P.entry(x, x + 2) * P.entry(x + 2, x + 1) * P.entry(x + 1, x)
            assert lhs == rhs

    def test_negative_up_rate_rejected(self):
        p = p_closedform(6)
        inflated = dict(p.values)
        # a PFunction whose up rate N - x - 2p(x) at x = 2 is 6 - 2 - 6 < 0
        inflated[2] = Fraction(3)
        with pytest.raises(ValueError, match="row 2: negative entry at 3: -1/15"):
            build_penta(6, PFunction(N=6, values=inflated))


class TestTildeAndHat:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_tilde_reversible_and_tridiagonal(self, n):
        Pt = build_tridiag_tilde(n, p_closedform(n))
        assert Pt.bandwidth() == 1
        assert check_reversibility(Pt, fixed_point_pmf(n)).ok

    def test_tilde_bridge_entries(self):
        n = 9
        Pt = build_tridiag_tilde(n, p_closedform(n))
        assert Pt.entry(n - 2, n) == Fraction(2, n * (n - 1))
        assert Pt.entry(n, n - 2) == 1

    @pytest.mark.parametrize("n", range(4, 41))
    def test_hat_ordering_structure(self, n):
        z = hat_ordering(n)
        assert sorted(z) == list(state_space(n))
        diffs = [abs(z[i + 1] - z[i]) for i in range(len(z) - 1)]
        assert diffs.count(1) == 1  # the single 0/1 seam
        assert set(diffs) <= {1, 2}
        assert z[-1] == n

    def test_hat_ordering_matches_sketch(self):
        assert hat_ordering(6) == (3, 1, 0, 2, 4, 6)
        assert hat_ordering(7) == (4, 2, 0, 1, 3, 5, 7)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_hat_detailed_balance(self, n):
        report = check_reversibility(build_hat(n), hat_stationary(n))
        assert report.ok

    @pytest.mark.parametrize("n", [6, 9])
    def test_row_sums_via_constructor(self, n):
        # StochasticKernel validates row sums; reaching here means they hold
        for kernel in (build_penta(n, p_closedform(n)), build_hat(n)):
            assert len(kernel.states) == n


class TestRestrictedKernels:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_r_reversible_for_zeta(self, n):
        _, r, _ = build_restricted(n)
        assert check_reversibility(r, zeta_law(n)).ok

    def test_r_detailed_balance_inverse_factorial_weights(self):
        n = 10
        _, r, _ = build_restricted(n)
        for x in range(0, n - 4):
            lhs = Fraction(1, math.factorial(x)) * r.entry(x, x + 1)
            rhs = Fraction(1, math.factorial(x + 1)) * r.entry(x + 1, x)
            assert lhs == rhs

    @pytest.mark.parametrize("n", range(5, 31))
    def test_pcheck_reversible_and_stationary(self, n):
        p_check, _, _ = build_restricted(n)
        law = pi_conditioned(n)
        assert check_reversibility(p_check, law).ok
        assert birth_death_stationary(p_check) == law

    @pytest.mark.parametrize("label", ("P_tilde", "P_hat", "P_check", "R", "R_tilde"))
    def test_birth_death_stationary_equals_ratio_form(self, label):
        # every bandwidth-one kernel of the catalogue; each law but R_tilde's
        # is built without `birth_death_stationary`
        for n in range(5, 61):
            kernel, law = reversible_pair(n, label)
            stationary = birth_death_stationary(kernel)
            assert stationary == exact_reference.birth_death_stationary(kernel)
            if label != "R_tilde":
                assert stationary == law

    def test_rtilde_up_rates(self):
        n = 9
        _, _, rt = build_restricted(n)
        for x in range(0, n - 5):
            assert rt.entry(x, x + 1) == (Fraction(n - x) - Fraction(1, 2)) / (n * (n - 1))

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_poisson_reversible_full_interval(self, n):
        kernel = poisson_reversible_penta(n)
        assert kernel.states == tuple(range(n + 1))
        assert check_reversibility(kernel, poisson_truncated(n)).ok


class TestReversibilityChecker:
    def test_perturbed_kernel_fails_with_residual(self):
        n = 8
        _, r, _ = build_restricted(n)
        # bump one up-rate by 1/1000 and absorb the change on the diagonal,
        # every row over 1000 times its denominator
        bump = Fraction(1, 1000)
        rows = [(1000 * den, {t: 1000 * m for t, m in row.items()}) for den, row in r.integer_rows]
        den, row = rows[1]
        row[2] = row.get(2, 0) + den // 1000
        row[1] -= den // 1000
        perturbed = StochasticKernel(r.states, rows, label="R_perturbed")
        report = check_reversibility(perturbed, zeta_law(n))
        assert not report.ok
        assert report.first_violation is not None
        x, y, residual = report.first_violation[:3]
        assert (x, y) == (1, 2)
        zeta = zeta_law(n)
        assert type(residual) is Fraction
        assert residual == zeta[1] * perturbed.entry(1, 2) - zeta[2] * perturbed.entry(2, 1)
        assert residual == zeta[1] * bump

    def test_float_weights_give_an_exact_verdict(self):
        coin = StochasticKernel((0, 1), ((2, {0: 1, 1: 1}), (2, {0: 1, 1: 1})))
        report = check_reversibility(coin, {0: 0.1 + 0.2, 1: 0.7})
        assert not report.ok
        x, y, residual = report.first_violation
        assert (x, y) == (0, 1)
        assert type(residual) is Fraction
        assert residual == (Fraction(0.1 + 0.2) - Fraction(0.7)) / 2
        assert check_reversibility(coin, {0: 0.5, 1: 0.5}).ok

    def test_zero_weight_state_rejected(self):
        _, r, _ = build_restricted(8)
        law = {x: Fraction(1, 4) for x in range(4)}  # misses state 4
        law[4] = Fraction(0)
        with pytest.raises(ValueError):
            check_reversibility(r, law)

    def test_report_counts(self):
        n = 7
        P = build_penta(n, p_closedform(n))
        report = check_reversibility(P, fixed_point_pmf(n))
        assert report.pairs_checked == n * (n - 1) // 2


def dense_reversibility(kernel, weights):
    """All-pairs reference for `check_reversibility`: (ok, first_violation,
    pairs_checked), detailed balance scanned over every pair i < j."""
    db_ok = True
    first = None
    pairs = 0
    states = kernel.states
    for i, x in enumerate(states):
        for y in states[i + 1:]:
            lhs = weights[x] * kernel.entry(x, y)
            rhs = weights[y] * kernel.entry(y, x)
            pairs += 1
            if lhs != rhs and db_ok:
                db_ok = False
                first = (x, y, lhs - rhs)
    kol_ok = True
    for i in range(len(states) - 2):
        x, y, z = states[i], states[i + 1], states[i + 2]
        fwd = kernel.entry(x, y) * kernel.entry(y, z) * kernel.entry(z, x)
        bwd = kernel.entry(x, z) * kernel.entry(z, y) * kernel.entry(y, x)
        if fwd != bwd:
            kol_ok = False
            if first is None:
                first = (x, y, z, fwd - bwd)
    return db_ok and kol_ok, first, pairs


def json_from_entries(kernel):
    """`to_json_dict` rebuilt from `entry()`, the reduced `Fraction` of each
    nonzero entry (its reference)."""
    rows = []
    for x in kernel.states:
        cols = []
        for y in kernel.states:
            q = kernel.entry(x, y)
            if q:
                cols.append({"to": y, "num": q.numerator, "den": q.denominator})
        rows.append({"from": x, "cols": cols})
    return {"label": kernel.label, "states": list(kernel.states), "rows": rows}


def every_builder(n):
    """(kernel, its reversible law) for every kernel of the catalogue at n."""
    return [reversible_pair(n, label) for label in KERNEL_LABELS]


def bumped(kernel, moves, bump=Fraction(1, 1000)):
    """kernel with weight `bump` moved from each (x, x) to (x, y), y in moves[x];
    every row is put over bump.denominator times its denominator."""
    scale = bump.denominator
    rows = [(scale * den, {t: scale * m for t, m in row.items()}) for den, row in kernel.integer_rows]
    for x, targets in moves.items():
        den, row = rows[kernel.index(x)]
        step = den // scale * bump.numerator  # bump over den
        for y in targets:
            row[y] = row.get(y, 0) + step
            row[x] -= step
    return StochasticKernel(kernel.states, rows, label=f"{kernel.label}_bumped")


def assert_matches_dense(kernel, law):
    report = check_reversibility(kernel, law)
    assert (report.ok, report.first_violation, report.pairs_checked) == dense_reversibility(
        kernel, law
    )
    return report


class TestSparseReversibilityAgainstDense:
    @pytest.mark.parametrize("n", range(5, 13))
    def test_every_builder(self, n):
        for kernel, law in every_builder(n):
            assert assert_matches_dense(kernel, law).ok

    @pytest.mark.parametrize("n", [6, 8, 12])
    def test_every_builder_against_a_wrong_law(self, n):
        for kernel, _ in every_builder(n):
            uniform = {s: Fraction(1, len(kernel.states)) for s in kernel.states}
            assert not assert_matches_dense(kernel, uniform).ok

    def test_transposition_walk(self):
        walk = transposition_walk(4)
        assert walk.bandwidth() > 12
        assert assert_matches_dense(walk, uniform_on_permutations(4)).ok
        skewed = {s: Fraction(i + 1) for i, s in enumerate(walk.states)}
        assert not assert_matches_dense(walk, skewed).ok

    def test_transposition_walk_earliest_pair_met_from_the_later_row(self):
        walk = transposition_walk(5)
        # the lazy walk keeps half of each row in place, for `bumped` to draw on
        lazy = StochasticKernel(walk.states, [
            (2 * den, {**row, x: den}) for x, (den, row) in zip(walk.states, walk.integer_rows)
        ])
        assert check_reversibility(lazy, uniform_on_permutations(5)).ok
        assert 60 not in lazy.integer_rows[1][1] and 119 not in lazy.integer_rows[0][1]
        # row 1 gains a move to 60: the forward violation (1, 60) is met first;
        # row 119 gains a move to 0, a pair seen only from the later row, and
        # (0, 119) precedes (1, 60) in (i, j) order, so it is the first violation
        report = assert_matches_dense(bumped(lazy, {1: [60], 119: [0]}), uniform_on_permutations(5))
        assert report.first_violation[:2] == (0, 119)

    def test_penta_size_two_bump(self):
        n = 8
        penta = build_penta(n, p_closedform(n))
        report = assert_matches_dense(bumped(penta, {3: [5]}), fixed_point_pmf(n))
        assert report.first_violation[:2] == (3, 5)

    def test_bump_on_pairs_zero_in_both_directions(self):
        n = 9
        penta = build_penta(n, p_closedform(n))
        # (6, 2) lies outside the band and is seen only from the later row;
        # it precedes (4, 7) in the scan order, so it is the first violation
        report = assert_matches_dense(bumped(penta, {4: [7], 6: [2]}), fixed_point_pmf(n))
        assert report.first_violation[:2] == (2, 6)

    def test_hat_bump(self):
        n = 9
        hat = build_hat(n)
        report = assert_matches_dense(bumped(hat, {5: [4]}), hat_stationary(n))
        assert report.first_violation[:2] == (4, 5)

    def test_restricted_bump(self):
        n = 8
        _, r, _ = build_restricted(n)
        report = assert_matches_dense(bumped(r, {1: [2], 3: [2]}), zeta_law(n))
        assert report.first_violation[:2] == (1, 2)


class TestLawReadTheSameWay:
    """An `ExactDist` is read through its own numerators, a dict of the same
    weights over their least common denominator: the reports agree."""

    @pytest.mark.parametrize("n", range(5, 61))
    def test_every_pair_against_its_law_as_a_dict(self, n):
        for kernel, law in every_builder(n):
            report, plain = check_reversibility(kernel, law), check_reversibility(kernel, dict(law))
            assert report.ok
            assert (report.ok, report.pairs_checked, report.first_violation) == (
                plain.ok, plain.pairs_checked, plain.first_violation)

    def test_perturbed_kernel_residual(self):
        n = 20
        law = fixed_point_pmf(n)
        bent = bumped(build_penta(n, p_closedform(n)), {3: [5], 6: [7]})
        report, plain = check_reversibility(bent, law), check_reversibility(bent, dict(law))
        assert not report.ok
        assert (report.ok, report.pairs_checked, report.first_violation) == (
            plain.ok, plain.pairs_checked, plain.first_violation)
        x, y, residual = report.first_violation
        assert (x, y) == (3, 5)
        assert residual == law[x] * bent.entry(x, y) - law[y] * bent.entry(y, x) != 0


class TestLookupErrors:
    def test_unknown_state_raises_value_error(self):
        n = 6
        P = build_penta(n, p_closedform(n))
        assert n - 1 not in P.states
        with pytest.raises(ValueError):
            P.index(n - 1)
        with pytest.raises(ValueError):
            P.row(n - 1)
        with pytest.raises(ValueError):
            P.entry(n - 1, 0)
        with pytest.raises(ValueError):
            P.entry(0, n - 1)
        with pytest.raises(ValueError):
            P.entry(0, -1)


    def test_unknown_restricted_label(self):
        with pytest.raises(ValueError):
            restricted_kernel(8, "P")


class TestCatalogue:
    @pytest.mark.parametrize("label", KERNEL_LABELS)
    def test_kernel_carries_its_label(self, label):
        for n in (5, 6, 9):
            kernel, _ = reversible_pair(n, label)
            assert kernel.label == label

    def test_unknown_label_refused(self):
        for label in ("p", "Q", "P_tilde ", ""):
            with pytest.raises(ValueError, match="label must be one of"):
                reversible_pair(8, label)

    @pytest.mark.parametrize("label", RESTRICTED_LABELS)
    def test_restricted_label_refused_at_n4(self, label):
        with pytest.raises(ValueError, match="N >= 5"):
            reversible_pair(4, label)


class TestRowsReadOnly:
    def test_numerators_cannot_be_edited(self):
        catalogue, _ = reversible_pair(8, "R")
        chain = cycle_type_chain(6)
        for kernel in (catalogue, chain.kernel, project(chain).kernel):
            den, row = kernel.integer_rows[0]
            t = next(iter(row))
            with pytest.raises(TypeError):
                row[t] += 5
            assert sum(row.values()) == den
            rebuilt = [(d, dict(r)) for d, r in kernel.integer_rows]
            assert kernel == StochasticKernel(kernel.states, rebuilt, kernel.label)


class TestKernelValidation:
    @pytest.mark.parametrize("states, rows, message", [
        ((0, 1), ((1, {0: 1}),), "length mismatch"),
        ((0, 0), ((1, {0: 1}), (1, {0: 1})), "duplicate states"),
        ((0, 1), ((1, {0: 1}), (1, {2: 1})), "unknown state"),
        ((0, 1), ((2, {0: 3, 1: -1}), (1, {1: 1})), "negative entry"),
        ((0, 1), ((2, {0: 1}), (1, {1: 1})), "sums to 1/2"),
    ], ids=["length", "duplicate", "unknown-target", "negative", "row-sum"])
    def test_rejects(self, states, rows, message):
        with pytest.raises(ValueError, match=message):
            StochasticKernel(states, rows)

    @pytest.mark.parametrize("den", [0, -2, 2.0, True, Fraction(2), None])
    def test_den_must_be_a_positive_int(self, den):
        # (0, {}) is a row with no mass at all, which `check_reversibility`
        # would otherwise pass
        for row in ((den, {0: 1, 1: 1}), (den, {})):
            with pytest.raises(ValueError, match="den must be a positive int"):
                StochasticKernel((0, 1), (row, (1, {1: 1})))

    @pytest.mark.parametrize("numerator", [1.0, True, Fraction(1), "1"])
    def test_numerator_must_be_an_int(self, numerator):
        # True counts as 1 and 1.0 equals 1, so either would otherwise pass
        # the row-sum check
        with pytest.raises(ValueError, match="must be an int"):
            StochasticKernel((0, 1), ((2, {0: 1, 1: numerator}), (1, {1: 1})))

    def test_unreduced_and_mixed_denominators_compare_equal(self):
        states = (0, 1)
        reduced = StochasticKernel(states, [(4, {0: 1, 1: 3}), (1, {1: 1})])
        mixed = StochasticKernel(states, [(8, {0: 2, 1: 6}), (3, {0: 0, 1: 3})])
        unreduced = StochasticKernel(states, [(12, {0: 3, 1: 9}), (5, {0: 0, 1: 5})])
        assert reduced == mixed == unreduced
        assert unreduced.integer_rows == ((4, {0: 1, 1: 3}), (1, {1: 1}))
        relabelled = StochasticKernel(states, [(4, {0: 1, 1: 3}), (1, {1: 1})], "L")
        assert reduced != relabelled
        for n in (5, 30):
            for label in KERNEL_LABELS:
                kernel, _ = reversible_pair(n, label)
                over_lcm = []  # each row read as Fractions, put back over their lcm
                for row in kernel.rows:
                    den = math.lcm(*(w.denominator for w in row.values()))
                    over_lcm.append((den, {t: int(w * den) for t, w in row.items()}))
                assert kernel == StochasticKernel(kernel.states, over_lcm, label)
                doubled = [
                    (2 * den, {t: 2 * m for t, m in row.items()}) for den, row in kernel.integer_rows
                ]
                assert kernel == StochasticKernel(kernel.states, doubled, label)

    @pytest.mark.parametrize("n", [5, 30, 50])
    def test_reads_are_reduced_fractions(self, n):
        for label in KERNEL_LABELS:
            kernel, _ = reversible_pair(n, label)
            for x, row in zip(kernel.states, kernel.rows):
                assert row == kernel.row(x)
                for y, w in row.items():
                    assert type(w) is Fraction and w > 0
                    assert math.gcd(w.numerator, w.denominator) == 1
                    assert kernel.entry(x, y) == w
            assert kernel.to_json_dict() == json_from_entries(kernel)

    def test_birth_death_negative_diagonal_raises(self):
        # an up-rate of 40/(N(N-1)) = 4/3 at N=6 leaves the diagonal at -1/3
        with pytest.raises(ValueError, match="negative entry"):
            _kernel((0, 1, 2), [(30, {1: 40}), (30, {}), (30, {})], "inflated")


class TestEveryBuilder:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(5, 200))
    def test_stochastic_banded_and_reversible(self, n):
        for kernel, law in every_builder(n):
            assert all(sum(row.values()) == 1 for row in kernel.rows)
            if kernel.label in ("P", "P_bar"):
                assert kernel.bandwidth() <= 2
            else:
                assert kernel.bandwidth() == 1
            assert check_reversibility(kernel, law).ok

    def test_rows_match_frozen_digests(self):
        # sha256 of the JSON rows at N = 5, 8, 13, 30, one digest per kernel;
        # any change to a rate changes its digest
        golden = {
            "P": "40a63b94e59ecbc6bce4b35b9944aebb7388a4517a635125d2b783b8278047c1",
            "P_tilde": "69d7272333af47e286831fff9cbd8773416e665e841833901791b170cb903fdf",
            "P_hat": "02584d6b3022780809595b4b03e8bd6012a256e3d282ebdca2323a7e7db47930",
            "P_check": "9e615cc39845c743112ccb7cd175f270f08994c53fdc7394f1ba502f44e64795",
            "R": "1f75790eee6739d98671e4532f29dc05237705cd40d6a2abb1782e466e088e05",
            "R_tilde": "87254922255fc14b135d2007b29792fc1915de76c14cf49c147213e5828d8cd2",
            "P_bar": "82f17f793c23c7aff8563f9d7fb634353c3ee7979e574a944fe3ee40a1afc0b3",
        }
        rows = {label: [] for label in golden}
        for n in (5, 8, 13, 30):
            for kernel, _ in every_builder(n):
                rows[kernel.label].append(kernel.to_json_dict())
        digests = {
            label: hashlib.sha256(
                json.dumps(dicts, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()
            for label, dicts in rows.items()
        }
        assert digests == golden
