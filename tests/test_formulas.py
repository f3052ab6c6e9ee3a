import importlib
import itertools
import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from longcycles import (
    Composition,
    CountQuery,
    DimensionMismatchError,
    DomainError,
    IntegerPartition,
    Permutation,
    boccara,
    separated_pairs_by_count,
    compose,
    evaluate,
    even_factorization_count,
    hultman_expected,
    long_cycle_iter,
    odd_refinements,
    pairs_by_type,
    partitions,
    separated_stirling,
    separating_by_d,
    separating_total,
    separation_probability,
    stirling_first,
    z_of,
    zagier_stanley,
)
from longcycles.formulas import separated_pairs_by_count_raw, separating_by_d_raw, zagier_stanley_raw

P = IntegerPartition
C = Composition


def brute_pairs(n):
    cycles = list(long_cycle_iter(n))
    return [(a, b, compose(a, b)) for a in cycles for b in cycles]


class TestZagierStanley:
    def test_n3_by_enumeration(self):
        c = Permutation.from_cycles([[1, 2, 3]])
        counts = {}
        for s in long_cycle_iter(3):
            k = compose(c, s).cycle_count
            counts[k] = counts.get(k, 0) + 1
        assert counts == {1: 1, 3: 1}
        assert zagier_stanley(3, 1) == 1
        assert zagier_stanley(3, 3) == 1

    def test_n4_by_enumeration(self):
        c = Permutation.from_cycles([[1, 2, 3, 4]])
        brute = sum(1 for s in long_cycle_iter(4) if compose(c, s).cycle_count == 2)
        assert brute == 5
        assert zagier_stanley(4, 2) == 5

    def test_parity_guard(self):
        assert zagier_stanley(3, 2) == 0
        assert zagier_stanley(4, 1) == 0
        assert zagier_stanley_raw(3, 2) == Fraction(11, 6)

    def test_counts_sum_to_all_long_cycles(self):
        for n in range(1, 9):
            assert sum(zagier_stanley(n, k) for k in range(1, n + 1)) == math.factorial(n - 1)


class TestHultman:
    def test_n3_average(self):
        total = sum(t.cycle_type().multiplicity(1) for _, _, t in brute_pairs(3))
        assert Fraction(total, 4) == Fraction(3, 2)
        assert hultman_expected(3, 1) == Fraction(3, 2)

    def test_n4_two_cycles(self):
        assert hultman_expected(4, 2) == Fraction(-1, 6) + Fraction(1, 2) == Fraction(1, 3)

    def test_limit_toward_reciprocal(self):
        gaps = [abs(hultman_expected(n, 3) - Fraction(1, 3)) for n in (6, 10, 20)]
        assert gaps == sorted(gaps, reverse=True)

    def test_undefined_at_k_equal_n(self):
        with pytest.raises(DomainError):
            hultman_expected(4, 4)


class TestBoccara:
    def test_n4_k2_by_enumeration(self):
        target = Permutation.from_cycles([[1, 2], [3, 4]])
        brute = sum(
            1
            for c1 in long_cycle_iter(4)
            if compose(c1.inverse(), target).is_long_cycle()
        )
        assert brute == 2
        assert boccara(4, 2) == 2

    def test_n4_k1(self):
        assert boccara(4, 1) == 3

    def test_symmetry(self):
        for n in (2, 4, 6, 8):
            for k in range(1, n):
                assert boccara(n, k) == boccara(n, n - k)

    def test_odd_target_rejected(self):
        with pytest.raises(DomainError):
            boccara(5, 2)


class TestEvenFactorizations:
    def test_two_two(self):
        assert even_factorization_count(P((2, 2))) == 2

    def test_three_one(self):
        assert even_factorization_count(P((3, 1))) == 3

    def test_single_long_cycle_odd_n(self):
        # n=5: pairs of 5-cycles multiplying to one fixed 5-cycle
        target = Permutation.from_cycles([[1, 2, 3, 4, 5]])
        brute = sum(
            1
            for c1 in long_cycle_iter(5)
            if compose(c1.inverse(), target).is_long_cycle()
        )
        assert brute == 8
        assert even_factorization_count(P((5,))) == 8

    def test_matches_two_part_specialization(self):
        for n in (2, 4, 6, 8):
            for k in range(1, n):
                lam = P((max(k, n - k), min(k, n - k)))
                assert even_factorization_count(lam) == boccara(n, k)

    def test_odd_type_rejected(self):
        with pytest.raises(DomainError):
            even_factorization_count(P((2, 1)))

    def test_tiny_cases(self):
        assert even_factorization_count(P((1,))) == 1
        assert even_factorization_count(P((1, 1))) == 1


class TestSeparatingTotal:
    def test_two_blocks(self):
        assert separating_total(C((2, 2))) == 8
        assert 8 == math.factorial(2) * math.factorial(2) * math.factorial(2)

    def test_two_blocks_by_enumeration(self):
        brute = 0
        for _, _, t in brute_pairs(4):
            if all(((x <= 2) == (t(x) <= 2)) for x in range(1, 5)):
                brute += 1
        assert brute == 8

    def test_single_block_counts_all_pairs(self):
        for n in range(1, 8):
            assert separating_total(C((n,))) == math.factorial(n - 1) ** 2

    def test_all_singletons_forces_identity_product(self):
        for n in range(1, 8):
            assert separating_total(C((1,) * n)) == math.factorial(n - 1)


class TestSeparatingByD:
    def test_worked_values(self):
        assert separating_by_d(C((2, 2)), (1, 1)) == 2
        assert separating_by_d(C((2, 2)), (2, 2)) == 6
        assert separating_by_d(C((2, 2)), (3, 1)) == 0

    def test_parity_guard_and_raw_value(self):
        assert separating_by_d(C((2, 2)), (1, 2)) == 0
        assert separating_by_d_raw(C((2, 2)), (1, 2)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            separating_by_d(C((2, 2)), (1, 1, 1))
        with pytest.raises(ValueError):
            separating_by_d(C((2, 2)), (1, 0))

    def test_sums_to_total(self):
        for n in range(1, 8):
            for alpha_parts in _compositions_of(n):
                alpha = C(alpha_parts)
                total = sum(
                    separating_by_d(alpha, d)
                    for d in itertools.product(*(range(1, p + 1) for p in alpha_parts))
                )
                assert total == separating_total(alpha)

    def test_single_block_reduces_to_cycle_count_formula(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                expected = math.factorial(n - 1) * zagier_stanley(n, k)
                assert separating_by_d(C((n,)), (k,)) == expected

    def test_oversized_d_vanishes(self):
        assert separating_by_d(C((1, 3)), (2, 2)) == 0

    def test_single_block_at_large_n(self):
        for n, k in ((50, 2), (101, 7), (200, 2), (257, 255), (299, 1), (300, 10)):
            assert separating_by_d(C((n,)), (k,)) == math.factorial(n - 1) * zagier_stanley(n, k), (n, k)

    @pytest.mark.parametrize("parts", [(7, 9, 11), (1, 40), (13, 1, 13)])
    def test_sums_to_total_at_large_blocks(self, parts):
        alpha = C(parts)
        ds = itertools.product(*(range(1, p + 1) for p in parts))
        assert sum(separating_by_d(alpha, d) for d in ds) == separating_total(alpha)


def _compositions_of(n):
    out = []
    for cuts in itertools.product([False, True], repeat=n - 1):
        parts = []
        size = 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        out.append(tuple(parts))
    return out


class TestSeparatedPairsByCount:
    def test_worked_values(self):
        assert separated_pairs_by_count(4, 2, 2) == 16
        assert separated_pairs_by_count(4, 2, 4) == 6
        assert separated_pairs_by_count(4, 2, 3) == 0
        assert separated_pairs_by_count_raw(4, 2, 3) == Fraction(2 * 6 * 26, 18)

    def test_n4_m2_k2_by_enumeration(self):
        brute = 0
        for _, _, t in brute_pairs(4):
            cyc = {x: i for i, c in enumerate(t.cycles()) for x in c}
            if t.cycle_count == 2 and cyc[1] != cyc[2]:
                brute += 1
        assert brute == 16

    def test_m1_marginal(self):
        # with only element 1 constrained, nothing is constrained: the count
        # is (n-1)! times the count of long cycles s by product cycle count
        for n in range(2, 8):
            for k in range(1, n + 1):
                assert separated_pairs_by_count(n, 1, k) == math.factorial(n - 1) * zagier_stanley(n, k)


class TestSeparationProbability:
    def test_even_case(self):
        assert separation_probability(4, 2) == Fraction(11, 18)

    def test_odd_case(self):
        assert separation_probability(5, 2) == Fraction(1, 2)

    def test_full_separation_needs_identity_product(self):
        for n in range(2, 9):
            assert separation_probability(n, n) == Fraction(1, math.factorial(n - 1))

    def test_matches_sum_over_cycle_counts(self):
        for n in range(2, 26):
            for m in range(2, n + 1):
                total = sum(separated_pairs_by_count(n, m, k) for k in range(1, n + 1))
                assert separation_probability(n, m) == Fraction(total, math.factorial(n - 1) ** 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            separation_probability(4, 1)


class TestPairsByType:
    def test_worked_values(self):
        assert pairs_by_type(P((2, 2))) == 6
        assert pairs_by_type(P((1, 1, 1, 1))) == 6
        assert pairs_by_type(P((4,))) == 0

    def test_marginalization(self):
        from longcycles import partitions

        for n in range(1, 9):
            total = sum(pairs_by_type(lam) for lam in partitions(n))
            assert total == math.factorial(n - 1) ** 2

    def test_marginal_by_cycle_count(self):
        from longcycles import partitions

        for n in range(1, 8):
            for k in range(1, n + 1):
                total = sum(pairs_by_type(lam) for lam in partitions(n) if lam.length == k)
                assert total == math.factorial(n - 1) * zagier_stanley(n, k)

    def test_expected_cycles_consistency(self):
        from longcycles import partitions

        for n in range(2, 26):
            by_type = [(lam, pairs_by_type(lam)) for lam in partitions(n)]
            for k in range(1, n):
                total = sum(lam.multiplicity(k) * count for lam, count in by_type)
                assert hultman_expected(n, k) == Fraction(total, math.factorial(n - 1) ** 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_split_long_recurrence(self, n):
        # (n + 1 - l(lam)) P(lam) = sum of kappa P(mu) over the odd splits mu
        # of lam, plus (n-1)! z_lam, for every type lam of an even product
        for lam in partitions(n):
            if (n - lam.length) % 2:
                continue
            lhs = (n + 1 - lam.length) * pairs_by_type(lam)
            rhs = sum(kap * pairs_by_type(mu) for mu, kap in odd_refinements(lam))
            assert lhs == rhs + math.factorial(n - 1) * z_of(lam), lam


@pytest.mark.parametrize(
    "function, args",
    [
        (zagier_stanley, (0, 1)),
        (zagier_stanley, (4, 5)),
        (boccara, (4, 4)),
        (even_factorization_count, (P(()),)),
        (separating_by_d, (C((2, 2)), (1, 0))),
        (separating_by_d, (C((2, 2)), (1,))),
        (separated_pairs_by_count, (3, 4, 1)),
        (separation_probability, (3, 1)),
    ],
)
def test_an_argument_outside_the_domain_is_a_domain_error(function, args):
    # the CLI exits 3 for a DomainError, and 70 for any other ValueError
    with pytest.raises(DomainError):
        function(*args)


class TestCountQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountQuery(4, "nonsense", {})
        with pytest.raises(ValueError):
            CountQuery(4, "by_cycle_count", {})

    def test_dispatch(self):
        assert evaluate(CountQuery(4, "by_cycle_count", {"k": 2})) == 5
        assert evaluate(CountQuery(4, "by_cycle_type", {"lam": P((2, 2))})) == 6
        assert evaluate(CountQuery(4, "separated_by_alpha_d", {"alpha": C((2, 2)), "d": (1, 1)})) == 2
        assert evaluate(CountQuery(4, "separated_total", {"alpha": C((2, 2))})) == 8
        assert evaluate(CountQuery(4, "factorization_of_type", {"lam": P((2, 2))})) == 2
        assert evaluate(CountQuery(3, "expected_k_cycles", {"k": 1})) == Fraction(3, 2)
        assert evaluate(CountQuery(4, "separation_probability_m", {"m": 2})) == Fraction(11, 18)
        assert evaluate(CountQuery(4, "separated_by_m_and_count", {"m": 2, "k": 2})) == 16

    def test_to_dict_serializes_domain_values(self):
        q = CountQuery(4, "separated_by_alpha_d", {"alpha": C((2, 2)), "d": (1, 1)})
        assert q.to_dict() == {
            "n": 4,
            "kind": "separated_by_alpha_d",
            "params": {"alpha": "(2,2)", "d": [1, 1]},
        }


# ---------------------------------------------------------------------------
# the closed forms as first written, kept as references for the faster forms


def _old_even_factorization_count(lam):
    parts = lam.parts
    head = parts[0]
    acc = Fraction(0)
    for js in itertools.product(*(range(p) for p in parts[1:])):
        total = sum(js)
        term = Fraction((-1) ** total * math.factorial(total), math.perm(head + total + 1, total + 1))
        for p, j in zip(parts[1:], js):
            term *= math.comb(p, j)
        acc += term
    value = 2 * math.factorial(lam.n - 1) * acc
    assert value.denominator == 1
    return value.numerator


@cache
def _old_sep_by_d(gamma, d):
    n = sum(gamma)
    y = math.factorial(n - 1) * _old_stirling(gamma[0] + 1, d[0])
    for g, di in zip(gamma[1:], d[1:]):
        y *= _old_stirling(g, di)
    acc = Fraction(y)
    for j in range(1, len(gamma)):
        if gamma[j] >= 2:
            moved = (gamma[0] + 1,) + gamma[1:j] + (gamma[j] - 1,) + gamma[j + 1 :]
            acc -= math.comb(gamma[j], 2) * _old_sep_by_d(moved, d)
    return acc / math.comb(gamma[0] + 1, 2)


@cache
def _old_stirling(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return _old_stirling(n - 1, k - 1) + (n - 1) * _old_stirling(n - 1, k)


@cache
def _old_separated_stirling(n, m, k):
    if k < 0 or k > n:
        return 0
    if n == m:
        return 1 if k == m else 0
    return _old_separated_stirling(n - 1, m, k - 1) + (n - 1) * _old_separated_stirling(n - 1, m, k)


class TestAgainstFirstForms:
    def test_even_factorization_count(self):
        for n in range(1, 13):
            for lam in partitions(n):
                if (n - lam.length) % 2 == 0:
                    assert even_factorization_count(lam) == _old_even_factorization_count(lam), lam
        lam = P((3,) * 6)
        assert even_factorization_count(lam) == _old_even_factorization_count(lam)

    def test_separating_by_d_raw_on_every_d(self):
        for n in range(1, 9):
            for alpha_parts in _compositions_of(n):
                for d in itertools.product(*(range(1, p + 1) for p in alpha_parts)):
                    got = separating_by_d_raw(C(alpha_parts), d)
                    assert got == _old_sep_by_d(alpha_parts, d), (alpha_parts, d)

    @pytest.mark.parametrize("order", ["descending", "ascending", "shuffled"])
    def test_separating_by_d_raw_in_any_call_order(self, order, monkeypatch):
        # the kept Stirling table serves every later call it covers: in any
        # order of sizes and widths, each value is the first form's
        monkeypatch.setattr(importlib.import_module("longcycles.formulas"), "_kept_cut", ((1,),))
        cases = [
            (alpha_parts, d)
            for n in range(1, 7)
            for alpha_parts in _compositions_of(n)
            for d in itertools.product(*(range(1, p + 1) for p in alpha_parts))
        ]
        if order == "descending":
            cases.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(cases)
        for alpha_parts, d in cases:
            assert separating_by_d_raw(C(alpha_parts), d) == _old_sep_by_d(alpha_parts, d), (alpha_parts, d)

    def test_kept_stirling_table(self, monkeypatch):
        formulas = importlib.import_module("longcycles.formulas")
        monkeypatch.setattr(formulas, "_kept_cut", ((1,),))
        separating_by_d_raw(C((3, 4)), (2, 3))
        kept = formulas._kept_cut
        assert (len(kept), len(kept[0])) == (9, 4)  # rows 0..n+1, columns 0..max(d)
        assert all(row[k] == stirling_first(m, k) for m, row in enumerate(kept) for k in range(4))
        # a call that the kept table covers reads it
        separating_by_d_raw(C((2, 3)), (1, 3))
        assert formulas._kept_cut is kept
        # a table above _CUT_KEEP_ENTRIES entries lives only for its call
        assert (60 + 2) * 31 > formulas._CUT_KEEP_ENTRIES
        assert separating_by_d(C((60,)), (30,)) == math.factorial(59) * zagier_stanley(60, 30)
        assert formulas._kept_cut is kept
        # a wider call replaces the kept table with its own
        separating_by_d_raw(C((3, 4)), (3, 4))
        assert (len(formulas._kept_cut), len(formulas._kept_cut[0])) == (9, 5)

    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_stirling_rows(self, order, monkeypatch):
        # a fresh row cache, so each order builds its rows from nothing
        monkeypatch.setattr(importlib.import_module("longcycles.partitions"), "_INSERTION_ROWS", {})
        ns = range(60, -1, -1) if order == "descending" else range(61)
        for n in ns:
            assert [stirling_first(n, k) for k in range(n + 2)] == [_old_stirling(n, k) for k in range(n + 2)]
            for m in range(min(n, 6) + 1):
                got = [separated_stirling(n, m, k) for k in range(n + 2)]
                assert got == [_old_separated_stirling(n, m, k) for k in range(n + 2)], (n, m)

    def test_zagier_stanley_past_the_recursion_limit(self):
        # C(n+1, 2) = n! H_n, so the count is 2 n! H_n / (n (n+1))
        n = 1500
        harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
        assert zagier_stanley(n, 2) == 2 * math.factorial(n) * harmonic / (n * (n + 1))


@st.composite
def _blocks_and_permuted_tail(draw):
    alpha = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=5))
    d = [draw(st.integers(min_value=1, max_value=a)) for a in alpha]
    tail = draw(st.permutations(list(zip(alpha[1:], d[1:]))))
    return tuple(alpha), tuple(d), (alpha[0], *(a for a, _ in tail)), (d[0], *(di for _, di in tail))


class TestSeparationSymmetry:
    @given(_blocks_and_permuted_tail())
    def test_later_blocks_permute_freely(self, case):
        alpha, d, alpha_perm, d_perm = case
        value = separating_by_d_raw(C(alpha), d)
        assert separating_by_d_raw(C(alpha_perm), d_perm) == value
        # the recursion as first written, without the sorted key, agrees too
        assert _old_sep_by_d(alpha_perm, d_perm) == value
