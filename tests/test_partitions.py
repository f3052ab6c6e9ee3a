import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from longcycles import (
    Composition,
    IntegerPartition,
    NoSuchPartError,
    PartitionSequence,
    Permutation,
    binomial,
    compositions,
    falling_factorial,
    kappa,
    lambda_coeff,
    odd_refinements,
    partition_sequences,
    partitions,
    refinement_targets,
    refinement_targets_seq,
    separated_stirling,
    stirling_first,
    z_of,
    z_of_seq,
)

P = IntegerPartition


def all_perms(n):
    return [Permutation(img) for img in itertools.permutations(range(1, n + 1))]


class TestEnumeration:
    def test_partition_counts(self):
        known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for n, count in known.items():
            assert len(list(partitions(n))) == count

    def test_reverse_lex_order(self):
        got = [p.parts for p in partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_partition_of_zero(self):
        assert [p.parts for p in partitions(0)] == [()]

    def test_compositions_in_cut_pattern_order(self):
        got = [c.parts for c in compositions(3)]
        assert got == [(3,), (2, 1), (1, 2), (1, 1, 1)]
        for n in range(1, 9):
            parts = [c.parts for c in compositions(n)]
            assert len(set(parts)) == len(parts) == 2 ** (n - 1)
        with pytest.raises(ValueError):
            list(compositions(0))

    def test_partition_sequences_count(self):
        assert len(list(partition_sequences(Composition((2, 2))))) == 4
        assert len(list(partition_sequences(Composition((3, 2))))) == 6

    @pytest.mark.parametrize("alpha", [(3, 2, 4), (1,), (2, 2, 2)])
    def test_partition_sequences_last_block_fastest(self, alpha):
        nested = [()]
        for size in alpha:
            nested = [key + (p.parts,) for key in nested for p in partitions(size)]
        got = [seq.key() for seq in partition_sequences(Composition(alpha))]
        assert got == nested

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            PartitionSequence(Composition((2, 2)), (P((2,)), P((3,))))


class TestZ:
    def test_long_cycles(self):
        for n in range(1, 8):
            assert z_of(P((n,))) == math.factorial(n - 1)

    def test_identity_class(self):
        assert z_of(P((1,) * 6)) == 1

    def test_s3_class(self):
        # transpositions in S_3, counted by enumeration
        brute = sum(1 for p in all_perms(3) if p.cycle_type() == P((2, 1)))
        assert brute == 3
        assert z_of(P((2, 1))) == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_z_matches_enumeration(self, n):
        counts = {}
        for p in all_perms(n):
            counts[p.cycle_type()] = counts.get(p.cycle_type(), 0) + 1
        for lam in partitions(n):
            assert z_of(lam) == counts.get(lam, 0)

    def test_partition_of_sn(self):
        for n in range(13):
            assert sum(z_of(lam) for lam in partitions(n)) == math.factorial(n)

    def test_z_of_seq_is_product(self):
        seq = PartitionSequence.parse("2+1 | 3")
        assert z_of_seq(seq) == z_of(P((2, 1))) * z_of(P((3,)))


def kappa_brute(mu, lam, k):
    """Direct definition: k-subsets of the individually labeled parts of mu
    whose merger yields lam."""
    count = 0
    for idxs in itertools.combinations(range(len(mu.parts)), k):
        merged = [p for i, p in enumerate(mu.parts) if i not in idxs]
        merged.append(sum(mu.parts[i] for i in idxs))
        if tuple(sorted(merged, reverse=True)) == lam.parts:
            count += 1
    return count


class TestKappa:
    def test_worked_example(self):
        assert kappa(P((2, 2, 1, 1)), P((3, 2, 1)), 2) == 4

    def test_merging_shrinks_length(self):
        assert kappa(P((3, 2, 1)), P((3, 2, 1)), 2) == 0

    def test_all_parts_merge(self):
        assert kappa(P((1, 1, 1)), P((3,)), 3) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kappa(P((2,)), P((3,)), 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_against_labeled_brute_force(self, n):
        # every split size, so the refinement counts behind kappa are checked
        # independently, up to the k = 7 splits of the odd refinements
        for lam in partitions(n):
            for mu in partitions(n):
                for k in range(2, n + 1):
                    assert kappa(mu, lam, k) == kappa_brute(mu, lam, k)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_z_weighted_merge_count(self, n):
        # sum over mu of kappa * z_mu = pairs (permutation, k-subset of its
        # cycles) whose merged lengths give lam
        for lam in partitions(n):
            for k in range(2, 6):
                weighted = sum(kappa(mu, lam, k) * z_of(mu) for mu in partitions(n))
                brute = 0
                for p in all_perms(n):
                    cycles = p.cycles()
                    for chosen in itertools.combinations(range(len(cycles)), k):
                        merged = [len(c) for i, c in enumerate(cycles) if i not in chosen]
                        merged.append(sum(len(cycles[i]) for i in chosen))
                        if tuple(sorted(merged, reverse=True)) == lam.parts:
                            brute += 1
                assert weighted == brute


class TestRefinements:
    def test_single_split(self):
        assert list(refinement_targets(P((3,)), 3)) == [(P((1, 1, 1)), 1)]

    def test_ones_cannot_split(self):
        assert list(refinement_targets(P((1, 1, 1, 1)), 3)) == []

    def test_five_into_three(self):
        got = dict(refinement_targets(P((5,)), 3))
        assert got == {P((3, 1, 1)): 1, P((2, 2, 1)): 1}

    def test_large_part_into_three(self):
        # the partitions of n into 3 parts number round(n^2 / 12), and each
        # is one split of the part n; the other partitions of n are not built
        got = list(refinement_targets(P((60,)), 3))
        assert len(got) == 300
        assert all(kap == 1 and mu.length == 3 for mu, kap in got)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_kappa(self, n):
        for lam in partitions(n):
            for k in range(2, 6):
                for mu, kap in refinement_targets(lam, k):
                    assert kap == kappa(mu, lam, k) > 0
                listed = {mu for mu, _ in refinement_targets(lam, k)}
                for mu in partitions(n):
                    if kappa(mu, lam, k) > 0:
                        assert mu in listed

    def test_odd_refinements_union(self):
        lam = P((5, 2))
        got = dict(odd_refinements(lam))
        expected = {}
        for k in (3, 5):
            expected.update(dict(refinement_targets(lam, k)))
        assert got == expected

    def test_sequence_refinements_stay_in_component(self):
        seq = PartitionSequence.parse("3 | 3")
        got = list(refinement_targets_seq(seq, 3))
        assert len(got) == 2
        for ref, kap in got:
            assert kap == 1
            assert ref.alpha == seq.alpha
            # exactly one component was split
            assert sum(a != b for a, b in zip(ref.components, seq.components)) == 1


class TestDownArrow:
    def test_simple(self):
        assert P((2,)).down_arrow(2) == P((1,))

    def test_multiset_edit(self):
        assert P((3, 2, 1)).down_arrow(3) == P((2, 2, 1))

    def test_missing_part(self):
        with pytest.raises(NoSuchPartError):
            P((3, 1)).down_arrow(2)

    def test_ones_cannot_shrink(self):
        with pytest.raises(ValueError):
            P((1, 1)).down_arrow(1)

    def test_total_drops_by_one(self):
        for n in range(2, 9):
            for lam in partitions(n):
                for size in set(lam.parts):
                    if size >= 2:
                        assert lam.down_arrow(size).n == n - 1

    def test_sequence_form(self):
        seq = PartitionSequence.parse("2 | 2")
        out = seq.down_arrow(1, 2)
        assert str(out) == "1 | 2"
        assert out.alpha.parts == (1, 2)


class TestLambdaCoeff:
    def test_worked_values(self):
        assert lambda_coeff(PartitionSequence.parse("2+1"), 1, 1) == 3
        assert lambda_coeff(PartitionSequence.parse("2+2"), 1, 1) == 2
        # two shrinkable part sizes, and a later component
        assert lambda_coeff(PartitionSequence.parse("3+2"), 1, 2) == 10
        assert lambda_coeff(PartitionSequence.parse("3+2"), 1, 1) == Fraction(5, 2)
        assert lambda_coeff(PartitionSequence.parse("2+1 | 3+3"), 2, 2) == 6

    def test_guarded_when_part_missing(self):
        with pytest.raises(NoSuchPartError):
            lambda_coeff(PartitionSequence.parse("3"), 1, 1)

    @pytest.mark.parametrize("i, j", [(0, 1), (-1, 2), (3, 1)])
    def test_component_index_out_of_range(self, i, j):
        # 0 and -1 must not wrap around to the last components
        with pytest.raises(IndexError):
            lambda_coeff(PartitionSequence.parse("3 | 2"), i, j)


class TestStirling:
    def test_diagonal(self):
        for n in range(9):
            assert stirling_first(n, n) == 1

    def test_known_small_value(self):
        brute = sum(1 for p in all_perms(4) if p.cycle_count == 2)
        assert brute == 11
        assert stirling_first(4, 2) == 11

    def test_long_cycle_column(self):
        assert stirling_first(5, 1) == 24

    def test_row_sums(self):
        for n in range(11):
            assert sum(stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)


class TestSeparatedStirling:
    def test_base_cases(self):
        for m in range(5):
            for k in range(m + 2):
                assert separated_stirling(m, m, k) == (1 if k == m else 0)

    def test_known_value(self):
        brute = sum(
            1
            for p in all_perms(4)
            if p.cycle_count == 2 and _prefix_separated(p, 2)
        )
        assert brute == 6
        assert separated_stirling(4, 2, 2) == 6

    def test_row_sum(self):
        assert sum(separated_stirling(5, 2, k) for k in range(6)) == 60
        for n in range(1, 11):
            for m in range(n + 1):
                total = sum(separated_stirling(n, m, k) for k in range(n + 1))
                assert total == math.factorial(n) // math.factorial(m)

    def test_m1_imposes_nothing(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert separated_stirling(n, 1, k) == stirling_first(n, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_enumeration(self, n):
        for m in range(n + 1):
            for k in range(n + 1):
                brute = sum(
                    1
                    for p in all_perms(n)
                    if p.cycle_count == k and _prefix_separated(p, m)
                )
                assert separated_stirling(n, m, k) == brute


def _prefix_separated(p, m):
    cyc_id = {}
    for i, cyc in enumerate(p.cycles()):
        for x in cyc:
            cyc_id[x] = i
    ids = [cyc_id[x] for x in range(1, m + 1)]
    return len(set(ids)) == len(ids)


class TestFactorialHelpers:
    def test_falling_factorial(self):
        assert falling_factorial(3, 1) == 3
        assert falling_factorial(4, 2) == 12
        assert falling_factorial(7, 0) == 1

    def test_binomial_sentinel(self):
        assert binomial(0, 1) == 0
        assert binomial(5, 2) == 10
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestParsing:
    @given(st.lists(st.integers(min_value=1, max_value=12), max_size=8))
    def test_partition_text_round_trip(self, parts):
        lam = IntegerPartition(tuple(parts))
        assert IntegerPartition.parse(str(lam)) == lam
        assert IntegerPartition.parse(lam.exponent_form()) == lam

    def test_partition_formats(self):
        assert IntegerPartition.parse("3+2+1+1").parts == (3, 2, 1, 1)
        assert IntegerPartition.parse("1^2 2^1 3^1").parts == (3, 2, 1, 1)
        assert IntegerPartition.parse("0").parts == ()
        lam = P((3, 2, 1, 1))
        assert str(lam) == "3+2+1+1"
        assert lam.exponent_form() == "1^2 2^1 3^1"
        assert IntegerPartition.parse(str(lam)) == lam
        assert IntegerPartition.parse(lam.exponent_form()) == lam

    @pytest.mark.parametrize("text", ["1^-2", "2^2 1^-2"])
    def test_negative_exponent_rejected(self, text):
        # "2^2 1^-2" would otherwise read as 2+2
        with pytest.raises(ValueError, match="negative exponent"):
            IntegerPartition.parse(text)

    def test_composition_format(self):
        alpha = Composition.parse("(2,3,1)")
        assert alpha.parts == (2, 3, 1)
        assert str(alpha) == "(2,3,1)"
        assert Composition.parse("2,3,1") == alpha
        assert alpha.blocks() == ((1, 2), (3, 5), (6, 6))
        assert alpha.boundaries() == (2, 5)

    def test_sequence_format(self):
        seq = PartitionSequence.parse("2+1 | 3")
        assert str(seq) == "2+1 | 3"
        assert seq.alpha.parts == (3, 3)
        assert seq.length == 3
        assert seq.multiplicity(1) == 1

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            IntegerPartition((3, 0))
        with pytest.raises(ValueError):
            Composition((2, 0, 1))

    @pytest.mark.parametrize("cls", [IntegerPartition, Composition])
    @pytest.mark.parametrize("parts", [(2.5,), (2.0, 1), (True, 1), ("2",)])
    def test_rejects_non_integral_parts(self, cls, parts):
        with pytest.raises(TypeError):
            cls(parts)

    @pytest.mark.parametrize("cls", [IntegerPartition, Composition])
    def test_accepts_index_integers(self, cls):
        import numpy as np

        value = cls((np.int64(2), 1))
        assert value == cls((2, 1))
        assert all(type(p) is int for p in value.parts)
