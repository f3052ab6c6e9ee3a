import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from longcycles import (
    Composition,
    IntegerPartition,
    NotSeparatedError,
    Permutation,
    alpha_type,
    canonical_of_type,
    compose,
    cycle_type,
    d_vector,
    finest_blocks,
    is_alpha_separated,
    long_cycle_iter,
)


def all_perms(n):
    return [Permutation(img) for img in itertools.permutations(range(1, n + 1))]


class TestCompose:
    def test_identity_is_neutral(self):
        p = Permutation.from_cycles([[1, 2, 3]])
        assert compose(Permutation.identity(3), p) == p
        assert compose(p, Permutation.identity(3)) == p

    def test_inverse_pair(self):
        p = Permutation.from_cycles([[1, 2, 3]])
        q = Permutation.from_cycles([[1, 3, 2]])
        assert compose(p, q) == Permutation.identity(3)

    def test_three_cycle_squared(self):
        p = Permutation.from_cycles([[1, 2, 3]])
        assert compose(p, p) == Permutation.from_cycles([[1, 3, 2]])

    def test_left_action_convention(self):
        # (p∘q)(x) = p(q(x))
        p = Permutation.from_one_line("2 1 3")
        q = Permutation.from_one_line("3 1 2")
        pq = compose(p, q)
        for x in (1, 2, 3):
            assert pq(x) == p(q(x))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(3), Permutation.identity(4))

    def test_associativity_small(self):
        perms = all_perms(3)
        for a, b, c in itertools.product(perms, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestCycleType:
    def test_identity(self):
        assert cycle_type(Permutation.identity(4)).parts == (1, 1, 1, 1)

    def test_long_cycle(self):
        assert cycle_type(Permutation.from_cycles([[1, 2, 3, 4]])).parts == (4,)

    def test_four_cycle_squared(self):
        c = Permutation.from_cycles([[1, 2, 3, 4]])
        assert cycle_type(compose(c, c)).parts == (2, 2)

    def test_canonical_cycles(self):
        p = Permutation.from_cycles([[3, 1, 2], [5, 4]])
        assert p.cycles() == ((1, 2, 3), (4, 5))
        assert str(p) == "(1 2 3)(4 5)"

    @pytest.mark.parametrize("n", range(2, 6))
    def test_conjugacy_of_products(self, n):
        perms = all_perms(n)
        for p, q in itertools.product(perms, repeat=2):
            assert cycle_type(compose(p, q)) == cycle_type(compose(q, p))


class TestLongCycleIter:
    def test_n3_exact_set(self):
        got = set(long_cycle_iter(3))
        assert got == {Permutation.from_cycles([[1, 2, 3]]), Permutation.from_cycles([[1, 3, 2]])}
        assert len(got) == 2

    def test_n5_count_and_type(self):
        items = list(long_cycle_iter(5))
        assert len(items) == 24
        assert len(set(items)) == 24
        assert all(cycle_type(p).parts == (5,) for p in items)

    def test_n1_degenerate(self):
        items = list(long_cycle_iter(1))
        assert items == [Permutation.identity(1)]
        assert items[0].cycle_count == 1

    def test_lexicographic_word_order(self):
        words = [p.cycle_word() for p in long_cycle_iter(4)]
        assert words == sorted(words)
        assert words[0] == (1, 2, 3, 4)

    def test_cycle_word_rejects_several_cycles(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([[1, 2], [3, 4]]).cycle_word()

    @pytest.mark.parametrize("word", [(1, 2, 4), (1, 1, 2), (0, 1)])
    def test_from_cycle_word_rejects_non_words(self, word):
        with pytest.raises(ValueError):
            Permutation.from_cycle_word(word)


class TestSeparation:
    def test_identity_always_separated(self):
        for alpha in (Composition((4,)), Composition((2, 2)), Composition((1, 3))):
            assert is_alpha_separated(Permutation.identity(4), alpha)

    def test_cycles_equal_blocks(self):
        p = Permutation.from_cycles([[1, 2], [3, 4]])
        assert is_alpha_separated(p, Composition((2, 2)))

    def test_mixing_cycle(self):
        p = Permutation.from_cycles([[1, 3], [2, 4]])
        assert not is_alpha_separated(p, Composition((2, 2)))

    def test_single_block_separates_everything(self):
        for p in all_perms(4):
            assert is_alpha_separated(p, Composition((4,)))

    def test_alpha_type_identity(self):
        seq = alpha_type(Permutation.identity(4), Composition((2, 2)))
        assert str(seq) == "1+1 | 1+1"
        assert seq.d_vector() == (2, 2)

    def test_alpha_type_two_blocks(self):
        seq = alpha_type(Permutation.from_cycles([[1, 2], [3, 4]]), Composition((2, 2)))
        assert str(seq) == "2 | 2"
        assert seq.d_vector() == (1, 1)

    def test_alpha_type_not_separated(self):
        with pytest.raises(NotSeparatedError):
            alpha_type(Permutation.from_cycles([[1, 3], [2, 4]]), Composition((2, 2)))
        with pytest.raises(NotSeparatedError):
            d_vector(Permutation.from_cycles([[1, 3], [2, 4]]), Composition((2, 2)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_d_vector_sums_to_cycle_count(self, n):
        compositions = [
            Composition(parts)
            for parts in _compositions_of(n)
        ]
        for p in all_perms(n):
            for alpha in compositions:
                if is_alpha_separated(p, alpha):
                    assert sum(d_vector(p, alpha)) == p.cycle_count

    @pytest.mark.parametrize("n", range(1, 6))
    def test_finest_blocks_characterizes_separation(self, n):
        for p in all_perms(n):
            fine = set(finest_blocks(p).boundaries())
            for parts in _compositions_of(n):
                alpha = Composition(parts)
                assert is_alpha_separated(p, alpha) == set(alpha.boundaries()).issubset(fine)


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


class TestParsing:
    def test_one_line(self):
        p = Permutation.parse("3 1 2")
        assert p.image == (3, 1, 2)
        assert p.one_line() == "3 1 2"

    def test_cycle_text(self):
        p = Permutation.parse("(1 2 3)(4)")
        assert p.image == (2, 3, 1, 4)

    def test_cycle_text_needs_n_for_trailing_fixed_points(self):
        p = Permutation.parse("(1 3)", n=4)
        assert p.image == (3, 2, 1, 4)

    def test_canonical_print_parses_back(self):
        p = Permutation.from_one_line("4 3 2 1")
        assert Permutation.parse(str(p)) == p

    @given(st.permutations(list(range(1, 8))))
    def test_round_trip_random(self, image):
        p = Permutation(tuple(image))
        assert Permutation.parse(p.one_line()) == p
        assert Permutation.parse(str(p), n=p.n) == p

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation.from_cycles([[1, 2], [2, 3]])

    @pytest.mark.parametrize(
        "build",
        [lambda: Permutation.from_cycle_word((1, 1, 2)), lambda: Permutation.parse("(1 1 2)")],
        ids=["from_cycle_word", "parse"],
    )
    def test_repeat_within_one_cycle_is_named_as_such(self, build):
        with pytest.raises(ValueError, match="element 1 repeats within one cycle"):
            build()

    @pytest.mark.parametrize(
        "build",
        [lambda: Permutation.from_cycles([[1, 2], [2, 3]]), lambda: Permutation.parse("(1 2)(2 3)")],
        ids=["from_cycles", "parse"],
    )
    def test_element_in_two_cycles_is_named_as_such(self, build):
        with pytest.raises(ValueError, match="element 2 appears in two cycles"):
            build()

    def test_rejects_elements_outside_ground_set(self):
        with pytest.raises(ValueError):
            Permutation.parse("(1 5)", n=3)
        with pytest.raises(ValueError):
            Permutation.from_cycles([[0, 1]])

    def test_inverse(self):
        p = Permutation.from_one_line("3 1 2")
        assert compose(p, p.inverse()) == Permutation.identity(3)


def test_canonical_of_type():
    p = canonical_of_type(IntegerPartition((3, 2)))
    assert p.cycles() == ((1, 2, 3), (4, 5))
    assert cycle_type(p).parts == (3, 2)
