import hashlib
import itertools
import json

import numpy as np
import pytest

from longcycles import Permutation, PlanePermutation, compose, oracle, plane, verify


def all_perms(n):
    return [Permutation(img) for img in itertools.permutations(range(1, n + 1))]


def all_words(n):
    return [(1,) + tail for tail in itertools.permutations(range(2, n + 1))]


def worked_example():
    """The 2x6 array with top row 1 5 4 6 2 3 and bottom row 5 4 1 3 6 2."""
    word = (1, 5, 4, 6, 2, 3)
    bottom = (5, 4, 1, 3, 6, 2)
    img = [0] * 6
    for x, y in zip(word, bottom):
        img[x - 1] = y
    return PlanePermutation(word, Permutation(tuple(img)))


class TestDiagonal:
    def test_vertical_equal_to_cycle_gives_identity(self):
        word = (1, 3, 2, 4)
        p = PlanePermutation(word, Permutation.from_cycle_word(word))
        assert p.diagonal() == Permutation.identity(4)

    def test_identity_vertical_gives_the_cycle(self):
        word = (1, 3, 4, 2)
        p = PlanePermutation(word, Permutation.identity(4))
        assert p.diagonal() == Permutation.from_cycle_word(word)

    def test_worked_example_both_computations(self):
        p = worked_example()
        assert p.diagonal() == p.diagonal_from_pairs()
        assert p.diagonal() == Permutation.parse("(1 6 3 2)(4)(5)", n=6)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pairing_matches_product_exhaustively(self, n):
        for word in all_words(n):
            for pi in all_perms(n):
                p = PlanePermutation(word, pi)
                assert p.diagonal() == p.diagonal_from_pairs()


class TestExceedances:
    def test_worked_example(self):
        st = worked_example().exceedance_stats()
        assert 1 in st.exceedances
        assert 2 in st.anti_exceedances
        assert st.exceedances == frozenset({1, 5, 6})
        assert st.anti_exceedances == frozenset({2, 3, 4})
        # one trivial anti-exceedance per cycle of the vertical: the preimage
        # of the cycle's word-order minimum
        assert st.trivial_anti_exceedances == frozenset({2, 4})
        assert st.ntaes == frozenset({3})
        assert worked_example().ntae_count() == 1

    def test_identity_vertical_all_trivial(self):
        p = PlanePermutation((1, 4, 2, 3), Permutation.identity(4))
        st = p.exceedance_stats()
        assert st.exceedances == frozenset()
        assert st.anti_exceedances == frozenset({1, 2, 3, 4})
        assert st.ntaes == frozenset()
        assert p.exceedance_count() == 0
        assert p.ntae_count() == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dichotomy_and_count_formula(self, n):
        for word in all_words(n):
            for pi in all_perms(n):
                p = PlanePermutation(word, pi)
                st = p.exceedance_stats()
                assert len(st.exceedances) + len(st.anti_exceedances) == n
                assert st.trivial_anti_exceedances <= st.anti_exceedances
                assert len(st.trivial_anti_exceedances) == pi.cycle_count
                assert len(st.ntaes) == n - pi.cycle_count - len(st.exceedances)

    def test_stats_digest_up_to_n5(self):
        # every array at n <= 5: pins the three sets, not only their sizes
        h = hashlib.sha256()
        for n in range(1, 6):
            for tail in itertools.permutations(range(2, n + 1)):
                for img in itertools.permutations(range(1, n + 1)):
                    st = PlanePermutation((1, *tail), Permutation(img)).exceedance_stats()
                    sets = (st.exceedances, st.anti_exceedances, st.trivial_anti_exceedances)
                    h.update(json.dumps([sorted(x) for x in sets]).encode())
        assert h.hexdigest() == "8d4d570fb348b840c2503f5a323267485233d22efe9a03c33361448d512e2228"

    def test_minimum_of_long_cycle_is_exceedance(self):
        # in any vertical cycle of length > 1, the word-order minimum exceeds
        for word in all_words(4):
            for pi in all_perms(4):
                p = PlanePermutation(word, pi)
                st = p.exceedance_stats()
                pos = {x: i for i, x in enumerate(word)}
                for cyc in pi.cycles():
                    if len(cyc) > 1:
                        assert min(cyc, key=pos.get) in st.exceedances


class TestTranspose:
    def test_bounds(self):
        p = PlanePermutation((1, 2, 3, 4), Permutation.identity(4))
        for h in [(0, 1, 2), (1, 3, 3), (2, 1, 3), (1, 1, 4)]:
            with pytest.raises(IndexError):
                p.transpose_blocks(h)

    def test_diagonal_preserved_small(self):
        p = PlanePermutation((1, 3, 2), Permutation.identity(3))
        q = p.transpose_blocks((1, 1, 2))
        assert q.diagonal() == p.diagonal()

    def test_equal_length_segments_involution(self):
        word = (1, 4, 2, 5, 3)
        p = PlanePermutation(word, Permutation.from_cycles([[1, 2, 3]], n=5))
        h = (1, 2, 4)  # segments of length 2 and 2
        assert p.transpose_blocks(h).transpose_blocks(h) == p

    def test_vertical_changes_at_three_images_only(self):
        word = (1, 5, 4, 6, 2, 3)
        p = PlanePermutation(word, Permutation.from_cycles([[1, 4, 2], [3, 6]], n=6))
        i, j, k = 2, 3, 5
        q = p.transpose_blocks((i, j, k))
        moved = {word[i - 1], word[j], word[k]}
        for x in range(1, 7):
            if x not in moved:
                assert q.pi(x) == p.pi(x)

    @pytest.mark.parametrize("n", range(3, 6))
    def test_action_exhaustive(self, n):
        hs = [
            (i, j, k)
            for i in range(1, n - 1)
            for j in range(i, n - 1)
            for k in range(j + 1, n)
        ]
        for word in all_words(n):
            for pi in all_perms(n):
                p = PlanePermutation(word, pi)
                d = p.diagonal()
                for h in hs:
                    q = p.transpose_blocks(h)
                    assert q.diagonal() == d
                    delta = q.pi.cycle_count - pi.cycle_count
                    assert delta in (-2, 0, 2)
                    assert q.pi.is_even() == pi.is_even()


class TestReflect:
    def test_identity_vertical_forces_zero(self):
        p = PlanePermutation((1, 3, 4, 2), Permutation.identity(4))
        assert p.ntae_count() == 0
        assert p.reflect().ntae_count() == 0

    def test_worked_example_identity(self):
        p = worked_example()
        q = p.reflect()
        lhs = p.ntae_count() + q.ntae_count()
        rhs = p.n + 1 - p.pi.cycle_count - p.diagonal().cycle_count
        assert p.ntae_count() == 1
        assert lhs == rhs == 2

    def test_reflection_swaps_vertical_and_diagonal(self):
        p = worked_example()
        q = p.reflect()
        assert q.pi == p.diagonal().inverse()
        assert q.diagonal() == p.pi.inverse()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_identity_exhaustive(self, n):
        for word in all_words(n):
            for pi in all_perms(n):
                p = PlanePermutation(word, pi)
                q = p.reflect()
                assert p.ntae_count() + q.ntae_count() == n + 1 - pi.cycle_count - p.diagonal().cycle_count


class TestSerialization:
    def test_word_normalized_to_start_at_one(self):
        p = PlanePermutation((3, 1, 2), Permutation.identity(3))
        assert p.s == (1, 2, 3)

    def test_rejects_non_words(self):
        with pytest.raises(ValueError):
            PlanePermutation((1, 2, 2), Permutation.identity(3))
        with pytest.raises(ValueError):
            PlanePermutation((1, 2, 3), Permutation.identity(4))

    def test_text_round_trip(self):
        p = worked_example()
        assert PlanePermutation.from_text(p.to_text()) == p
        assert p.to_text().splitlines()[0].split() == ["1", "5", "4", "6", "2", "3"]

    def test_from_text_rejects_a_top_row_that_is_not_a_permutation(self):
        for text in ("1 2 5\n2 1 3", "1 1 2\n2 1 3", "0 1 2\n2 1 3"):
            with pytest.raises(ValueError):
                PlanePermutation.from_text(text)

    def test_json_round_trip(self):
        p = worked_example()
        assert PlanePermutation.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "text", ['{"s": [1, 2]}', "[1, 2]", '{"s": 5, "pi": [1]}', '{"s": [1, "a"], "pi": [1, 2]}', "5", "{"]
    )
    def test_from_json_rejects_what_is_not_a_plane_permutation(self, text):
        with pytest.raises(ValueError):
            PlanePermutation.from_json(text)


def verticals(n):
    """All n! permutations of range(n), element first: column r is one vertical."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n).T.copy()


def legal_hs(n):
    """Every h = (i, j, k) with 1 <= i <= j < k <= n - 1, as rows."""
    return np.array([(i, j, k) for i in range(1, n - 1) for j in range(i, n - 1) for k in range(j + 1, n)])


def to_plane(word, pi_column):
    return PlanePermutation(tuple(int(x) + 1 for x in word), Permutation(tuple(int(y) + 1 for y in pi_column)))


class TestBatchedKernels:
    """The array kernels behind the plane suite against the scalar methods,
    on every (word, vertical) and every legal h up to n = 5."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonals_cycle_counts_and_exceedances(self, n):
        perms = verticals(n)
        by_rank = verify._cycle_counts_by_rank(n)[oracle._lex_rank(n, perms)]
        assert by_rank.tolist() == [to_plane(range(n), col).pi.cycle_count for col in perms.T]
        for word in all_words(n):
            w = np.array(word) - 1
            diags = plane._diagonals_from_pairs(w, perms)
            exc, ntae = plane._exceedance_counts(w, perms)
            for r, col in enumerate(perms.T):
                p = to_plane(w, col)
                st = p.exceedance_stats()
                assert tuple(diags[:, r] + 1) == p.diagonal().image == p.diagonal_from_pairs().image
                assert exc[r] == len(st.exceedances) == p.exceedance_count()
                assert ntae[r] == len(st.ntaes) == p.ntae_count()

    @pytest.mark.parametrize("n", range(3, 6))
    def test_transposed(self, n):
        perms = verticals(n)
        hs = legal_hs(n)
        for word in all_words(n):
            w = np.array(word) - 1
            new_words, new_perms = plane._transposed(w, perms, hs)
            assert new_perms.shape == (n, len(hs), perms.shape[1])
            for r, col in enumerate(perms.T):
                p = to_plane(w, col)
                for t, h in enumerate(hs.tolist()):
                    assert to_plane(new_words[:, t], new_perms[:, t, r]) == p.transpose_blocks(tuple(h))

    def test_cycle_minima_takes_the_least_key_on_each_cycle(self):
        # the vertical (1 3)(2 4 5), 0-based, keyed by the word order of 1 5 4 2 3
        perm = np.array([[2], [3], [0], [4], [1]])
        word = np.array([0, 4, 3, 1, 2])
        pos = np.argsort(word)
        assert plane._cycle_minima(perm, pos).ravel().tolist() == [0, 1, 0, 1, 1]


class TestPlaneSuiteSeesFaults:
    """The suite's checks compare independent routes, so a fault in one input
    shows as a nonzero bad count; with sound inputs every count is zero."""

    n = 5

    def sound_inputs(self):
        n = self.n
        word = oracle._cycle_words(n)[7]
        s_img = np.array(Permutation.from_cycle_word(tuple((word + 1).tolist())).image) - 1
        perms = verticals(n)
        cc = verify._cycle_counts_by_rank(n)
        return word, s_img, perms, np.argsort(perms, axis=0), cc[oracle._lex_rank(n, perms)], cc

    def test_sound_inputs_pass(self):
        assert verify._array_bad_counts(*self.sound_inputs()) == (0, 0, 0)

    def test_corrupted_vertical(self):
        word, s_img, perms, perms_inv, c_pi, cc = self.sound_inputs()
        perms[[0, 1], 17] = perms[[1, 0], 17]  # one vertical changed after its inverse and C(pi)
        diag_bad, ne_bad, _ = verify._array_bad_counts(word, s_img, perms, perms_inv, c_pi, cc)
        assert (diag_bad, ne_bad) == (1, 1)

    def test_corrupted_cycle_counts(self):
        word, s_img, perms, perms_inv, c_pi, cc = self.sound_inputs()
        _, ne_bad, refl_bad = verify._array_bad_counts(word, s_img, perms, perms_inv, c_pi + 1, cc)
        assert ne_bad == refl_bad == perms.shape[1]

    def transposition_inputs(self):
        n = self.n
        words = oracle._cycle_words(n)
        diags = np.array([Permutation.from_cycle_word(tuple((w + 1).tolist())).image for w in words]).T - 1
        s_img = diags[:, 3]
        pi = np.argsort(diags, axis=0)[s_img]  # D⁻¹∘s for every D
        return words[3], pi, diags, legal_hs(n), verify._cycle_counts_by_rank(n)

    def test_corrupted_diagonal(self):
        word, pi, diags, hs, cc = self.transposition_inputs()
        assert verify._transposition_bad_count(word, pi, diags, hs, cc) == 0
        diags[[0, 1], 5] = diags[[1, 0], 5]
        assert verify._transposition_bad_count(word, pi, diags, hs, cc) == len(hs)

    def test_corrupted_cycle_count_table(self):
        word, pi, diags, hs, cc = self.transposition_inputs()
        cc[oracle._lex_rank(self.n, pi[:, 5])] += 1  # cc is a fresh array, not the cached table
        # every transposition of that array now moves the count by an odd number
        assert verify._transposition_bad_count(word, pi, diags, hs, cc) >= len(hs)
