import functools
import hashlib
import inspect
import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longcycles
from longcycles import Permutation, PlanePermutation, _plane_checks, compose, oracle, verify


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


def array_tables(perms, perms_inv, c_pi, cc):
    """The plane suite's array tables of the verticals ``perms``, the n!
    permutations in lex order, with their cycle table, and the cycle counts
    by code from ``cc``, by lex rank."""
    n = len(perms)
    counts = _plane_checks._counts_by_code(n, cc)
    return _plane_checks._array_tables(perms, perms_inv, _plane_checks._cycle_table(perms), c_pi, counts)


def transposition_tables(diags, checks=_plane_checks):
    """The plane suite's transposition tables of the diagonals ``diags``,
    built by the module ``checks``."""
    return checks._TranspositionTables(diags, checks._moves(len(diags)))


def legal_hs(n):
    """Every h = (i, j, k) with 1 <= i <= j < k <= n - 1, as rows."""
    return np.array([(i, j, k) for i in range(1, n - 1) for j in range(i, n - 1) for k in range(j + 1, n)])


def to_plane(word, pi_column):
    return PlanePermutation(tuple(int(x) + 1 for x in word), Permutation(tuple(int(y) + 1 for y in pi_column)))


class TestBatchedKernels:
    """The array kernels behind the plane suite against the scalar methods,
    on every (word, vertical) and every legal h up to n = 5, with every word
    of n in one batch."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_diagonals_cycle_counts_and_exceedances(self, n):
        perms = verticals(n)
        words = np.array(all_words(n)).reshape(-1, n) - 1
        s_img = np.array([Permutation.from_cycle_word(w).image for w in all_words(n)]).reshape(-1, n) - 1
        cc = _plane_checks._cycle_counts_by_rank(n)
        by_rank = cc[oracle._lex_rank(n, perms)]
        assert by_rank.tolist() == [to_plane(range(n), col).pi.cycle_count for col in perms.T]
        tables = array_tables(perms, np.argsort(perms, axis=0), by_rank, cc)
        t = _plane_checks._array_terms(words, s_img, tables)
        ne_refl = n - t.exc_refl - np.take_along_axis(t.trivial_refl, t.rank, axis=1)
        for i, w in enumerate(words):
            for r, col in enumerate(perms.T):
                p = to_plane(w, col)
                st, refl = p.exceedance_stats(), p.reflect().exceedance_stats()
                diagonal = np.array(p.diagonal().image) - 1
                assert t.read[i, r] == oracle._code(n, np.array(p.diagonal_from_pairs().image) - 1)
                assert t.diag[i, r] == oracle._code(n, diagonal) and t.rank[i, r] == oracle._lex_rank(n, diagonal)
                assert t.exc[i, r] == len(st.exceedances) == p.exceedance_count()
                assert n - t.exc[i, r] - t.trivial[i, r] == len(st.ntaes) == p.ntae_count()
                assert t.exc_refl[i, r] == len(refl.exceedances) and ne_refl[i, r] == len(refl.ntaes)

    def test_transposed_codes_are_exact_in_float32_up_to_the_suite_limit(self):
        # _transposed_codes multiplies in float32, exact for codes below
        # n^n <= 2^24: a plane suite limit of 9 would round codes silently
        limit = verify._SUITE_LIMITS["plane"]
        assert limit**limit <= 2**24

    @pytest.mark.parametrize("n", range(3, 6))
    def test_transposed(self, n):
        # the moved bottoms, the transposed codes and the cycle counts by code
        # against transpose_blocks; each word of the batch has its verticals
        # in its own column order, so a word read at another word's rows shows
        perms = verticals(n)
        hs = legal_hs(n)
        moves = _plane_checks._moves(n)
        words = np.array(all_words(n)) - 1
        batch = np.stack([np.roll(perms, i, axis=1) for i in range(len(words))])
        # the codes read no diagonal: perms stands in for one
        counts = _plane_checks._counts_by_code(n, _plane_checks._cycle_counts_by_rank(n))
        tables = transposition_tables(perms)
        codes, source_codes = _plane_checks._transposed_codes(words, batch, tables)
        for i, w in enumerate(words):
            new_words, bottoms = w[moves.src], batch[i][w[moves.image_src]]
            assert bottoms.shape == (n, len(hs), perms.shape[1])
            assert source_codes[i].tolist() == oracle._code(n, batch[i]).tolist()
            for r, col in enumerate(batch[i].T):
                p = to_plane(w, col)
                for t, h in enumerate(hs.tolist()):
                    q = p.transpose_blocks(tuple(h))
                    assert tuple(new_words[:, t] + 1) == q.s
                    assert tuple(bottoms[:, t, r] + 1) == tuple(map(q.pi, q.s))
                    assert codes[i, t, r] == oracle._code(n, np.array(q.pi.image) - 1)
                    assert counts[codes[i, t, r]] == q.pi.cycle_count

    def test_cycle_sums_count_the_cycles_whose_flag_holds(self):
        # with element 0 as every element's neighbour, a cycle's flag holds iff
        # its least position is no later than 0's, so some fail in most words,
        # and each sum counts the cycles of its vertical whose flag holds
        n = 5
        perms = verticals(n)
        table = _plane_checks._cycle_table(perms)
        words = np.array(all_words(n)) - 1
        keys = np.argsort(words, axis=1)
        sums = _plane_checks._cycle_sums(keys, table, np.zeros_like(table.before))
        cycles = [to_plane(range(n), col).pi.cycles() for col in perms.T]
        expected = [[sum(min(key[x - 1] for x in c) <= key[0] for c in cs) for cs in cycles] for key in keys]
        counts = [list(map(len, cycles))] * len(words)
        assert sums.tolist() == expected and (sums < counts).any()
        assert _plane_checks._cycle_sums(keys, table, table.before).tolist() == counts


@st.composite
def word_and_verticals(draw):
    """A 0-based cycle word of n = 6..8 and a batch of verticals, (n, m)
    stored element first."""
    n = draw(st.integers(6, 8))
    word = [0, *draw(st.permutations(range(1, n)))]
    columns = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=8))
    return np.array(word), np.array(columns).T.copy()


def lex_rank(image):
    """The lex rank of a permutation of range(n) from its Lehmer code, read
    without the oracle's split."""
    rest, rank = sorted(image), 0
    for x in image:
        rank = rank * len(rest) + rest.index(x)
        rest.remove(x)
    return rank


@functools.cache
def plane_sweep_parts(n):
    """The places and the head and tail luts of the plane sweep's tables,
    and the index of every head and every tail in lex order, by itertools."""
    *_, places, luts = oracle._plane_tables(n)
    h = oracle._split(n).h
    index = [{t: i for i, t in enumerate(itertools.permutations(range(n), m))} for m in (h, n - h)]
    return places, luts, index


class TestKernelsAgainstScalarRoutines:
    """The plane suite's kernels and the plane sweep's fused codes at
    n = 6..8, past the exhaustive tests above, where the lex split has more
    head digits, against the scalar routines of PlanePermutation on a drawn
    word and batch of verticals."""

    @settings(max_examples=12, deadline=None)
    @given(word_and_verticals())
    def test_plane_sweep_fused_codes(self, case):
        # per word, the head term of q = pi⁻¹'s head plus the tail term of its
        # tail is rank(s∘q) * (n + 1) + the exceedances of (s, pi)
        word, perms = case
        n = len(word)
        places, (head_lut, tail_lut), (head_index, tail_index) = plane_sweep_parts(n)
        split = oracle._split(n)
        s_img = np.array(Permutation.from_cycle_word(tuple((word + 1).tolist())).image) - 1
        pos = np.argsort(word)
        after = pos[:, None] > pos[None, :]  # after[y, x]: y after x in the word
        head, tail = oracle._split_sums((s_img * places[:, None] + after)[None], split)
        for column in perms.T.tolist():
            q = np.argsort(column).tolist()
            hd, tl = head_index[tuple(q[: split.h])], tail_index[tuple(q[split.h :])]
            fused = head_lut[head[0, hd]] + tail_lut[tail[0, tl]]
            p = to_plane(word, column)
            exceedances = len(p.exceedance_stats().exceedances)
            assert fused == lex_rank([x - 1 for x in p.diagonal().image]) * (n + 1) + exceedances

    @settings(max_examples=12, deadline=None)
    @given(word_and_verticals())
    def test_array_terms(self, case):
        # the terms of every vertical in lex order, read at the drawn ones
        word, perms = case
        n = len(word)
        planes = [to_plane(word, col) for col in perms.T]
        s_img = np.array(planes[0].s_perm().image) - 1
        lex = oracle._all_perm_rows(n).T
        cc = _plane_checks._cycle_counts_by_rank(n)
        tables = array_tables(lex, np.argsort(lex, axis=0), cc, cc)
        t = _plane_checks._array_terms(word[None], s_img[None], tables)
        trivial_refl = np.take_along_axis(t.trivial_refl, t.rank, axis=1)
        for r, p in zip(oracle._lex_rank(n, perms).tolist(), planes):
            stats, refl = p.exceedance_stats(), p.reflect().exceedance_stats()
            diagonal = np.array(p.diagonal().image) - 1
            assert t.read[0, r] == oracle._code(n, np.array(p.diagonal_from_pairs().image) - 1)
            assert t.diag[0, r] == oracle._code(n, diagonal) and t.rank[0, r] == oracle._lex_rank(n, diagonal)
            assert t.exc[0, r] == len(stats.exceedances) and t.exc_refl[0, r] == len(refl.exceedances)
            assert n - t.exc[0, r] - t.trivial[0, r] == len(stats.ntaes)
            assert n - t.exc_refl[0, r] - trivial_refl[0, r] == len(refl.ntaes)

    @settings(max_examples=12, deadline=None)
    @given(word_and_verticals(), st.data())
    def test_transpositions(self, case, data):
        # each array is checked against its own diagonal or against another
        # permutation, which every transposition of it then fails to keep
        word, perms = case
        n = len(word)
        planes = [to_plane(word, col) for col in perms.T]
        others = st.permutations(range(1, n + 1)).map(Permutation)
        diags = [p.diagonal() if data.draw(st.booleans()) else data.draw(others) for p in planes]
        diag_cols = np.array([d.image for d in diags]).T - 1
        counts = _plane_checks._counts_by_code(n, _plane_checks._cycle_counts_by_rank(n))
        tables = transposition_tables(diag_cols)
        codes, source_codes = _plane_checks._transposed_codes(word[None], perms[None], tables)
        expected = 0
        for r, (p, d) in enumerate(zip(planes, diags)):
            assert source_codes[0, r] == oracle._code(n, perms[:, r])
            for t, h in enumerate(legal_hs(n).tolist()):
                q = p.transpose_blocks(tuple(h))
                assert codes[0, t, r] == oracle._code(n, np.array(q.pi.image) - 1)
                assert counts[codes[0, t, r]] == q.pi.cycle_count
                expected += q.diagonal_from_pairs() != d or abs(q.pi.cycle_count - p.pi.cycle_count) not in (0, 2)
        assert _plane_checks._transposition_bad_count(word[None], perms[None], tables, counts) == expected


class TestPlaneSuiteSeesFaults:
    """The suite's checks compare independent routes, so a fault in one input
    shows as a nonzero bad count; with sound inputs every count is zero."""

    n = 5

    def sound_inputs(self):
        n = self.n
        word = oracle._cycle_words(n)[7]
        s_img = np.array(Permutation.from_cycle_word(tuple((word + 1).tolist())).image) - 1
        perms = verticals(n)
        cc = _plane_checks._cycle_counts_by_rank(n)
        return word, s_img, perms, np.argsort(perms, axis=0), cc[oracle._lex_rank(n, perms)], cc

    def test_sound_inputs_pass(self):
        word, s_img, *tables = self.sound_inputs()
        arrays = array_tables(*tables)
        assert _plane_checks._array_bad_counts(word[None], s_img[None], arrays) == (0, 0, 0)

    def test_corrupted_vertical(self):
        word, s_img, perms, perms_inv, c_pi, cc = self.sound_inputs()
        perms[[0, 1], 17] = perms[[1, 0], 17]  # one vertical changed after its inverse and C(pi)
        tables = array_tables(perms, perms_inv, c_pi, cc)
        diag_bad, ne_bad, _ = _plane_checks._array_bad_counts(word[None], s_img[None], tables)
        assert (diag_bad, ne_bad) == (1, 1)

    def test_corrupted_cycle_counts(self):
        word, s_img, perms, perms_inv, c_pi, cc = self.sound_inputs()
        tables = array_tables(perms, perms_inv, c_pi + 1, cc)
        _, ne_bad, refl_bad = _plane_checks._array_bad_counts(word[None], s_img[None], tables)
        assert ne_bad == refl_bad == perms.shape[1]

    def transposition_inputs(self):
        n = self.n
        words = oracle._cycle_words(n)
        diags = np.array([Permutation.from_cycle_word(tuple((w + 1).tolist())).image for w in words]).T - 1
        s_img = diags[:, 3]
        pi = np.argsort(diags, axis=0)[s_img]  # D⁻¹∘s for every D
        return words[3], pi, diags, _plane_checks._cycle_counts_by_rank(n)

    def transposition_bad_count(self, word, pi, diags, cc):
        counts = _plane_checks._counts_by_code(self.n, cc)
        return _plane_checks._transposition_bad_count(word[None], pi[None], transposition_tables(diags), counts)

    def test_corrupted_diagonal(self):
        word, pi, diags, cc = self.transposition_inputs()
        hs = legal_hs(self.n)
        assert self.transposition_bad_count(word, pi, diags, cc) == 0
        diags[[0, 1], 5] = diags[[1, 0], 5]
        assert self.transposition_bad_count(word, pi, diags, cc) == len(hs)

    def test_corrupted_cycle_count_table(self):
        word, pi, diags, cc = self.transposition_inputs()
        hs = legal_hs(self.n)
        cc[oracle._lex_rank(self.n, pi[:, 5])] += 1  # cc is a fresh array, not the cached table
        # every transposition of that array now moves the count by an odd number
        assert self.transposition_bad_count(word, pi, diags, cc) >= len(hs)

    def test_wrong_rotation_of_the_moved_images(self, monkeypatch):
        # s_{i-1}, s_j, s_k take the images of s_k, s_{i-1}, s_j: every transposed
        # array breaks its diagonal, in the kernel and in the suite's report
        monkeypatch.setattr(_plane_checks, "_TURN", (2, 0, 1))
        word, pi, diags, cc = self.transposition_inputs()
        assert self.transposition_bad_count(word, pi, diags, cc) == len(legal_hs(self.n)) * pi.shape[1]
        reports = [r for r in verify.plane_structure_reports(self.n) if r.identity == "plane:transposition_action"]
        assert [r.lhs for r in reports] == [int(r.instance.split()[2]) for r in reports]

    def test_wrong_place_value_in_the_rank_delta(self, monkeypatch):
        # the last image counted twice in the place values of _transposed_codes, in a
        # copy of the module built from its source: the codes of pi and pi' go wrong,
        # and so do their cycle counts, in the kernel and in the suite's report
        source = inspect.getsource(_plane_checks)
        sound = "places = n ** np.arange(n - 1, -1, -1)"
        assert source.count(sound) == 1
        damaged = types.ModuleType(_plane_checks.__name__)
        damaged.__package__ = _plane_checks.__package__
        exec(compile(source.replace(sound, sound + "; places[-1] = 2"), _plane_checks.__file__, "exec"), vars(damaged))
        word, pi, diags, cc = self.transposition_inputs()
        tables, counts = transposition_tables(diags, damaged), damaged._counts_by_code(self.n, cc)
        assert damaged._transposition_bad_count(word[None], pi[None], tables, counts) > 0
        assert self.transposition_bad_count(word, pi, diags, cc) == 0
        monkeypatch.setattr(longcycles, "_plane_checks", damaged)
        reports = [r for r in verify.plane_structure_reports(self.n) if r.identity == "plane:transposition_action"]
        assert all(r.lhs > 0 for r in reports)

    def test_rank_without_its_tail_term(self, monkeypatch):
        # the lex rank of s∘pi⁻¹ without the suffix of its tail, in a copy of the
        # module built from its source: the reflection identity reads the trivial
        # anti-exceedances of the reflected vertical at that rank and the cycle
        # count of s∘pi⁻¹ at its code, so the suite's report fails at every n >= 2
        source = inspect.getsource(_plane_checks)
        sound = " + oracle._take(split.suffix[tail[0]], tl, None, axis=1)"
        assert source.count(sound) == 1
        damaged = types.ModuleType(_plane_checks.__name__)
        damaged.__package__ = _plane_checks.__package__
        exec(compile(source.replace(sound, ""), _plane_checks.__file__, "exec"), vars(damaged))
        monkeypatch.setattr(longcycles, "_plane_checks", damaged)
        reports = verify.plane_structure_reports(6)
        failed = {r.instance.split()[0]: r.lhs for r in reports if not r.passed}
        assert {r.identity for r in reports if not r.passed} == {"plane:reflection_identity"}
        assert failed == {"n=2": 1, "n=3": 10, "n=4": 138, "n=5": 2280, "n=6": 63600}


class TestPlaneSuiteBatches:
    """The plane suite's batches of words against the loop of one word per
    call that it replaced, at n = 6: its own batches of 16 words, and
    batches of 7, neither of which divides the 120 words."""

    n = 6

    def tables(self, cc):
        n = self.n
        cycles, rows = oracle._cycle_rows(oracle._cycle_words(n)), oracle._all_perm_rows(n)
        arrays = array_tables(rows.T.copy(), np.argsort(rows, axis=1).T.copy(), cc, cc)
        return arrays, transposition_tables(cycles.T.copy())

    def per_word_counts(self, cc):
        """The failure counts at n of the suite's checks, one word per call."""
        words = oracle._cycle_words(self.n)
        cycles = oracle._cycle_rows(words)
        diags_inv = np.argsort(cycles, axis=1).T
        arrays, transpositions = self.tables(cc)
        bad = [0, 0, 0, 0]
        for word, s_img in zip(words, cycles):
            counts = _plane_checks._array_bad_counts(word[None], s_img[None], arrays)
            verticals = diags_inv[s_img][None]
            counts += (_plane_checks._transposition_bad_count(word[None], verticals, transpositions, arrays.counts),)
            bad = [a + b for a, b in zip(bad, counts)]
        return bad

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batch", [None, 7])  # the suite's own batches, or 7 words: 120 = 17 * 7 + 1
    def test_failure_counts_equal_the_per_word_loop(self, monkeypatch, workers, batch):
        if batch:
            monkeypatch.setattr(_plane_checks, "_PLANE_ARRAYS", batch * math.factorial(self.n))
        # a cycle count one too large at a few ranks: every check but the
        # diagonal's fails on some arrays, a different number for each word
        true_counts = _plane_checks._cycle_counts_by_rank
        damaged = true_counts(self.n).copy()
        damaged[[5, 100, 333, 719]] += 1
        monkeypatch.setattr(_plane_checks, "_cycle_counts_by_rank", lambda n: damaged if n == self.n else true_counts(n))
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        reports = verify.plane_structure_reports(self.n, workers)
        got = [r.lhs for r in reports if r.instance.startswith(f"n={self.n} ")]
        expected = self.per_word_counts(damaged)
        assert got == expected
        assert expected[0] == 0 and all(expected[1:])

    def test_a_corrupted_word_counts_alone(self):
        # word 3 of a batch of 7 with a wrong one-line image, then with two
        # rows of its verticals swapped: the batch fails exactly where that
        # word does on its own
        n = self.n
        words = oracle._cycle_words(n)
        cycles = oracle._cycle_rows(words)
        diags_inv = np.argsort(cycles, axis=1).T
        words, cycles = words[:7], cycles[:7].copy()
        cc = _plane_checks._cycle_counts_by_rank(n)
        verticals = diags_inv[cycles]
        batch = alone = self.tables(cc)
        assert _plane_checks._array_bad_counts(words, cycles, batch[0]) == (0, 0, 0)
        assert _plane_checks._transposition_bad_count(words, verticals, batch[1], batch[0].counts) == 0
        cycles[3, [1, 2]] = cycles[3, [2, 1]]
        verticals[3, [0, 4]] = verticals[3, [4, 0]]
        counts = _plane_checks._array_bad_counts(words, cycles, batch[0])
        assert counts == _plane_checks._array_bad_counts(words[3:4], cycles[3:4], alone[0]) and any(counts)
        count = _plane_checks._transposition_bad_count(words, verticals, batch[1], batch[0].counts)
        one = _plane_checks._transposition_bad_count(words[3:4], verticals[3:4], alone[1], alone[0].counts)
        assert count == one > 0


class TestClippedGathers:
    """oracle._take gathers with mode="clip", which clamps an index out of
    range instead of raising, and every clipped gather goes through it.  With
    a _take that asserts each index lies inside the gathered axis, the
    kernels give what they give without it."""

    n = 6

    @staticmethod
    def check_indices(monkeypatch):
        true_take, calls = oracle._take, []

        def take(a, indices, out, axis=None):
            size = a.size if axis is None else a.shape[axis]
            assert indices.size == 0 or 0 <= indices.min() <= indices.max() < size, (a.shape, axis)
            calls.append(indices.size)
            return true_take(a, indices, out, axis)

        monkeypatch.setattr(oracle, "_take", take)
        return calls

    def test_plane_suite(self, monkeypatch):
        expected = verify.plane_structure_reports(self.n)
        calls = self.check_indices(monkeypatch)
        assert verify.plane_structure_reports(self.n) == expected and calls

    def test_plane_codes(self, monkeypatch):
        expected = oracle._plane_codes(self.n)
        calls = self.check_indices(monkeypatch)
        assert np.array_equal(oracle._plane_codes(self.n), expected) and calls

    def test_distinct_rows(self, monkeypatch):
        perms = oracle._all_perm_rows(self.n).T
        expected = oracle._distinct_rows(perms)
        calls = self.check_indices(monkeypatch)
        got = oracle._distinct_rows(perms)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True)) and calls
