import ast
import functools
import gc
import hashlib
import itertools
import json
import logging
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longcycles import (
    Composition,
    DomainError,
    IntegerPartition,
    Permutation,
    PlanePermutation,
    ResourceLimitError,
    alpha_type,
    boccara,
    canonical_of_type,
    compose,
    compositions,
    count_factorizations,
    cycle_type,
    even_factorization_count,
    is_alpha_separated,
    expected_k_cycles,
    long_cycle_iter,
    pairs_separating_prefix,
    partition_sequences,
    partitions,
    sweep_fixed_diagonal,
    sweep_pairs,
    z_of,
)
from longcycles import oracle, verify
from longcycles.partitions import _partition_list, format_type_key
from longcycles.oracle import (
    CountTable,
    OracleResult,
    _all_perm_rows,
    _cycle_rows,
    _cycle_type,
    _cycle_words,
    _diag_rows,
    _fact_chunk,
    _lex_rank,
    _pair_tables,
    _plane_codes,
    _plane_array,
    _sep_prefixes,
    _key_sums,
    _keys,
    _signatures,
    product_pair_counts,
)

P = IntegerPartition
C = Composition


def _min_lengths(perms):
    """``lens[x, r]`` = the length of the cycle of x under perms[:, r] when x
    is the least element of that cycle, else 0, for an (n, m) batch stored
    element first: the length rows whose codes oracle._length_codes
    computes, by a plain orbit walk and a bincount, as the reference."""
    n, m = perms.shape
    # low[y, r]: the least of y, pi(y), ..., pi^(n-1)(y), one step of pi at a time
    orbit, columns = np.arange(n)[:, None].repeat(m, axis=1), np.arange(m)
    low = orbit.copy()
    for _ in range(n - 1):
        orbit = perms[orbit, columns]
        np.minimum(low, orbit, out=low)
    # lens[x, r] counts the y with low[y, r] == x: one bincount of x * m + r
    low *= m
    low += np.arange(m)
    return np.bincount(low.ravel(), minlength=n * m).reshape(n, m)


def _chunk(n, lo, hi):
    """_fact_chunk over the head groups lo..hi-1, with tables of its own."""
    return _fact_chunk(n, _pair_tables(n), lo, hi)


@pytest.fixture
def fresh_pair_counts(clear_pair_caches):
    """The pair counts computed anew, with every cache derived from them cleared."""

    def fresh(n, workers):
        clear_pair_caches()
        return product_pair_counts(n, workers)

    return fresh


class TestSweepPairs:
    def test_n4_cycle_type_table(self):
        res = sweep_pairs(4)
        table = res.tables["cycle_type"]
        assert table["2+2"] == 6
        assert table["3+1"] == 24
        assert table["1+1+1+1"] == 6
        assert table["4"] == 0
        assert table["2+1+1"] == 0
        assert table.total() == res.total == 36

    def test_every_partition_is_a_key(self):
        res = sweep_pairs(5)
        assert set(res.tables["cycle_type"]) == {str(lam) for lam in partitions(5)}

    def test_parity_infeasible_cells_are_zero(self):
        for n in range(2, 7):
            res = sweep_pairs(n)
            for lam in partitions(n):
                if (n - lam.length) % 2:
                    assert res.tables["cycle_type"][str(lam)] == 0

    def test_n4_alpha_tables(self):
        res = sweep_pairs(4, C((2, 2)))
        assert res.tables["d_vector"].items() == [("(1,1)", 2), ("(2,2)", 6)]
        assert res.tables["alpha_type"].items() == [("1+1 | 1+1", 6), ("2 | 2", 2)]
        assert res.separated_total() == 8

    def test_n1_degenerate(self):
        res = sweep_pairs(1)
        assert res.total == 1
        assert res.tables["cycle_type"]["1"] == 1

    def test_guard(self, monkeypatch):
        # the signatures are the sweep's first step: n = 9 reaches them, so it
        # passes both guards, and n = 10 is refused before them
        class Reached(Exception):
            pass

        def reached(n):
            raise Reached(n)

        monkeypatch.setattr(oracle, "_signatures", reached)
        with pytest.raises(Reached):
            sweep_pairs(oracle.HARD_LIMIT)
        for n in (oracle.HARD_LIMIT + 1, 12):
            with pytest.raises(ResourceLimitError, match="pair sweep"):
                sweep_pairs(n)

    def test_alpha_must_match_n(self):
        with pytest.raises(ValueError):
            sweep_pairs(4, C((2, 3)))

    @pytest.mark.parametrize(
        "sweep, args",
        [
            (sweep_pairs, (0,)),
            (sweep_pairs, (4, C((2, 3)))),
            (sweep_fixed_diagonal, (canonical_of_type(P((4,))), C((2, 3)))),
            (pairs_separating_prefix, (4, 5, 1)),
            (pairs_separating_prefix, (4, 2, 0)),
        ],
    )
    def test_an_argument_outside_the_domain_is_a_domain_error(self, sweep, args):
        # the CLI exits 3 for a DomainError, and 70 for any other ValueError
        with pytest.raises(DomainError):
            sweep(*args)

    def test_each_result_owns_its_cycle_type_table(self):
        first = sweep_pairs(5, C((2, 3)))
        expected = first.tables["cycle_type"].items()
        first.tables["cycle_type"]._data["5"] = -1
        first.tables["cycle_type"]._data["new"] = 1
        assert sweep_pairs(5).tables["cycle_type"].items() == expected
        assert sweep_pairs(5, C((1, 4))).tables["cycle_type"].items() == expected

    def test_every_alpha_table_at_n7_digest(self):
        # pinned before the type table, the prefix sums and the block-type
        # memo were built once per n: all 64 compositions of 7
        digest = hashlib.sha256()
        for alpha in compositions(7):
            digest.update(sweep_pairs(7, alpha).to_json().encode())
        assert digest.hexdigest() == "3f9703c65797221f8d02b9fc3033da3eed28babdeaaeb553de4fa080ce24b1c8"

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_match_direct_enumeration(self, n):
        direct = {}
        for a in long_cycle_iter(n):
            for b in long_cycle_iter(n):
                t = compose(a, b).cycle_type()
                direct[str(t)] = direct.get(str(t), 0) + 1
        table = sweep_pairs(n).tables["cycle_type"]
        for key in table:
            assert table[key] == direct.get(key, 0)


class TestLexRank:
    @pytest.mark.parametrize("n", range(1, 10))  # to HARD_LIMIT, where the head first has 5 images
    def test_ranks_every_permutation_in_lex_order(self, n):
        ranks = _lex_rank(n, _all_perm_rows(n).T)
        assert np.array_equal(ranks, np.arange(math.factorial(n)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scalar_columns_rank_like_itertools(self, n):
        for i, image in enumerate(itertools.permutations(range(n))):
            assert _lex_rank(n, list(image)) == i

    def test_fact_chunks_sum_to_whole_range(self):
        tables = _pair_tables(6)  # 20 head groups
        whole = _fact_chunk(6, tables, 0, 20)
        parts = sum(_fact_chunk(6, tables, lo, hi) for lo, hi in ((0, 3), (3, 11), (11, 20)))
        assert np.array_equal(parts, whole)
        assert whole.sum() == 120**2

    def test_pair_counts_digest(self):
        # pinned from the per-rank counts of the earlier sweep, summed over
        # the products of each signature (429 rows at n = 7)
        digest = hashlib.sha256(product_pair_counts(7).tobytes()).hexdigest()
        assert digest == "2cf1cbbe429cfc2444e054c2afd4b77b5f2e8a34cf755af65f49a3ae6cde6352"

    def test_pair_alpha_tables_digest_n8(self):
        # every table of the n = 8 sweep, with and without alpha
        digest = hashlib.sha256()
        for alpha in (None, *compositions(8)):
            digest.update(sweep_pairs(8, alpha).to_json().encode())
        assert digest.hexdigest() == "e83f3ea07ead3d8a1613c4d5dfdee35645495fcb936582e8323eba2d6bbd12b6"

    def test_plane_codes_digest(self):
        # pinned from the per-rank counts of the earlier sweep, summed over
        # the verticals of each signature
        digest = hashlib.sha256(_plane_codes(6).tobytes()).hexdigest()
        assert digest == "2cb0994da9ffc68b38a9f7e1ef0c0bb1475d39e82548a3b35133b8a2b664aca0"

    def test_plane_sweep_limit_comes_before_the_signatures(self, monkeypatch):
        def never(n):
            raise AssertionError("signatures computed above the plane sweep limit")

        monkeypatch.setattr(oracle, "_signatures", never)
        n = oracle.PLANE_SWEEP_LIMIT + 1
        with pytest.raises(ResourceLimitError, match="plane"):
            _plane_array(n, (n,))


class TestSplit:
    """oracle._split(n), the one lex split every kernel reads, against
    itertools, up to the pair sweep's top size."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_tail_of_numbers_the_tails_in_lex_order(self, n):
        split = oracle._split(n)
        tails = np.array(list(itertools.permutations(range(n), n - split.h)))
        assert split.tail_of[oracle._code(n, tails.T)].tolist() == list(range(len(tails)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_split_sums_over_every_head_and_tail_in_lex_order(self, n):
        split = oracle._split(n)
        h = split.h
        digits = np.random.default_rng(n).integers(0, 1000, (2, n, n))
        heads, tails = (np.array(list(itertools.permutations(range(n), m)), dtype=np.int64) for m in (h, n - h))
        head, tail = oracle._split_sums(digits, split)
        assert np.array_equal(head, digits[:, np.arange(h), heads].sum(axis=2))
        assert np.array_equal(tail, digits[:, np.arange(h, n), tails].sum(axis=2))
        assert split.places.tolist() == [n ** (h - 1 - j) for j in range(h)] + [n ** (n - 1 - j) for j in range(h, n)]

    def test_only_the_split_reads_the_tail_size(self):
        # the head and tail sizes are worked out in _split alone, so that no
        # kernel can split a permutation anywhere else
        readers = []

        def visit(node, path, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope or child.name
                elif isinstance(child, ast.Name) and child.id == "_TAIL" and isinstance(child.ctx, ast.Load):
                    readers.append((path.name, scope))
                elif isinstance(child, ast.Attribute) and child.attr == "_TAIL":
                    readers.append((path.name, scope))
                visit(child, path, inner)

        for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text()), path, None)
        assert readers == [("oracle.py", "_split")]


def scalar_planes(n, cycles):
    """(pi, the diagonal's type, the exceedances) of every plane permutation
    (s, pi) with s among the long cycles ``cycles``, through the scalar API."""
    for s in cycles:
        for image in itertools.permutations(range(1, n + 1)):
            pi = Permutation(image)
            plane_perm = PlanePermutation(s.cycle_word(), pi)
            yield pi, plane_perm.diagonal().cycle_type().parts, plane_perm.exceedance_count()


class TestPlaneTallies:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_scalar_plane_permutations(self, n):
        # every plane permutation (s, pi) through the scalar API, tallied for
        # every composition: (count, summed exceedances) by diagonal type and
        # block types of the vertical
        alphas = list(compositions(n))
        direct = {alpha.parts: {} for alpha in alphas}
        for pi, eta, a in scalar_planes(n, long_cycle_iter(n)):
            for alpha in alphas:
                if is_alpha_separated(pi, alpha):
                    by_key = direct[alpha.parts].setdefault(eta, {})
                    count, exceedances = by_key.get(alpha_type(pi, alpha).key(), (0, 0))
                    by_key[alpha_type(pi, alpha).key()] = (count + 1, exceedances + a)
        etas = [eta.parts for eta in partitions(n)]
        for alpha in alphas:
            planes = _plane_array(n, alpha.parts)
            keys = [seq.key() for seq in partition_sequences(alpha)]
            assert planes.dtype == np.int64 and planes.shape == (len(keys), len(etas), 2)
            for t, eta in enumerate(etas):
                by_key = direct[alpha.parts].get(eta, {})
                assert {key: tuple(cell) for key, cell in zip(keys, planes[:, t].tolist()) if cell != [0, 0]} == by_key

    @pytest.mark.extended
    @pytest.mark.parametrize("lo, hi", [(0, 2), (15, 18)])
    def test_plane_chunk_at_n8_against_scalar_plane_permutations(self, lo, hi):
        # the counts of cycle words lo..hi-1 by diagonal type, the vertical's
        # signature id, from its length row, and exceedances; from word 0,
        # word 16 starts the second batch of _plane_batch(8) = 16 words
        n = 8
        assert oracle._plane_batch(n) == 16
        sig_ids = {row: i for i, row in enumerate(map(tuple, _signatures(n)[1].tolist()))}
        etas = _partition_list(n)
        expected = np.zeros((len(etas), len(sig_ids), n + 1), dtype=np.int64)
        for pi, eta, a in scalar_planes(n, itertools.islice(long_cycle_iter(n), lo, hi)):
            row = [0] * n
            for cycle in pi.cycles():  # each starts at its least element
                row[cycle[0] - 1] = len(cycle)
            expected[etas.index(eta), sig_ids[tuple(row)], a] += 1
        tables = oracle._plane_tables(n)
        assert np.array_equal(oracle._plane_chunk(n, tables, lo, hi), expected.ravel())
        from_zero = oracle._plane_chunk(n, tables, 0, hi) - oracle._plane_chunk(n, tables, 0, lo)
        assert np.array_equal(from_zero, expected.ravel())

    @pytest.mark.parametrize("n", range(2, 8))
    def test_long_verticals_tally_the_pair_sweep_by_type(self, n):
        # the plane permutations (s, pi) with pi a long cycle are the pairs
        # (s, pi⁻¹) of long cycles, and the diagonal is their product: the
        # plane sweep's long-vertical slice is the pair sweep's cycle-type table
        (long_id,) = np.flatnonzero(_signatures(n)[1][:, 0] == n)
        by_type = oracle._plane_totals(n)[long_id, :, 0].tolist()
        pairs = oracle._pairs_type_rows(n)
        assert by_type == [pairs[format_type_key(t)] for t in _partition_list(n)]
        assert sum(by_type) == math.factorial(n - 1) ** 2  # 1, 4, 36, 576, 14,400, 518,400


def _plane_codes_by_diagonals(n):
    """_plane_codes(n) by a second route: for every diagonal D, the
    fixed-diagonal sweep's counts (uncached), added into the slot of D's
    cycle type.  It fixes D and walks s, where _plane_codes fixes s and walks
    the vertical, and it reads no rank table."""
    sig_ids = {row: i for i, row in enumerate(map(tuple, _signatures(n)[1].tolist()))}
    etas = [eta.parts for eta in partitions(n)]
    acc = np.zeros((len(etas), len(sig_ids), n + 1), dtype=np.int64)
    for d in _all_perm_rows(n).tolist():
        image = tuple(x + 1 for x in d)
        rows, counts = _diag_rows(n, image)
        ids = [sig_ids[row] for row in map(tuple, rows.tolist())]
        acc[etas.index(Permutation(image).cycle_type().parts), ids] += counts
    return acc


class TestPlaneCodesByDiagonals:
    @pytest.mark.parametrize("n", [*range(1, 7), pytest.param(7, marks=pytest.mark.extended)])
    def test_sum_over_diagonals_equals_plane_codes(self, n):
        assert np.array_equal(_plane_codes_by_diagonals(n), _plane_codes(n))

    def test_swapped_suffix_ranks_are_caught(self, monkeypatch, clear_pair_caches):
        # two tail arrangements of one value set trade lex ranks: at n = 5
        # the identity and the transposition (4 5) swap places in the plane codes
        n = 5
        real = oracle._split

        def swapped(k):
            split = real.__wrapped__(k)  # fresh arrays: the cached split stays whole
            if k == n:  # classic_reports(n) also reads n = 2..4, which stay whole
                i, j = oracle._code(n, (1, 2, 3, 4)), oracle._code(n, (1, 2, 4, 3))
                split.suffix[[i, j]] = split.suffix[[j, i]]
            return split

        def clear():
            real.cache_clear()
            oracle._plane_totals_cache.clear()
            clear_pair_caches()

        clear()
        product_pair_counts(n)  # the pair counts come from the whole tables
        monkeypatch.setattr(oracle, "_split", swapped)
        try:
            assert not np.array_equal(_plane_codes(n), _plane_codes_by_diagonals(n))
            failed = {r.identity for r in verify.classic_reports(n) if not r.passed}
        finally:
            monkeypatch.undo()
            clear()
        assert failed and failed <= {"split_exceedance", "split_exceedance_dual", "split_joint"}


def _outer_codes(words, rows, base):
    """``codes[w]``, for w < words: over every tuple t of column indices, in
    lex order, the base-``base`` code of (rows[0][w, t_0], rows[1][w, t_1],
    ...), most significant digit first; with base 1, their sum."""
    codes = np.zeros((words, 1), dtype=np.int64)
    for row in rows:
        codes = (codes[:, :, None] * base + row[:, None, :]).reshape(words, -1)
    return codes


def reference_plane_codes(n):
    """_plane_codes(n) as the sweep computed it by vertical pi in lex order:
    per word, the diagonal's rank parts and the exceedances of the head and
    tail images, each read from a table over every digit tuple of that part
    and keyed by the code of pi⁻¹'s or pi's images there, five gathers of
    n! entries per word."""
    perms = _all_perm_rows(n).T  # element first: row x holds the image of x under every perm
    pinv_t = np.argsort(perms, axis=0)  # row j: perm⁻¹(j) for every perm
    sig, rows = _signatures(n)
    types = _partition_list(n)
    type_of = np.array([types.index(_cycle_type(row)) for row in rows.tolist()])
    stride = len(rows) * (n + 1)
    type_base = type_of[sig] * stride  # lex rank of a diagonal -> the first index of its type
    sig_base = sig * (n + 1)  # lex rank of a vertical -> the first index of its signature within a type
    split = oracle._split(n)
    prefix, suffix, h = split.prefix, split.suffix, split.h
    inv_head, inv_tail = oracle._code(n, pinv_t[:h]), oracle._code(n, pinv_t[h:])
    img_head, img_tail = oracle._code(n, perms[:h]), oracle._code(n, perms[h:])
    acc = np.zeros(len(types) * stride, dtype=np.int64)
    words = _cycle_words(n)
    cycles = _cycle_rows(words)
    for lo in range(0, len(words), 16):
        s_img = cycles[lo : lo + 16]
        pos = np.argsort(words[lo : lo + 16], axis=1)
        later = (pos[:, None, :] > pos[:, :, None]).astype(np.int64)  # later[w, x, y]: y after x in word w
        m = len(s_img)
        rank_head = prefix[_outer_codes(m, [s_img] * h, n)]
        rank_tail = suffix[_outer_codes(m, [s_img] * (n - h), n)]
        exc_head = _outer_codes(m, [later[:, x] for x in range(h)], 1)
        exc_tail = _outer_codes(m, [later[:, x] for x in range(h, n)], 1)
        for w in range(m):
            d = rank_head[w][inv_head] + rank_tail[w][inv_tail]
            a = exc_head[w][img_head] + exc_tail[w][img_tail]
            acc += np.bincount(type_base[d] + sig_base + a, minlength=acc.size)
    return acc.reshape(len(types), len(rows), n + 1)


class TestPlaneKernel:
    """_plane_codes by head groups of q = pi⁻¹ against the kernel it
    replaced, which walks pi in lex order."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_reference_kernel(self, n):
        codes = _plane_codes(n)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, reference_plane_codes(n))

    @pytest.mark.extended
    def test_equals_the_reference_kernel_at_8(self, monkeypatch):
        monkeypatch.setattr(oracle, "PLANE_SWEEP_LIMIT", 8)
        assert np.array_equal(_plane_codes(8), reference_plane_codes(8))

    @pytest.mark.parametrize("n", [5, 6])
    def test_byte_identical_at_one_two_and_three_workers(self, monkeypatch, n):
        # three chunks of 40 (n = 6) words cut the batches elsewhere than two of 60
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        single, double, triple = (_plane_codes(n, w).tobytes() for w in (1, 2, 3))
        assert single == double == triple

    def test_plane_totals_are_kept_once_per_n(self, monkeypatch):
        n = 5
        monkeypatch.setattr(oracle, "_plane_totals_cache", {})
        totals = oracle._plane_totals(n, 2)
        monkeypatch.setattr(oracle, "_plane_codes", lambda *args: pytest.fail("swept twice"))
        assert oracle._plane_totals(n) is totals
        assert oracle._plane_totals(n, 3) is totals

    @pytest.mark.parametrize("n, words", [(7, 16), (8, 16), (9, 4)])
    def test_batches_are_sized_by_a_byte_budget(self, n, words):
        # each of _plane_chunk's two per-batch buffers, int64 over the words' n! columns,
        # stays within the budget: 16 words up to n = 8, as before, and 4 at n = 9, where 16 took 46 MB
        assert oracle._plane_batch(n) == words
        assert words * math.factorial(n) * 8 <= oracle._PLANE_COLUMNS * 8 < 12 * 2**20


def _head_cuts(n):
    """Indices i of the long cycles (_cycle_rows) whose row shares its first n // 2 images
    with row i - 1: a window starting or ending at i splits that run of
    rows."""
    rows = _cycle_rows(_cycle_words(n))
    h = n // 2
    return np.flatnonzero((rows[1:, :h] == rows[:-1, :h]).all(axis=1)) + 1


def _group_cuts(n):
    """Indices i of the long cycles (_cycle_rows) inside a head group of _pair_tables:
    rows with the first n - k images of row i lie both before i and from i
    on.  A window starting or ending at i holds only some of that group's
    patterns."""
    k = min(oracle._TAIL, n)
    codes = oracle._code(n, _cycle_rows(_cycle_words(n)).T[: n - k])
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)
    last = len(codes) - 1 - np.unique(codes[::-1], return_index=True)[1]
    at = np.arange(len(codes))
    return at[(first[group] < at) & (at <= last[group])]


def _factor_windows():
    """(n, lo, hi) windows of second factors in _cycle_rows order: the whole
    range up to n = 6, an empty window, windows of 4n + 3 second factors
    (cut short at n <= 4), windows at n = 5..8 that start and end inside a
    run of rows with the same first n // 2 images, windows at n = 5..8 that
    start and end inside a head group and span more than min(8n, (n-1)!/4)
    second factors, and three second factors at n = 9."""
    for n in range(1, 10):
        m = math.factorial(n - 1)
        if n <= 6:
            yield n, 0, m
        yield n, m // 2, m // 2
        if 3 <= n <= 8:
            yield n, 1, min(m, 1 + 4 * n + 3)
        if 5 <= n <= 8:
            cuts = _head_cuts(n)
            lo = cuts[len(cuts) // 2]
            yield n, int(lo), int(cuts[cuts > lo + 2 * n][0])
            cuts = _group_cuts(n)
            lo = cuts[len(cuts) // 3]
            yield n, int(lo), int(cuts[cuts > lo + min(8 * n, m // 4)][0])
    yield 9, 100, 103


def _window_tables(n, lo, hi):
    """_pair_tables(n) with the head groups of the long cycles lo..hi-1
    (_cycle_rows) alone: each mask holds the patterns of the group's long
    cycles in the window, any subset of them, and the groups are in
    pattern-class order."""
    tables = _pair_tables(n)
    cyc_t, head_of, pattern_of = tables[0][:, lo:hi], tables[3], tables[4]
    h = oracle._split(n).h
    heads = math.factorial(n) // math.factorial(n - h)
    index = head_of[oracle._code(n, cyc_t[:h])] + pattern_of[oracle._code(n, cyc_t[h:])]
    masks = np.zeros(heads, dtype=np.int64)
    np.bitwise_or.at(masks, index % heads, 1 << index // heads)
    head = np.flatnonzero(masks)
    head = head[np.argsort(masks[head], kind="stable")]
    return (*tables[:7], head, masks[head])


def _class_window(n):
    """(lo, hi): the last two head groups of a pattern class of at least three
    groups of _pair_tables(n), in the middle of their order, through the first
    two of the next such class: a window that starts and ends inside a class."""
    runs, start = [], 0
    for _, members in itertools.groupby(_pair_tables(n)[-1].tolist()):
        size = len(list(members))
        if size >= 3:
            runs.append((start, start + size))
        start += size
    (_, end), (begin, _) = runs[len(runs) // 2 - 1 : len(runs) // 2 + 1]
    return end - 2, begin + 2


def _pair_windows():
    """(n, lo, hi) windows of head groups: the whole range up to n = 6, an
    empty window and one group up to n = 8, a window that starts and ends
    inside a pattern class at n = 6..8 (the four groups of n = 5 are four
    classes), and three groups at n = 9."""
    for n in range(1, 9):
        m = len(_pair_tables(n)[-1])
        if n <= 6:
            yield n, 0, m
        yield n, m // 2, m // 2
        yield n, m // 2, m // 2 + 1
        if 6 <= n:
            yield n, *_class_window(n)
    yield 9, 100, 103


def _group_members(n, lo, hi):
    """The long cycles (_cycle_rows) in head groups lo..hi-1 of
    _pair_tables(n): those whose first h images are the head of one of those
    groups' lex-least permutations."""
    tables = _pair_tables(n)
    least, head = tables[6], tables[7]
    h = oracle._split(n).h
    heads = {tuple(q[:h]) for q in least[head[lo:hi]].tolist()}
    return [c for c in _cycle_rows(_cycle_words(n)).tolist() if tuple(c[:h]) in heads]


def _composed(n, second):
    """The pair counts of the second factors ``second`` (one-line images) by
    signature, from every product composed as an array and walked by
    _min_lengths, one second factor at a time."""
    cyc = _cycle_rows(_cycle_words(n))
    sig_rows = _signatures(n)[1]
    places = (n + 1) ** np.arange(n)
    sig_codes = sig_rows @ places
    order = np.argsort(sig_codes)
    expected = np.zeros(len(sig_rows), dtype=np.int64)
    for c2 in second:
        # row c1 of cyc[:, c2] is the product c1∘c2; _min_lengths reads element first
        codes = _min_lengths(cyc[:, c2].T).T @ places
        at = order[np.searchsorted(sig_codes, codes, sorter=order)]
        assert np.array_equal(sig_codes[at], codes)
        expected += np.bincount(at, minlength=len(sig_rows))
    return expected


def _composed_counts(n, lo, hi):
    """The scalar reference for the head groups lo..hi-1 of _pair_tables(n)."""
    return _composed(n, _group_members(n, lo, hi))


def _window_counts(n, lo, hi):
    """_fact_chunk over _window_tables(n, lo, hi), every group of it."""
    tables = _window_tables(n, lo, hi)
    return _fact_chunk(n, tables, 0, len(tables[-1]))


class TestPairKernel:
    @pytest.mark.parametrize("n, lo, hi", list(_pair_windows()))
    def test_fact_chunk_over_group_windows(self, n, lo, hi):
        got = _chunk(n, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == _composed_counts(n, lo, hi).tolist()
        assert got.sum() == len(_group_members(n, lo, hi)) * math.factorial(n - 1)

    @pytest.mark.parametrize("n, lo, hi", list(_factor_windows()))
    def test_fact_chunk_against_composed_products(self, n, lo, hi):
        # the kernel over any set of second factors, the long cycles
        # lo..hi-1: its groups' masks hold any subset of the patterns, where
        # those of the whole range all hold the same number
        got = _window_counts(n, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == _composed(n, _cycle_rows(_cycle_words(n))[lo:hi].tolist()).tolist()
        assert got.sum() == (hi - lo) * math.factorial(n - 1)

    @pytest.mark.extended
    @pytest.mark.parametrize("n", [8, 9])
    def test_fact_chunk_against_composed_products_at_scale(self, n):
        # the first and the last groups, and two windows that each cut two
        # classes: across the end of the first class, and _class_window
        tables = _pair_tables(n)
        masks = tables[-1].tolist()
        m, first = len(masks), masks.count(masks[0])
        for window in ((0, 3), (m - 3, m), (first - 2, first + 2), _class_window(n)):
            assert _fact_chunk(n, tables, *window).tolist() == _composed_counts(n, *window).tolist()

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_window_when_the_head_is_empty(self, n):
        # k = n: one head group, whose q is the identity, and every second
        # factor one of its patterns; every window of them is one group
        m = math.factorial(n - 1)
        assert len(_pair_tables(n)[-1]) == 1
        cyc = _cycle_rows(_cycle_words(n)).tolist()
        for lo in range(m + 1):
            for hi in range(lo, m + 1):
                assert _window_counts(n, lo, hi).tolist() == _composed(n, cyc[lo:hi]).tolist()

    def test_chunks_cut_inside_head_groups_sum_to_whole_range(self):
        # the second factors of one head group, split over two table sets
        whole = _window_counts(7, 0, 720)
        cuts = _head_cuts(7)
        for cut in cuts[:: len(cuts) // 4].tolist():
            assert np.array_equal(_window_counts(7, 0, cut) + _window_counts(7, cut, 720), whole)

    def test_chunks_cut_inside_classes_sum_to_whole_range(self):
        tables = _pair_tables(7)
        masks = tables[-1]
        whole = _fact_chunk(7, tables, 0, len(masks))
        cuts = np.flatnonzero(masks[1:] == masks[:-1]) + 1  # a chunk starting there cuts a class
        for cut in cuts[:: len(cuts) // 4].tolist():
            assert np.array_equal(_fact_chunk(7, tables, 0, cut) + _fact_chunk(7, tables, cut, len(masks)), whole)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_head_groups_partition_the_long_cycles(self, n):
        # every long cycle is one (group, pattern bit) of the masks, the
        # masks' bits count the long cycles, and the masks never decrease
        tables = _pair_tables(n)
        least, head, masks = tables[6], tables[7], tables[8].tolist()
        h = oracle._split(n).h
        group_of = {tuple(q[:h]): g for g, q in enumerate(least[head].tolist())}
        assert len(group_of) == len(masks)
        pattern_of = {p: i for i, p in enumerate(itertools.permutations(range(n - h)))}
        seen = set()
        for c in _cycle_rows(_cycle_words(n)).tolist():
            tail = c[h:]
            key = group_of[tuple(c[:h])], pattern_of[tuple(sorted(tail).index(x) for x in tail)]
            assert masks[key[0]] >> key[1] & 1
            seen.add(key)
        assert len(seen) == math.factorial(n - 1)
        assert sum(bin(mask).count("1") for mask in masks) == math.factorial(n - 1)
        assert masks == sorted(masks)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_chunks_redo_at_most_one_class_per_boundary(self, monkeypatch, parts):
        # the class passes of _fact_chunk, counted as its groupby yields
        # them: over the chunks of a sweep they are at most those of the
        # whole range plus one for each boundary between chunks
        passes, groupby = [], itertools.groupby

        def counted(*args, **kwargs):
            for key, members in groupby(*args, **kwargs):
                passes.append(key)
                yield key, members

        monkeypatch.setattr(oracle.itertools, "groupby", counted)
        tables = _pair_tables(8)
        m = len(tables[-1])
        whole = _fact_chunk(8, tables, 0, m)
        one = len(passes)
        chunks = oracle._chunks(m, parts)
        assert len(chunks) == parts
        assert np.array_equal(sum(_fact_chunk(8, tables, lo, hi) for lo, hi in chunks), whole)
        assert one == 24
        assert len(passes) - one <= one + parts - 1


def _pattern_products(k):
    """``products[s][tau]`` = the lex rank of sigma_s∘tau among the
    permutations of range(k), by itertools."""
    perms = list(itertools.permutations(range(k)))
    rank = {sigma: i for i, sigma in enumerate(perms)}
    return [[rank[tuple(sigma[x] for x in t)] for t in perms] for sigma in perms]


class TestTailPatterns:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rank_identity(self, n):
        # rank(pi∘tau) = rank(pi) - rank(pi) mod k! + M[rank(pi) mod k!, tau],
        # tau acting on the last k positions, for every pi and every tau
        k = min(oracle._TAIL, n)
        block = math.factorial(k)
        products = np.array(_pattern_products(k))
        perms = _all_perm_rows(n)
        ranks = np.arange(len(perms))
        for tau, t in enumerate(itertools.permutations(range(k))):
            composed = perms[:, [*range(n - k), *(n - k + x for x in t)]]
            expected = ranks - ranks % block + products[ranks % block, tau]
            assert np.array_equal(_lex_rank(n, composed.T), expected)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_pattern_sources_invert_the_products(self, k):
        sources = oracle._pattern_sources(k)
        for s, row in enumerate(_pattern_products(k)):
            for tau, t in enumerate(row):
                assert sources[t, tau] == s

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pattern_major_index(self, n):
        k = min(oracle._TAIL, n)
        block = math.factorial(k)
        head_of, pattern_of = oracle._pair_tables(n)[3:5]
        columns = _all_perm_rows(n).T
        index = head_of[oracle._code(n, columns[: n - k])] + pattern_of[oracle._code(n, columns[n - k :])]
        ranks = np.arange(math.factorial(n))
        assert np.array_equal(index, ranks % block * (len(ranks) // block) + ranks // block)


class TestEnumerators:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_perm_rows_and_cycle_words_match_itertools(self, n):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        words = np.array([(0, *tail) for tail in itertools.permutations(range(1, n))], dtype=np.int64)
        for got, expected in ((_all_perm_rows(n), perms), (_cycle_words(n), words)):
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_perm_rows_with_a_tail_are_every_tail_factorial_th_row(self, n):
        whole = _all_perm_rows(n)
        for tail in range(min(4, n) + 1):
            got, expected = _all_perm_rows(n, tail), whole[:: math.factorial(tail)]
            assert got.dtype == np.int64
            assert got.shape == expected.shape  # (1, 0) at n = 0
            assert np.array_equal(got, expected)


class TestMinLengths:
    """The one cycle statistic every tally reads, against the scalar routines
    on Permutation: every permutation with n <= 6, every composition of n."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_against_the_scalar_reference(self, n):
        rows = _all_perm_rows(n)
        alphas = list(compositions(n))
        lens_rows = _min_lengths(rows.T).T
        by_alpha = {alpha.parts: {} for alpha in alphas}  # block types -> count, in the order of their first row
        for image, lens, prefix in zip(rows.tolist(), lens_rows.tolist(), _sep_prefixes(lens_rows).tolist()):
            p = Permutation(tuple(x + 1 for x in image))
            cycles = p.cycles()  # each starts at its least element
            expected = [0] * n
            for cyc in cycles:
                expected[cyc[0] - 1] = len(cyc)
            assert lens == expected
            assert _cycle_type(lens) == cycle_type(p).parts
            for alpha in alphas:
                if is_alpha_separated(p, alpha):
                    key = alpha_type(p, alpha).key()
                    by_alpha[alpha.parts][key] = by_alpha[alpha.parts].get(key, 0) + 1
            cycle_of = {x: i for i, cyc in enumerate(cycles) for x in cyc}
            m = 0
            while m < n and cycle_of[m + 1] not in {cycle_of[y] for y in range(1, m + 1)}:
                m += 1
            assert prefix == m
        sums = np.cumsum(lens_rows, axis=1)
        for parts, expected in by_alpha.items():
            keys = _keys(lens_rows, sums, parts)
            tally = _key_sums(keys, np.ones(len(lens_rows), dtype=np.int64))
            assert list(zip(keys.keys, tally.tolist())) == list(expected.items())

    @pytest.mark.parametrize("size", [7, 500])
    @pytest.mark.parametrize("n", range(5, 8))
    def test_passes_equal_one_pass(self, n, size, monkeypatch):
        # every table at n <= 7 is one pass of 7! columns or words; in passes
        # of 7 or 500 most are full and the last one is short
        diagonals = [
            tuple(range(1, n + 1)),  # the identity
            (*range(2, n + 1), 1),  # a long cycle
            (2, 3, 1, 5, 4, *range(6, n + 1)),  # (1 2 3)(4 5), the rest fixed
        ]

        def tables():
            return [
                _signatures.__wrapped__(n),
                oracle._distinct_rows(_all_perm_rows(n)[::-1].T),  # the columns in reverse lex order
                (_cycle_rows(_cycle_words(n)),),
                *(_diag_rows(n, d) for d in diagonals),
            ]

        assert oracle._PASS == math.factorial(7)
        whole = tables()
        monkeypatch.setattr(oracle, "_PASS", size)
        for got, expected in zip(tables(), whole, strict=True):
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)

    def test_empty_batch(self):
        assert _min_lengths(_all_perm_rows(5).T[:, :0]).shape == (5, 0)

    def test_length_codes_take_the_least_element_on_each_cycle(self):
        # the vertical (1 3)(2 4 5), 0-based (0 2)(1 3 4): its cycles of least
        # elements 0 and 1 have lengths 2 and 3, so its length row is 2 3 0 0 0
        perm = np.array([[2], [3], [0], [4], [1]])
        codes = np.empty(1, dtype=np.int64)
        oracle._length_codes(perm, codes, oracle._pass_buffers(5, 1))
        assert codes.tolist() == [oracle._code(6, [2, 3, 0, 0, 0])]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(6, 10).flatmap(lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=8)))
    def test_length_codes_and_unique_rows_against_cycles(self, columns):
        # past the exhaustive tests, where the tables take more than one pass:
        # a drawn batch, stored element first as a transposed view
        perms = np.array(columns).T
        n, m = perms.shape
        codes = np.empty(m, dtype=np.int64)
        oracle._length_codes(perms, codes, oracle._pass_buffers(n, m))
        ids, rows = oracle._unique_rows(codes, n)
        for r, column in enumerate(columns):
            expected = [0] * n
            for cycle in Permutation(tuple(x + 1 for x in column)).cycles():
                expected[cycle[0] - 1] = len(cycle)
            assert codes[r] == oracle._code(n + 1, expected)
            assert rows[ids[r]].tolist() == expected
        assert len(rows) == len(set(codes.tolist())) and np.all(np.diff(oracle._code(n + 1, rows.T)) > 0)

    # sha256 of sig.tobytes() + rows.tobytes(), pinned while _min_lengths
    # walked the transposed view of _all_perm_rows(n), n = 9 in passes of 8! columns
    @pytest.mark.parametrize(
        "n, shape, expected",
        [
            (1, (1, 1), "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db"),
            (2, (2, 2), "33b8534144102af2096928367e4933dedd333bf54a3585314ce4e1b8a85716ef"),
            (3, (5, 3), "137019ab7ed06ec7382d52e599a5b916f85b7c0f2264a4e39a14d64fe947f52d"),
            (4, (14, 4), "86b84b30147abd1085c6a266a8c11106af9b13690fcb748e29282db8e1324967"),
            (5, (42, 5), "8fd3aee12a635a6f55c7eefc10684a93a8b3f21fc98249039c6be4c7c8fb0bd2"),
            (6, (132, 6), "afbc456cd0e07a9289e323b2c667fe5c86678aaf3a2ca6f57d394bdf08d9151d"),
            (7, (429, 7), "6b08dd294d10b50a67192ed1c7b4d4198047f62050b1f3532f5b407ea95ebcc2"),
            (8, (1430, 8), "aa7ac7b1ec269bc22062435bced55f849a6c8fbf9e35e73ff7a160b313e18b13"),
            (9, (4862, 9), "6e771e729918bada0a254d729be41c5f65f5493e03237c73ce90f411fee547dc"),
        ],
    )
    def test_signatures_digest(self, n, shape, expected):
        sig, rows = _signatures(n)
        assert sig.dtype == rows.dtype == np.int64 and rows.shape == shape
        assert hashlib.sha256(sig.tobytes() + rows.tobytes()).hexdigest() == expected
        assert np.array_equal(oracle._signature_sums(n), np.cumsum(rows, axis=1))

    @pytest.mark.parametrize(
        "strided",
        [
            lambda: _all_perm_rows(6).T,  # the batch _signatures walks
            lambda: _all_perm_rows(7).T[:, 720:3600],  # a column window, as _distinct_rows cuts from n = 8 on
            lambda: np.argsort([2, 0, 4, 1, 3, 6, 5])[_cycle_rows(_cycle_words(7))].T,  # the verticals of _diag_rows
        ],
        ids=["transposed", "column-slice", "diag-verticals"],
    )
    def test_strided_batches_match_contiguous_copies(self, strided, monkeypatch):
        perms = strided()
        assert not perms.flags.c_contiguous
        copy = np.ascontiguousarray(perms)
        assert np.array_equal(_min_lengths(perms), _min_lengths(copy))
        ids, rows = oracle._distinct_rows(copy)
        monkeypatch.setattr(oracle, "_PASS", 500)  # windows of a strided view, the last one short
        in_passes = oracle._distinct_rows(perms)
        assert np.array_equal(in_passes[0], ids) and np.array_equal(in_passes[1], rows)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_signatures_index_every_rank(self, n):
        sig, rows = _signatures(n)
        lens = _min_lengths(_all_perm_rows(n).T).T.tolist()
        assert rows[sig].tolist() == lens
        assert len(set(map(tuple, rows.tolist()))) == len(rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_rows_are_the_long_cycles_in_order(self, n):
        expected = [[x - 1 for x in c.image] for c in long_cycle_iter(n)]
        assert _cycle_rows(_cycle_words(n)).tolist() == expected


class TestCountFactorizations:
    def test_worked_values(self):
        assert count_factorizations(Permutation.from_cycles([[1, 2], [3, 4]])) == 2
        assert count_factorizations(Permutation.from_cycles([[1, 2]], n=4)) == 0

    def test_identity_target(self):
        for n in range(1, 7):
            assert count_factorizations(Permutation.identity(n)) == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_target_against_the_scalar_reference(self, n):
        cycles = list(long_cycle_iter(n))
        for image in itertools.permutations(range(1, n + 1)):
            p = Permutation(image)
            expected = sum(compose(c1.inverse(), p).is_long_cycle() for c1 in cycles)
            assert count_factorizations(p) == expected

    @pytest.mark.parametrize("n", range(2, 6))
    def test_conjugation_invariance(self, n):
        for lam in partitions(n):
            counts = {
                count_factorizations(p)
                for p in _perms_of_type(n, lam)
            }
            assert len(counts) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_consistency_with_pair_sweep(self, n):
        table = sweep_pairs(n).tables["cycle_type"]
        for lam in partitions(n):
            if (n - lam.length) % 2:
                continue
            fixed = count_factorizations(canonical_of_type(lam))
            assert z_of(lam) * fixed == table[str(lam)]

    @pytest.mark.extended
    def test_closed_forms_at_the_diagonal_limit(self):
        # the only check of a closed form at n = 10, past the formulas suite's
        # n = 9; the n = 10 tables stay cached (about 90 MB)
        assert count_factorizations(canonical_of_type(P((5, 5)))) == boccara(10, 5) == 66240
        for lam, expected in (((7, 3), 66528), ((4, 3, 2, 1), 70848)):
            fixed = count_factorizations(canonical_of_type(P(lam)))
            assert fixed == even_factorization_count(P(lam)) == expected


def _perms_of_type(n, lam):
    return [
        Permutation(img)
        for img in itertools.permutations(range(1, n + 1))
        if Permutation(img).cycle_type() == lam
    ]


class TestFixedDiagonal:
    def test_total_is_long_cycle_count(self):
        for n in range(1, 7):
            res = sweep_fixed_diagonal(canonical_of_type(P((n,))))
            assert res.total == math.factorial(n - 1)
            assert res.tables["cycle_type"].total() == res.total

    def test_n3_canonical_diagonal(self):
        res = sweep_fixed_diagonal(Permutation.from_cycles([[1, 2, 3]]))
        assert res.tables["cycle_type"].items() == [("1+1+1", 1), ("3", 1)]
        assert res.tables["cycle_type_a"].items() == [("1+1+1 a=0", 1), ("3 a=1", 1)]
        assert res.tables["ne"].items() == [("ne=0", 1), ("ne=1", 1)]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_type_tallies_independent_of_representative(self, n):
        for lam in partitions(n):
            tables = {
                tuple(sweep_fixed_diagonal(p).tables["cycle_type"].items())
                for p in _perms_of_type(n, lam)
            }
            assert len(tables) == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_long_cycle_diagonal_reproduces_pair_marginals(self, n):
        res = sweep_fixed_diagonal(canonical_of_type(P((n,))))
        pair_table = sweep_pairs(n).tables["cycle_type"]
        for lam in partitions(n):
            q = res.tables["cycle_type"].get(str(lam), 0)
            assert math.factorial(n - 1) * q == pair_table[str(lam)]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_total_over_verticals_counts_diagonal_class(self, n):
        # plane permutations with diagonal of type eta: (n-1)! z_eta in all
        counts = _plane_array(n, (n,))[..., 0].sum(axis=0).tolist()  # per diagonal type, over every vertical type
        assert counts == [math.factorial(n - 1) * z_of(eta) for eta in partitions(n)]

    @pytest.mark.parametrize(
        "cycles, parts",
        [([[1, 2, 3, 4]], (2, 2)), ([[1, 3, 2], [4, 5]], (2, 3)), ([[1, 4], [2, 5, 3]], (1, 3, 1))],
    )
    def test_alpha_tallies_by_direct_enumeration(self, cycles, parts):
        from longcycles import PlanePermutation, alpha_type, compose, is_alpha_separated

        alpha = C(parts)
        D = Permutation.from_cycles(cycles, n=alpha.n)
        res = sweep_fixed_diagonal(D, alpha)
        direct = {"alpha_type": {}, "alpha_type_a": {}, "cycle_type_a": {}}
        for s in long_cycle_iter(alpha.n):
            pi = compose(D.inverse(), s)
            a = PlanePermutation(s.cycle_word(), pi).exceedance_count()
            keys = {"cycle_type_a": f"{pi.cycle_type()} a={a}"}
            if is_alpha_separated(pi, alpha):
                keys["alpha_type"] = str(alpha_type(pi, alpha))
                keys["alpha_type_a"] = f"{alpha_type(pi, alpha)} a={a}"
            for name, key in keys.items():
                direct[name][key] = direct[name].get(key, 0) + 1
        for name, table in direct.items():
            assert dict(res.tables[name].items()) == table

    def test_fixed_diagonal_digest(self):
        # every table of the sweep, with and without alpha, for every
        # diagonal type up to n = 6
        digest = hashlib.sha256()
        for n in range(1, 7):
            for eta in partitions(n):
                D = canonical_of_type(eta)
                for alpha in (None, *compositions(n)):
                    digest.update(sweep_fixed_diagonal(D, alpha).to_json().encode())
        assert digest.hexdigest() == "eb2fb58dba0f78bf361840f05abab1a63a12d01e4493398b7d0eec836fb49311"

    @pytest.mark.parametrize(
        "n, expected",
        [
            (7, "b266a058a6496b7b99a5f9aec6474dc467cb24c5ea0126ca513de5eb582cd290"),
            pytest.param(
                8, "e4a6ef4462808ee9f6be0bc4017b55ba3132baab7a89c3edb9af31ddb0350f63", marks=pytest.mark.extended
            ),
        ],
    )
    def test_fixed_diagonal_digest_at_n(self, n, expected):
        # every table of the sweep, with and without alpha, for every
        # diagonal type at one n
        digest = hashlib.sha256()
        for eta in partitions(n):
            D = canonical_of_type(eta)
            for alpha in (None, *compositions(n)):
                digest.update(sweep_fixed_diagonal(D, alpha).to_json().encode())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("sweep", [sweep_fixed_diagonal, count_factorizations])
    def test_guard_above_the_hard_limit(self, monkeypatch, sweep):
        # the cycle words are the sweep's first step: n = 10 reaches them, so
        # it passes the guard, and n = 11 is refused before them
        class Reached(Exception):
            pass

        def reached(n):
            raise Reached(n)

        monkeypatch.setattr(oracle, "_cycle_words", reached)
        with pytest.raises(Reached):
            sweep(canonical_of_type(P((10,))))
        with pytest.raises(ResourceLimitError, match="fixed-diagonal"):
            sweep(canonical_of_type(P((11,))))

    @pytest.mark.parametrize("sweep", [sweep_fixed_diagonal, count_factorizations])
    def test_nothing_is_enumerated_above_the_hard_limit(self, monkeypatch, sweep):
        def never(n):
            raise AssertionError("permutations listed above the fixed-diagonal hard limit")

        for table in ("_cycle_rows", "_cycle_words", "_all_perm_rows", "_signatures"):
            monkeypatch.setattr(oracle, table, never)
        for lam in ((11,), (6, 6), (13,)):
            with pytest.raises(ResourceLimitError, match="fixed-diagonal"):
                sweep(canonical_of_type(P(lam)))

    def test_separated_totals_sum_over_all_diagonals(self):
        # block tallies are not conjugation-invariant: summing the separated
        # count over every diagonal of the type recovers the pair total
        alpha = C((2, 2))
        total = 0
        for D in _perms_of_type(4, P((4,))):
            res = sweep_fixed_diagonal(D, alpha)
            total += res.tables["alpha_type"].total() if "alpha_type" in res.tables else 0
        assert total == sweep_pairs(4, alpha).separated_total() == 8


@pytest.mark.parametrize(
    "query", [lambda n: expected_k_cycles(n, 1), lambda n: pairs_separating_prefix(n, 1, 1)],
    ids=["expected_k_cycles", "pairs_separating_prefix"],
)
def test_pair_aggregations_refuse_above_the_limit_before_the_signatures(monkeypatch, query):
    def never(n):
        raise AssertionError("signatures computed above the pair sweep limit")

    monkeypatch.setattr(oracle, "_signatures", never)
    with pytest.raises(ResourceLimitError, match="pair sweep"):
        query(oracle.HARD_LIMIT + 1)


@pytest.mark.parametrize("k", [0, -3])
def test_expected_k_cycles_refuses_k_below_one_before_the_sweep(k):
    # as its closed form does; above the sweep's limit the sweep would raise
    # ResourceLimitError, so the check on k comes first
    for n in (5, oracle.HARD_LIMIT + 1):
        with pytest.raises(DomainError, match="k >= 1"):
            expected_k_cycles(n, k)


class TestExpectedCycles:
    def test_worked_values(self):
        assert expected_k_cycles(3, 1) == Fraction(3, 2)
        assert expected_k_cycles(4, 2) == Fraction(1, 3)
        assert expected_k_cycles(5, 6) == 0  # k > n is valid: a true 0

    def test_k_equal_n(self):
        # only the single-long-cycle product contributes
        table = sweep_pairs(5).tables["cycle_type"]
        assert expected_k_cycles(5, 5) == Fraction(table["5"], 24**2)


class TestSeparatingPrefix:
    def test_worked_values(self):
        assert pairs_separating_prefix(4, 2, 2) == 16
        assert pairs_separating_prefix(4, 2, 4) == 6
        assert pairs_separating_prefix(4, 2, 3) == 0

    # sha256 of json.dumps(sorted(_pairs_sep_prefix(n).items())), pinned
    # while the table was still summed row by row in Python
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, "c3d67ed486d506e7ae9102de1bb2ac8f67af5fb605438a7f31e062f5cc03c93f"),
            (2, "4329a816ebae09ec24b44734737f0c73f3208adcfe1694c6f55811594470d342"),
            (3, "1f607f524dfaf6806c8710d5dee1ea13b2253dff20119665db171eb282d74d97"),
            (4, "aa09865d61b85ae7b93735c7d029d33cdf1521891d0ac0180273f23666f5c798"),
            (5, "79ea5b475b44de9768c8e6fea98fff89b8a9a6b2a6af3ac0ad55e886793feb14"),
            (6, "5c3f7a5325bc77d2c31c4242fcd5dbbda5abd2755dded9eec1c64b9d17de402f"),
            (7, "605adeaf1ee4feb8c251406732a15b233f05357f46292fc547df7e24215abf38"),
            (8, "0ae9fe6e04ccb104febf41ced63d23031b11f8ee2f6d3ac015279a73dd15f4cf"),
        ],
    )
    def test_table_digest(self, n, expected):
        pairs_separating_prefix(n, 1, 1)
        table = oracle._pairs_sep_prefix(n)
        assert list(table) == [(m, k) for m in range(1, n + 1) for k in range(1, n + 1)]
        assert all(type(v) is int for v in table.values())
        assert hashlib.sha256(json.dumps(sorted(table.items())).encode()).hexdigest() == expected

    def test_m1_is_unconstrained(self):
        for n in range(2, 6):
            table = sweep_pairs(n).tables["cycle_type"]
            for k in range(1, n + 1):
                by_count = sum(
                    table[str(lam)] for lam in partitions(n) if lam.length == k
                )
                assert pairs_separating_prefix(n, 1, k) == by_count


class TestDeterminism:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_worker_counts_agree(self, n, fresh_pair_counts):
        single = fresh_pair_counts(n, 1).tolist()
        double = fresh_pair_counts(n, 2).tolist()
        assert single == double

    def test_seven_agrees_at_one_two_and_three_workers(self, fresh_pair_counts):
        # three chunks of 240 second factors cut head groups and classes
        # elsewhere than two of 360
        single, double, triple = (fresh_pair_counts(7, w).tolist() for w in (1, 2, 3))
        assert single == double == triple

    def test_json_identical_across_workers(self, fresh_pair_counts):
        texts = []
        for w in (1, 3):
            fresh_pair_counts(5, w)
            texts.append(sweep_pairs(5, C((2, 3))).to_json())
        assert texts[0] == texts[1]


class TestCodeTables:
    @pytest.fixture
    def table_refs(self, monkeypatch, clear_pair_caches):
        """Weak references to every array that _pair_tables returns from
        here on, with the pair counts cleared and two CPUs."""
        refs, build = [], oracle._pair_tables

        def recorded(n):
            tables = build(n)
            refs.extend(map(weakref.ref, tables))
            return tables

        monkeypatch.setattr(oracle, "_pair_tables", recorded)
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        clear_pair_caches()
        return refs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_freed_once_the_counts_are_stored(self, table_refs, workers):
        gc.disable()  # freed by their reference counts, not by a later collection
        try:
            product_pair_counts(5, workers)
        finally:
            gc.enable()
        # cyc_t, the pair and high codes, the head, pattern, source and least
        # tables, and the groups' heads and masks
        assert len(table_refs) == 9
        assert [table() for table in table_refs] == [None] * 9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_freed_once_a_failed_sweeps_exception_is_dropped(self, monkeypatch, table_refs, workers):
        def broken(n, tables, lo, hi):
            raise IndexError("broken chunk")

        monkeypatch.setattr(oracle, "_fact_chunk", broken)
        gc.disable()
        try:
            with pytest.raises(IndexError):
                product_pair_counts(5, workers)
        finally:
            gc.enable()
        assert len(table_refs) == 9
        assert [table() for table in table_refs] == [None] * 9
        assert 5 not in oracle._pair_counts_cache

    def test_no_whole_permutation_table_stays_behind(self, clear_pair_caches):
        # a cold n = 8 sweep keeps the signatures, the split and the
        # counts, and nothing of the size of the table of all 8!
        # permutations (2.46 MiB)
        clear_pair_caches()
        for table in (_signatures, oracle._split):
            table.cache_clear()
        tracemalloc.start()
        try:
            product_pair_counts(8)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < _all_perm_rows(8).nbytes

    def test_the_fixed_diagonal_sweep_leaves_its_tables_behind(self):
        # in a fresh process every cache is cold: an n = 8 sweep keeps its
        # tallies, a few KiB, and neither the 7! cycle words nor the long
        # cycles (0.62 MiB together)
        script = (
            "import tracemalloc; from longcycles import Permutation, oracle; tracemalloc.start(); "
            "oracle.sweep_fixed_diagonal(Permutation.identity(8)); print(tracemalloc.get_traced_memory()[0])"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 0.1 * 2**20

    def test_count_factorizations_keeps_only_its_tallies(self):
        # in a fresh process, a target of type 3+3+3 at n = 9 keeps its
        # tallies and not the distinct length rows of its verticals (about
        # 190 KiB), which the identity above cannot show: its verticals are
        # long cycles with one length row
        script = (
            "import tracemalloc; from longcycles import IntegerPartition, canonical_of_type, oracle; "
            "tracemalloc.start(); oracle.count_factorizations(canonical_of_type(IntegerPartition((3, 3, 3)))); "
            "print(tracemalloc.get_traced_memory()[0])"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64 * 2**10


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChunkSum:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("workers", [1, 2, 3])  # 3 chunks over 2 processes
    def test_sums_equal_one_chunk(self, workers):
        tables = _pair_tables(5)
        m = len(tables[-1])  # 4 head groups
        counts = oracle._chunk_sum(functools.partial(_fact_chunk, 5, tables), oracle._chunks(m, workers), workers)
        assert counts.tolist() == _fact_chunk(5, tables, 0, m).tolist()
        _assert_no_child_left()

    def test_without_fork_the_chunks_run_here(self, monkeypatch):
        monkeypatch.delattr(oracle.os, "fork")
        assert oracle._chunk_sum(lambda lo, hi: np.array([hi - lo, os.getpid()]), [(0, 2), (2, 5)], 2).tolist() == [
            5,
            2 * os.getpid(),
        ]

    def test_a_child_that_raises_names_its_chunk(self, capfd):
        def count(lo, hi):
            if lo:
                raise ValueError("bad chunk")
            return np.zeros(3, dtype=np.int64)

        with pytest.raises(RuntimeError, match=r"chunks 2\.\.4 failed"):
            oracle._chunk_sum(count, [(0, 2), (2, 5)], 2)
        assert "ValueError: bad chunk" in capfd.readouterr().err
        _assert_no_child_left()

    @pytest.mark.parametrize("fail", ["kill", "memory"])
    def test_a_child_killed_or_out_of_memory_is_a_resource_limit(self, fail):
        def count(lo, hi):
            if not lo:
                return np.zeros(3, dtype=np.int64)
            if fail == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise MemoryError

        with pytest.raises(ResourceLimitError, match="signal 9" if fail == "kill" else "out of memory"):
            oracle._chunk_sum(count, [(0, 2), (2, 5)], 2)
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_the_parents_chunk_raising_kills_and_reaps_the_children(self, error):
        def count(lo, hi):
            if lo:
                time.sleep(30)  # the parent must not wait for this
            raise error

        start = time.monotonic()
        with pytest.raises(error):
            oracle._chunk_sum(count, [(0, 2), (2, 5)], 2)
        assert time.monotonic() - start < 10
        _assert_no_child_left()

    def test_chunks_cover_the_range_in_order(self):
        assert oracle._chunks(24, 5000) == [(i, i + 1) for i in range(24)]
        assert oracle._chunks(720, 3) == [(0, 240), (240, 480), (480, 720)]
        assert oracle._chunks(5, 2) == [(0, 3), (3, 5)]
        assert oracle._chunks(4, 3) == [(0, 2), (2, 3), (3, 4)]  # one per worker: 3 of the 4 head groups of n = 5


class TestPoolSize:
    @pytest.mark.parametrize(
        "cpus, workers, processes",
        [(2, 5000, 2), (2, 3, 2), (4, 3, 3), (1, 2, 1), (2, 1, 1)],
    )
    def test_at_most_one_process_per_cpu_and_one_chunk_per_worker(
        self, monkeypatch, clear_pair_caches, cpus, workers, processes
    ):
        calls, forks, builds = [], [], []
        chunk_sum, fork, build = oracle._chunk_sum, os.fork, oracle._pair_tables

        def recorded_build(n):  # records who builds the tables, and after what
            builds.append((n, os.getpid(), _signatures.cache_info().currsize))
            return build(n)

        def recorded_chunk_sum(count, chunks, workers):
            calls.append((list(chunks), len(builds)))
            return chunk_sum(count, chunks, workers)

        def recorded_fork():  # records what the runner forks, then forks
            forks.append(None)
            return fork()

        monkeypatch.setattr(oracle, "_pair_tables", recorded_build)
        monkeypatch.setattr(oracle, "_chunk_sum", recorded_chunk_sum)
        monkeypatch.setattr(oracle.os, "fork", recorded_fork)
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        clear_pair_caches()
        _signatures.cache_clear()
        counts = product_pair_counts(5, workers)
        ((chunks, prebuilt),) = calls
        assert len(forks) + 1 == processes
        assert builds == [(5, os.getpid(), 1)]  # once, here, with the signatures already built
        assert prebuilt == 1  # before the fork: the children inherit the tables
        groups = len(build(5)[-1])  # 4
        assert len(chunks) == min(workers, groups)
        assert chunks[-1][1] == groups
        assert counts.tolist() == _chunk(5, 0, groups).tolist()
        _assert_no_child_left()

    def test_one_worker_forks_nothing(self, monkeypatch, clear_pair_caches):
        def no_fork():
            raise AssertionError("a one-worker sweep forked")

        monkeypatch.setattr(oracle.os, "fork", no_fork)
        clear_pair_caches()
        assert product_pair_counts(6, 1).tolist() == _chunk(6, 0, 20).tolist()  # 20 head groups

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_worker_loads_no_process_pool(self, workers):  # two fork without one
        script = (
            f"import sys, longcycles; longcycles.sweep_pairs(5, workers={workers}, cache_dir=None); "
            "print(sorted(m for m in sys.modules if m.startswith(('concurrent.futures.', 'multiprocessing'))))"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "concurrent.futures.process" not in proc.stdout
        assert "multiprocessing" not in proc.stdout

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        assert oracle._cpus() == 3


def _edit_tables(edit):
    """A cache-file damage that applies ``edit`` to the stored tables."""

    def damage(text):
        entry = json.loads(text)
        edit(entry["result"]["tables"])
        return json.dumps(entry)

    return damage


class TestSerializationAndCache:
    def test_count_table_round_trip(self):
        table = CountTable({"b": 2, "a": 30})
        assert table.rows() == [["a", "30"], ["b", "2"]]
        assert CountTable.from_rows(table.rows()) == table

    def test_result_json_round_trip(self):
        res = sweep_pairs(4, C((2, 2)))
        back = OracleResult.from_json(res.to_json())
        assert back.n == res.n
        assert back.query == res.query
        assert back.total == res.total
        assert back.tables == res.tables

    def test_counts_serialized_as_strings(self):
        doc = json.loads(sweep_pairs(4).to_json())
        assert doc["total"] == "36"
        for _key, value in doc["tables"]["cycle_type"]:
            assert isinstance(value, str)

    def test_csv_shape(self):
        lines = sweep_pairs(4).to_csv().strip().splitlines()
        assert lines[0] == "table,key,value"
        assert 'cycle_type,"2+2",6' in lines

    def test_disk_cache_round_trip(self, tmp_path):
        first = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        # a second call must be served from disk with identical content
        again = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        assert again.to_json() == first.to_json()

    def test_no_cache_dir_writes_nothing(self, tmp_path):
        sweep_pairs(4, cache_dir=None)
        assert list(tmp_path.glob("*.json")) == []

    def test_cache_ignores_other_queries(self, tmp_path):
        sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        res = sweep_pairs(4, C((1, 3)), cache_dir=tmp_path)
        assert res.query["alpha"] == "(1,3)"
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],
            lambda text: text.replace('"total":"36"', '"total":"37"'),
            _edit_tables(lambda tables: tables.pop("alpha_type")),
            _edit_tables(lambda tables: tables["d_vector"][0].__setitem__(1, "999")),
        ],
        ids=["truncated", "wrong-total", "dropped-table", "changed-count"],
    )
    def test_damaged_cache_file_is_recomputed(self, tmp_path, caplog, damage):
        good = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
        with caplog.at_level(logging.WARNING, logger="longcycles"):
            again = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        assert again.to_json() == good.to_json()
        assert "cache miss" in caplog.text
        assert json.loads(path.read_text())["result"] == good.to_dict()
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_writes_leave_one_whole_entry(self, tmp_path):
        # two processes store the same entry over and over while a third loads
        # it.  The entry exists before they start and os.replace swaps whole
        # files, so every load is a hit equal to the fresh result: a miss
        # (None) would be a torn file.
        fresh = sweep_pairs(5, C((2, 3)))
        oracle._store_cached(tmp_path, fresh)

        def store():
            for _ in range(200):
                oracle._store_cached(tmp_path, fresh)
            return 0

        def load():
            for _ in range(400):
                got = oracle._load_cached(tmp_path, fresh.query, fresh.total)
                if got is None or got.to_json() != fresh.to_json():
                    return 1
            return 0

        pids = []
        for body in (store, store, load):
            pid = os.fork()
            if pid == 0:
                code = 2
                try:
                    signal.alarm(60)  # a child that hangs dies, so the waits below end
                    code = body()
                finally:
                    os._exit(code)
            pids.append(pid)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        assert codes == [0, 0, 0]
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.iterdir())) == 1
        assert oracle._load_cached(tmp_path, fresh.query, fresh.total).to_json() == fresh.to_json()
