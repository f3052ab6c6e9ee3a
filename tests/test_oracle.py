import hashlib
import itertools
import json
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from longcycles import (
    Composition,
    IntegerPartition,
    Permutation,
    ResourceLimitError,
    alpha_type,
    canonical_of_type,
    compose,
    compositions,
    count_factorizations,
    cycle_type,
    is_alpha_separated,
    expected_k_cycles,
    long_cycle_iter,
    pairs_separating_prefix,
    partitions,
    sweep_fixed_diagonal,
    sweep_pairs,
    z_of,
)
from longcycles import oracle
from longcycles.oracle import (
    CountTable,
    OracleResult,
    _all_perm_rows,
    _block_types,
    _cycle_rows,
    _cycle_type,
    _fact_chunk,
    _lex_rank,
    _min_lengths,
    _plane_codes,
    _plane_tallies,
    _sep_prefix,
    _signatures,
    product_pair_counts,
)

P = IntegerPartition
C = Composition


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

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            sweep_pairs(9)
        with pytest.raises(ResourceLimitError):
            sweep_pairs(12)
        with pytest.raises(ResourceLimitError):
            sweep_pairs(12, force=True)  # hard limit, force cannot unlock

    def test_forced_sweep_passes_the_guard(self, monkeypatch, clear_pair_caches):
        monkeypatch.setattr(oracle, "PAIR_SWEEP_FREE_LIMIT", 4)
        clear_pair_caches()
        with pytest.raises(ResourceLimitError):
            sweep_pairs(5)
        assert sweep_pairs(5, force=True).total == 24**2

    def test_alpha_must_match_n(self):
        with pytest.raises(ValueError):
            sweep_pairs(4, C((2, 3)))

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
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ranks_every_permutation_in_lex_order(self, n):
        ranks = _lex_rank(n, _all_perm_rows(n).T)
        assert np.array_equal(ranks, np.arange(math.factorial(n)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scalar_columns_rank_like_itertools(self, n):
        for i, image in enumerate(itertools.permutations(range(n))):
            assert _lex_rank(n, list(image)) == i

    def test_fact_chunks_sum_to_whole_range(self):
        whole = _fact_chunk(6, 0, 120)
        parts = _fact_chunk(6, 0, 7) + _fact_chunk(6, 7, 64) + _fact_chunk(6, 64, 120)
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
            _plane_tallies(n, (n,))


class TestMinLengths:
    """The one cycle statistic every tally reads, against the scalar routines
    on Permutation: every permutation with n <= 6, every composition of n."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_against_the_scalar_reference(self, n):
        rows = _all_perm_rows(n)
        alphas = list(compositions(n))
        for image, lens in zip(rows.tolist(), _min_lengths(rows.T).T.tolist()):
            p = Permutation(tuple(x + 1 for x in image))
            cycles = p.cycles()  # each starts at its least element
            expected = [0] * n
            for cyc in cycles:
                expected[cyc[0] - 1] = len(cyc)
            assert lens == expected
            assert _cycle_type(lens) == cycle_type(p).parts
            for alpha in alphas:
                if is_alpha_separated(p, alpha):
                    assert _block_types(lens, alpha.parts) == alpha_type(p, alpha).key()
                else:
                    assert _block_types(lens, alpha.parts) is None
            cycle_of = {x: i for i, cyc in enumerate(cycles) for x in cyc}
            m = 0
            while m < n and cycle_of[m + 1] not in {cycle_of[y] for y in range(1, m + 1)}:
                m += 1
            assert _sep_prefix(lens) == m

    @pytest.mark.parametrize("n", range(1, 8))
    def test_signatures_index_every_rank(self, n):
        sig, rows = _signatures(n)
        lens = _min_lengths(_all_perm_rows(n).T).T.tolist()
        assert rows[sig].tolist() == lens
        assert len(set(map(tuple, rows.tolist()))) == len(rows)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_rows_are_the_long_cycles_in_order(self, n):
        expected = [[x - 1 for x in c.image] for c in long_cycle_iter(n)]
        assert _cycle_rows(n).tolist() == expected


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
        by_eta = _plane_tallies(n, (n,))
        for eta in partitions(n):
            total = sum(map(sum, by_eta[eta.parts].values()))
            assert total == math.factorial(n - 1) * z_of(eta)

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

    def test_guard_above_the_hard_limit(self):
        D = canonical_of_type(P((oracle.HARD_LIMIT + 1,)))
        with pytest.raises(ResourceLimitError, match="fixed-diagonal"):
            sweep_fixed_diagonal(D)

    @pytest.mark.parametrize("sweep", [sweep_fixed_diagonal, count_factorizations])
    def test_force_stops_at_the_diagonal_hard_limit(self, monkeypatch, sweep):
        def never(n):
            raise AssertionError("long cycles listed above the fixed-diagonal hard limit")

        monkeypatch.setattr(oracle, "_cycle_rows", never)
        D = canonical_of_type(P((oracle.DIAG_SWEEP_HARD_LIMIT + 1,)))
        with pytest.raises(ResourceLimitError, match="fixed-diagonal"):
            sweep(D, force=True)

    def test_separated_totals_sum_over_all_diagonals(self):
        # block tallies are not conjugation-invariant: summing the separated
        # count over every diagonal of the type recovers the pair total
        alpha = C((2, 2))
        total = 0
        for D in _perms_of_type(4, P((4,))):
            res = sweep_fixed_diagonal(D, alpha)
            total += res.tables["alpha_type"].total() if "alpha_type" in res.tables else 0
        assert total == sweep_pairs(4, alpha).separated_total() == 8


class TestExpectedCycles:
    def test_worked_values(self):
        assert expected_k_cycles(3, 1) == Fraction(3, 2)
        assert expected_k_cycles(4, 2) == Fraction(1, 3)

    def test_k_equal_n(self):
        # only the single-long-cycle product contributes
        table = sweep_pairs(5).tables["cycle_type"]
        assert expected_k_cycles(5, 5) == Fraction(table["5"], 24**2)


class TestSeparatingPrefix:
    def test_worked_values(self):
        assert pairs_separating_prefix(4, 2, 2) == 16
        assert pairs_separating_prefix(4, 2, 4) == 6
        assert pairs_separating_prefix(4, 2, 3) == 0

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

    def test_json_identical_across_workers(self, fresh_pair_counts):
        texts = []
        for w in (1, 3):
            fresh_pair_counts(5, w)
            texts.append(sweep_pairs(5, C((2, 3))).to_json())
        assert texts[0] == texts[1]


class TestPoolSize:
    @pytest.mark.parametrize(
        "cpus, workers, processes",
        [(2, 5000, 2), (2, 3, 2), (4, 3, 3), (1, 2, 1)],
    )
    def test_at_most_one_process_per_cpu_and_one_chunk_per_worker(self, monkeypatch, cpus, workers, processes):
        started, chunks = [], []

        class InProcessPool:  # records what a process pool would start; starts none
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                chunks.extend(zip(*args))
                return map(fn, *args)

        monkeypatch.setattr(oracle, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        counts = oracle._compute_pair_counts(5, workers)
        assert started == [processes]
        assert len(chunks) == min(workers, math.factorial(4))
        assert counts.tolist() == _fact_chunk(5, 0, math.factorial(4)).tolist()

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
