import hashlib
import itertools
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
    canonical_of_type,
    count_factorizations,
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
    _fact_chunk,
    _lex_rank,
    _pair_counts_cache,
    _pairs_alpha_tables,
    _pairs_by_type,
    _plane_codes,
    _plane_type_tallies,
    _rank_of_image,
    product_pair_counts,
)

P = IntegerPartition
C = Composition


def fresh_pair_counts(n, workers):
    _pair_counts_cache.clear()
    _pairs_by_type.cache_clear()
    _pairs_alpha_tables.cache_clear()
    return product_pair_counts(n, workers)


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

    def test_forced_sweep_passes_the_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "PAIR_SWEEP_FREE_LIMIT", 4)
        monkeypatch.delitem(_pair_counts_cache, 5, raising=False)
        _pairs_by_type.cache_clear()
        with pytest.raises(ResourceLimitError):
            sweep_pairs(5)
        assert sweep_pairs(5, force=True).total == 24**2

    def test_alpha_must_match_n(self):
        with pytest.raises(ValueError):
            sweep_pairs(4, C((2, 3)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_match_direct_enumeration(self, n):
        from longcycles import compose

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
    def test_rank_of_image_matches_itertools(self, n):
        for i, image in enumerate(itertools.permutations(range(1, n + 1))):
            assert _rank_of_image(n, image) == i

    def test_fact_chunks_sum_to_whole_range(self):
        whole = _fact_chunk(6, 0, 120)
        parts = _fact_chunk(6, 0, 7) + _fact_chunk(6, 7, 64) + _fact_chunk(6, 64, 120)
        assert np.array_equal(parts, whole)
        assert whole.sum() == 120**2

    def test_plane_codes_digest(self):
        # pinned from the earlier binary-search rank, which the tables must reproduce
        digest = hashlib.sha256(_plane_codes(6).tobytes()).hexdigest()
        assert digest == "dca96d4fa9cd2e031e710e5336d2fa12dc856bde0c5f2fdb4f5024dfd6c2bf1f"


class TestCountFactorizations:
    def test_worked_values(self):
        assert count_factorizations(Permutation.from_cycles([[1, 2], [3, 4]])) == 2
        assert count_factorizations(Permutation.from_cycles([[1, 2]], n=4)) == 0

    def test_identity_target(self):
        for n in range(1, 7):
            assert count_factorizations(Permutation.identity(n)) == math.factorial(n - 1)

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
        by_eta, _ = _plane_type_tallies(n)
        for eta in partitions(n):
            total = sum(by_eta[eta.parts].values())
            assert total == math.factorial(n - 1) * z_of(eta)

    def test_alpha_tallies_by_direct_enumeration(self):
        from longcycles import alpha_type, compose, is_alpha_separated

        D = canonical_of_type(P((4,)))
        alpha = C((2, 2))
        res = sweep_fixed_diagonal(D, alpha)
        direct = {}
        for s in long_cycle_iter(4):
            pi = compose(D.inverse(), s)
            if is_alpha_separated(pi, alpha):
                key = str(alpha_type(pi, alpha))
                direct[key] = direct.get(key, 0) + 1
        assert dict(res.tables["alpha_type"].items()) == direct

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
    def test_worker_counts_agree(self, n):
        single = fresh_pair_counts(n, 1).tolist()
        double = fresh_pair_counts(n, 2).tolist()
        assert single == double

    def test_json_identical_across_workers(self):
        texts = []
        for w in (1, 3):
            fresh_pair_counts(5, w)
            texts.append(sweep_pairs(5, C((2, 3))).to_json())
        assert texts[0] == texts[1]


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
        import json

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
        [lambda text: text[: len(text) // 2], lambda text: text.replace('"total":"36"', '"total":"37"')],
        ids=["truncated", "wrong-total"],
    )
    def test_damaged_cache_file_is_recomputed(self, tmp_path, caplog, damage):
        good = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        (path,) = tmp_path.glob("*.json")
        path.write_text(damage(path.read_text()))
        with caplog.at_level(logging.WARNING, logger="longcycles"):
            again = sweep_pairs(4, C((2, 2)), cache_dir=tmp_path)
        assert again.to_json() == good.to_json()
        assert "cache miss" in caplog.text
        assert path.read_text() == good.to_json()
        assert list(tmp_path.iterdir()) == [path]
