import functools
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from longcycles import (
    IntegerPartition,
    Permutation,
    cli,
    compose,
    formulas,
    long_cycle_iter,
    odd_refinements,
    oracle,
    partitions,
    verify,
    z_of,
)
from longcycles import _columns, _plane_checks
from longcycles.errors import DomainError, ResourceLimitError
from longcycles.partitions import (
    Composition,
    _compositions,
    _odd_refinements,
    _partition_list,
    _partition_sequence_keys,
    _shrink_steps,
    _z,
    _z_seq,
    format_d_key,
    format_seq_key,
    format_type_key,
    stirling_first,
)
from longcycles.verify import IdentityReport, ParityAuditRecord, VerifyRun

# suite -> (its function, the largest max_n it can finish at)
SWEEP_LIMITS = {
    "classic": ("classic_reports", oracle.PLANE_SWEEP_LIMIT),
    "section3": ("section3_reports", oracle.PLANE_SWEEP_LIMIT),
    "formulas": ("formula_vs_oracle_reports", oracle.HARD_LIMIT),
    "parity": ("parity_audit", oracle.HARD_LIMIT),
    "plane": ("plane_structure_reports", oracle.PLANE_SWEEP_LIMIT),
}


def assert_all_pass(reports):
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(str(r) for r in bad[:20])


def alpha_instances(n):
    """Every (composition of n, block types over it), in the suites' order."""
    for alpha in _compositions(n):
        for key in _partition_sequence_keys(alpha):
            yield alpha, key


class TestSuites:
    def test_classic(self):
        reports = verify.classic_reports(5)
        assert reports
        assert_all_pass(reports)

    def test_section3(self):
        reports = verify.section3_reports(4)
        assert reports
        assert_all_pass(reports)
        names = {r.identity for r in reports}
        assert {
            "split_exceedance_sep",
            "split_joint_sep",
            "split_long_sep",
            "total_exceedance_balance",
            "total_exceedance_count",
            "downarrow_step",
            "downarrow_exchange",
            "weighted_sum_recurrence",
            "weighted_sum_value",
            "block_deletion_d[oracle]",
            "block_deletion_d[formula]",
            "block_deletion_total",
        } <= names

    def test_baserecur(self):
        reports = verify.baserecur_reports(9)
        assert len(reports) > 1000
        assert_all_pass(reports)

    def test_formulas(self):
        assert_all_pass(verify.formula_vs_oracle_reports(5))

    def test_plane(self):
        reports = verify.plane_structure_reports(4)
        assert reports
        assert_all_pass(reports)

    @pytest.mark.parametrize("suite", sorted(verify._SUITE_LIMITS))
    def test_above_its_limit_fails_before_any_sweep(self, monkeypatch, suite):
        # called directly, not through run_suites: the first step at the
        # smallest n of every suite fails, so the guard must come first
        def never(*args):
            raise AssertionError(f"the {suite} suite ran above its limit")

        for name in ("_all_perm_rows", "_signatures", "_cycle_rows", "_cycle_words", "product_pair_counts"):
            monkeypatch.setattr(oracle, name, never)
        for name in ("_key_spaces", "_require_int64", "_baserecur_columns"):
            monkeypatch.setattr(_columns, name, never)
        monkeypatch.setattr(verify, "_zagier_oracle", never)
        function = "baserecur_reports" if suite == "baserecur" else SWEEP_LIMITS[suite][0]
        with pytest.raises(ResourceLimitError, match=f"the {suite} suite"):
            getattr(verify, function)(verify._SUITE_LIMITS[suite] + 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_plane_failures_are_counted_once_per_word(self, monkeypatch, workers):
        # failures that depend on the word: every word is checked once, whatever the chunks and processes
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        checks = _plane_checks
        monkeypatch.setattr(checks, "_array_bad_counts", lambda words, *rest: (len(words), int(words[:, 1].sum()), 0))
        monkeypatch.setattr(checks, "_transposition_bad_count", lambda words, *rest: int(words[:, -1].sum()))
        reports = [r for r in verify.plane_structure_reports(5, workers) if r.instance.startswith("n=5 ")]
        words = oracle._cycle_words(5)
        assert [r.lhs for r in reports] == [len(words), words[:, 1].sum(), 0, words[:, -1].sum()]

    def test_plane_at_n7(self):
        reports = [r for r in verify.plane_structure_reports(7) if r.instance.startswith("n=7 ")]
        assert [(r.identity, r.instance) for r in reports] == [
            ("plane:diagonal_agreement", "n=7 over 3628800 arrays"),
            ("plane:ntae_count_formula", "n=7 over 3628800 arrays"),
            ("plane:reflection_identity", "n=7 over 3628800 arrays"),
            ("plane:transposition_action", "n=7 over 18144000 transpositions"),
        ]
        assert all((r.lhs, r.rhs) == (0, 0) for r in reports)

    def test_block_deletion_one_above_ci_scale(self):
        # the block-deletion identities at n=7, over all compositions of 8
        reports = verify.block_deletion_reports(7)
        assert len(reports) > 1000
        assert_all_pass(reports)

    def test_weighted_sum_value_spot(self):
        # alpha=(3) one above n=2: the weighted sum collapses to a single term
        reports = [
            r
            for r in verify.section3_reports(2)
            if r.identity == "weighted_sum_value" and r.instance == "n=2 alpha=(3) Lam=2+1"
        ]
        assert len(reports) == 1
        assert reports[0].lhs == reports[0].rhs == 3


# ---------------------------------------------------------------------------
# the scalar reference: classic and section3 one report at a time in Python
# ints, from the oracle's tables by key, as the suites computed them before
# their int64 columns.  ``planes`` and ``pairs`` are the two sources it reads,
# so that a test can inject one fault into the suite and the reference alike.

_NO_PLANES = (0, 0)  # the (count, exceedances) of a key that no vertical has


def plane_tallies(n, alpha_parts):
    """by_eta[eta][key] = (count, exceedances): the plane permutations with
    diagonal cycle type eta whose vertical is alpha-separated with block
    types key, and the sum of their exceedance counts, from the key assignment
    of the signatures (_keys) over the plane sweep's totals, in the order of
    each key's first row.  Keys that no vertical has are left out."""
    keys = oracle._keys(oracle._signatures(n)[1], oracle._signature_sums(n), alpha_parts)
    assert (np.diff(np.unique(keys.key_of, return_index=True)[1]) > 0).all()  # keys in first-row order
    sums = dict(zip(keys.keys, oracle._key_sums(keys, oracle._plane_totals(n)).tolist()))
    return {eta: {key: tuple(by_t[t]) for key, by_t in sums.items()} for t, eta in enumerate(_partition_list(n))}


def pair_count(n, alpha_parts, key):
    """Ordered pairs whose product is alpha-separated with the given block types."""
    return oracle._pairs_alpha_tables(n, alpha_parts)[1].get(key, 0)


@functools.cache
def odd_refinements_seq(seq_key):
    """(new sequence key, kappa) over the odd splits of one block of seq_key."""
    return tuple(
        (seq_key[:i] + (mu,) + seq_key[i + 1 :], kap)
        for i, comp in enumerate(seq_key)
        for mu, kap in _odd_refinements(comp)
    )


def seq_len(key):
    return sum(len(c) for c in key)


def _eta_rows(n):
    """Per diagonal type eta of size n, in _partition_list order: its text, its
    odd splits as (index of the split, kappa), and n + 1 - len(eta)."""
    index = {eta: i for i, eta in enumerate(_partition_list(n))}
    refs = {eta: tuple((index[mu], kap) for mu, kap in _odd_refinements(eta)) for eta in index}
    return [(format_type_key(eta), refs[eta], n + 1 - len(eta)) for eta in index]


def _split_rows(n, tallies, key, length, eta_rows):
    """((split lhs, split rhs), (joint lhs, joint rhs)) at block types key of
    ``length`` parts, per eta of ``eta_rows``, and key's exceedances over all
    eta; ``tallies`` are one composition's plane tallies in that order."""
    refs = odd_refinements_seq(key)
    cells = [by_key.get(key, _NO_PLANES) for by_key in tallies]
    rows, total_exc = [], 0
    for (_text, eta_refs, free), by_key, (count, exc) in zip(eta_rows, tallies, cells):
        split_rhs = sum(kap * by_key.get(k2, _NO_PLANES)[0] for k2, kap in refs)
        joint_rhs = split_rhs + sum(kap * cells[i][0] for i, kap in eta_refs)
        rows.append((((n - length) * count - exc, split_rhs), ((free - length) * count, joint_rhs)))
        total_exc += exc
    return rows, total_exc


def _p_refined(pairs, n, alpha_parts, key):
    return sum(kap * pairs(n, alpha_parts, k2) for k2, kap in odd_refinements_seq(key))


def _split_long(pairs, n, alpha_parts, key):
    lhs = (n + 1 - seq_len(key)) * pairs(n, alpha_parts, key)
    return lhs, _p_refined(pairs, n, alpha_parts, key) + math.factorial(n - 1) * _z_seq(key)


def _twice_weighted_sum(pairs, n, alpha_parts, key):
    return sum(twice * pairs(n, a2, key2) for _i, _p, twice, a2, key2 in _shrink_steps(alpha_parts, key))


def _half(x):
    return x // 2 if x % 2 == 0 else Fraction(x, 2)


def scalar_classic_reports(max_n, planes=plane_tallies, pairs=pair_count):
    reports = []
    for n in range(2, max_n + 1):
        etas = _partition_list(n)
        eta_rows = _eta_rows(n)
        by_eta = planes(n, (n,))
        tallies = [by_eta[eta] for eta in etas]
        rows = [_split_rows(n, tallies, (lam,), len(lam), eta_rows)[0] for lam in etas]
        for i, (eta_text, _refs, _free) in enumerate(eta_rows):
            head = f"n={n} eta={eta_text}"
            for j, (lam_text, _refs, _free) in enumerate(eta_rows):
                split, joint = rows[j][i]  # vertical type etas[j], diagonal type etas[i]
                reports.append(IdentityReport("split_exceedance", f"{head} lam={lam_text}", *split))
                reports.append(IdentityReport("split_exceedance_dual", f"{head} lam={lam_text}", *rows[i][j][0]))
                reports.append(IdentityReport("split_joint", f"{head} lam={lam_text}", *joint))
        for lam in etas:
            if (len(lam) - n) % 2 == 0:
                inst = f"n={n} lam={format_type_key(lam)}"
                reports.append(IdentityReport("split_long", inst, *_split_long(pairs, n, (n,), (lam,))))
    return reports


def scalar_section3_reports(max_n, planes=plane_tallies, pairs=pair_count):
    reports = []
    for n in range(2, max_n + 1):
        eta_rows = _eta_rows(n)
        fact_n1 = math.factorial(n - 1)
        for alpha, key in alpha_instances(n):
            base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
            by_eta = planes(n, alpha)
            z_key, length = _z_seq(key), seq_len(key)
            rows, total_exc = _split_rows(n, [by_eta[eta] for eta in _partition_list(n)], key, length, eta_rows)
            for (eta_text, _refs, _free), (split, joint) in zip(eta_rows, rows):
                reports.append(IdentityReport("split_exceedance_sep", f"{base} eta={eta_text}", *split))
                reports.append(IdentityReport("split_joint_sep", f"{base} eta={eta_text}", *joint))
            if (length - n) % 2 == 0:
                reports.append(IdentityReport("split_long_sep", base, *_split_long(pairs, n, alpha, key)))
            odd_split_z = sum(kap * _z_seq(k2) for k2, kap in odd_refinements_seq(key))
            reports.append(IdentityReport("total_exceedance_balance", base, total_exc, fact_n1 * ((n - length) * z_key - odd_split_z)))
            direct = (n - sum(c.count(1) for c in key)) * fact_n1 * z_key
            reports.append(IdentityReport("total_exceedance_count", base, total_exc, _half(direct)))
        # every side below is doubled, so that it is an integer, and halved in the report
        for alpha, key in alpha_instances(n + 1):
            base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
            fz_key, length = fact_n1 * _z_seq(key), seq_len(key)
            steps = tuple(_shrink_steps(alpha, key))
            refined = [twice * _p_refined(pairs, n, a2, key2) for _i, _p, twice, a2, key2 in steps]
            t_refined = sum(kap * _twice_weighted_sum(pairs, n, alpha, k2) for k2, kap in odd_refinements_seq(key))
            if (length - n) % 2 == 0:
                t_key = 0
                for (i0, part, twice, a2, key2), twice_refined in zip(steps, refined):
                    twice_p = twice * pairs(n, a2, key2)
                    t_key += twice_p
                    lhs = (n + 1 - length) * twice_p
                    rhs = twice_refined + part * key[i0].count(part) * fz_key
                    reports.append(IdentityReport("downarrow_step", f"{base} i={i0 + 1} j={part - 1}", _half(lhs), _half(rhs)))
                weight = sum(p for c in key for p in c if p >= 2)
                lhs_rec, rhs_rec = _half((n + 1 - length) * t_key), _half(t_refined + fz_key * weight)
                reports.append(IdentityReport("weighted_sum_recurrence", base, lhs_rec, rhs_rec))
                reports.append(IdentityReport("weighted_sum_value", base, _half(t_key), fz_key))
            reports.append(IdentityReport("downarrow_exchange", base, _half(sum(refined)), _half(t_refined)))
        reports += scalar_block_deletion_reports(n)
    return reports


def scalar_block_deletion_reports(n):
    """block_deletion_reports as it was computed one report at a time: the
    closed side by one separating_by_d call per (shrunk composition, d), the
    Stirling products by stirling_first.  The total's right side is a half
    of an integer, an int when it is whole, as the suites' blocks give it."""
    reports = []
    fact_n1 = math.factorial(n - 1)
    closed = functools.cache(lambda b2, d: formulas.separating_by_d(Composition(b2), d))
    for beta in _compositions(n + 1):
        inst_total = f"n={n} beta={format_d_key(beta)}"
        shrinks = [(math.comb(b, 2), beta[:i] + (b - 1,) + beta[i + 1 :]) for i, b in enumerate(beta) if b >= 2]
        if shrinks:
            lhs_tot = sum(coeff * oracle._pairs_alpha_tables(n, b2)[2] for coeff, b2 in shrinks)
            rhs_tot = _half(fact_n1 * math.prod(map(math.factorial, beta)))
            reports.append(IdentityReport("block_deletion_total", inst_total, lhs_tot, rhs_tot))
        for d in itertools.product(*(range(1, b + 1) for b in beta)):
            if (sum(d) - n) % 2:
                continue
            inst = f"{inst_total} d={format_d_key(d)}"
            rhs = fact_n1 * math.prod(map(stirling_first, beta, d))
            lhs = sum(coeff * oracle._pairs_alpha_tables(n, b2)[0].get(d, 0) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[oracle]", inst, lhs, rhs))
            lhs = sum(coeff * closed(b2, d) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[formula]", inst, lhs, rhs))
    return reports


def loop_block_deletion_reports(n):
    """block_deletion_reports as it was computed before its column block, one
    IdentityReport at a time, the closed side from the same tables as the
    block: one formulas._separating_by_d_table per shrunk composition."""
    reports = []
    fact_n1 = math.factorial(n - 1)
    stirling = formulas._stirling_cut(n, tuple(range(1, n + 2)))
    closed = {}
    for beta in _compositions(n + 1):
        inst_total = f"n={n} beta={format_d_key(beta)}"
        shrinks = []
        for i, b in enumerate(beta):
            if b >= 2:
                b2 = beta[:i] + (b - 1,) + beta[i + 1 :]
                if b2 not in closed:
                    closed[b2] = formulas._separating_by_d_table(b2)
                shrinks.append((math.comb(b, 2), oracle._pairs_alpha_tables(n, b2), closed[b2]))
        if shrinks:
            lhs_tot = sum(coeff * pairs[2] for coeff, pairs, _ in shrinks)
            rhs_tot = Fraction(fact_n1 * math.prod(map(math.factorial, beta)), 2)
            reports.append(IdentityReport("block_deletion_total", inst_total, lhs_tot, rhs_tot))
        for d in itertools.product(*(range(1, b + 1) for b in beta)):
            if (sum(d) - n) % 2:
                continue
            inst = f"{inst_total} d={format_d_key(d)}"
            rhs = fact_n1 * math.prod(stirling[b][k] for b, k in zip(beta, d))
            lhs = sum(coeff * pairs[0].get(d, 0) for coeff, pairs, _ in shrinks)
            reports.append(IdentityReport("block_deletion_d[oracle]", inst, lhs, rhs))
            lhs = sum(coeff * table.get(d, 0) for coeff, _, table in shrinks)
            reports.append(IdentityReport("block_deletion_d[formula]", inst, lhs, rhs))
    return reports


SCALAR = {"classic": scalar_classic_reports, "section3": scalar_section3_reports}


def _fields(reports):
    return [(r.identity, r.instance, r.lhs, r.rhs, type(r.lhs), type(r.rhs), str(r)) for r in reports]


def assert_same_fields(got, expected):
    """_fields(got) == _fields(expected), naming the first report that
    differs rather than diffing the whole lists."""
    got, expected = _fields(got), _fields(expected)
    first = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]), None)
    assert first is None, (first, got[first], expected[first])
    assert len(got) == len(expected)


def shifted_planes(planes):
    """A plane-tally source with one exceedance too many at every key of
    every diagonal type, keys that no vertical has included."""

    def shifted(n, alpha_parts):
        keys = list(_partition_sequence_keys(alpha_parts))
        return {
            eta: {key: (count, exc + 1) for key in keys for count, exc in [by_key.get(key, _NO_PLANES)]}
            for eta, by_key in planes(n, alpha_parts).items()
        }

    return shifted


def shift_the_oracle(monkeypatch, exceedances=0, pairs=0):
    """Add ``exceedances`` to every exceedance total and ``pairs`` to every
    pair count that the classic and section3 columns read."""
    true_planes, true_pairs = oracle._plane_array, oracle._pair_array

    def planes(n, alpha_parts):
        shifted = true_planes(n, alpha_parts).copy()  # the cached array stays whole
        shifted[..., 1] += exceedances
        return shifted

    monkeypatch.setattr(oracle, "_plane_array", planes)
    monkeypatch.setattr(oracle, "_pair_array", lambda n, alpha_parts: true_pairs(n, alpha_parts) + pairs)


class TestScalarReference:
    @pytest.mark.parametrize("max_n", range(2, 8))
    @pytest.mark.parametrize("suite", sorted(SCALAR))
    def test_every_field_is_the_scalar_reference(self, suite, max_n):
        reports = getattr(verify, f"{suite}_reports")(max_n)
        reference = SCALAR[suite](max_n)
        assert_same_fields(reports, reference)

    @pytest.mark.parametrize("suite", sorted(SCALAR))
    def test_one_pair_too_many_fails_as_in_the_reference(self, monkeypatch, suite):
        # at every key: the failed sides have odd doubles, printed as halves
        shift_the_oracle(monkeypatch, pairs=1)
        reports = getattr(verify, f"{suite}_reports")(4)
        assert_same_fields(reports, SCALAR[suite](4, pairs=lambda n, alpha, key: pair_count(n, alpha, key) + 1))
        reports = _fields(reports)
        failed = {identity for identity, _i, lhs, rhs, *_ in reports if lhs != rhs}
        assert failed == ({"split_long"} if suite == "classic" else {
            "split_long_sep", "downarrow_step", "weighted_sum_recurrence", "weighted_sum_value",
        })
        assert suite == "classic" or any("/" in text for *_, text in reports)

    @pytest.mark.parametrize("suite", sorted(SCALAR))
    def test_one_exceedance_too_many_fails_as_in_the_reference(self, monkeypatch, suite):
        shift_the_oracle(monkeypatch, exceedances=1)
        reports = getattr(verify, f"{suite}_reports")(3)
        assert_same_fields(reports, SCALAR[suite](3, planes=shifted_planes(plane_tallies)))
        assert not all(r.passed for r in reports)


class TestBlockDeletionReference:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_field_is_the_per_call_reference(self, n):
        assert_same_fields(verify.block_deletion_reports(n), scalar_block_deletion_reports(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_the_block_is_the_report_loop(self, n):
        # the loop's total has a Fraction right side, which the block gives
        # as the int of equal value: the same text and the same JSON
        block = verify.block_deletion_reports(n)
        loop = loop_block_deletion_reports(n)
        fields = lambda reports: [(r.identity, r.instance, r.lhs, r.rhs, str(r), r.to_dict()) for r in reports]
        assert fields(block) == fields(loop)
        assert [d for chunk in block.dicts(100) for d in chunk] == [r.to_dict() for r in loop]
        assert [block[i] for i in range(len(block))] == list(block)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_are_the_per_call_closed_form(self, n):
        # every d up to one above each block: the ones a table leaves out are 0
        for alpha in _compositions(n):
            table = formulas._separating_by_d_table(alpha)
            assert set(table) <= {d for d in itertools.product(*(range(1, a + 2) for a in alpha)) if (sum(d) - n) % 2 == 0}
            for d in itertools.product(*(range(1, a + 2) for a in alpha)):
                value = formulas.separating_by_d(Composition(alpha), d)
                assert table.get(d, 0) == value and type(table.get(d, 0)) is int, (alpha, d)

    def test_a_non_integer_closed_form_is_an_exactness_error(self, monkeypatch):
        # C(3, 2) one too large: the sum at alpha = (2), d = (2) is no longer divisible out
        true_cut = formulas._stirling_cut

        def damaged(n, d):
            rows = [list(row) for row in true_cut(n, d)]
            rows[3][2] += 1
            return rows

        monkeypatch.setattr(formulas, "_stirling_cut", damaged)
        with pytest.raises(formulas.ExactnessError, match=r"separating_by_d\(\(2\),\(2,\)\) evaluated to non-integer"):
            formulas._separating_by_d_table((2,))

    def test_a_damaged_block_factor_fails_both_closed_identities(self, monkeypatch):
        # C(a, d_j) + 1 as the constant term of every later block's factor: at
        # n = 4 the damaged sums stay integers, 2 (n-1)! = 12 being divisible by
        # g (g + 1) for every g <= 3, and both the formulas suite and block
        # deletion's closed side read the factor
        def closed_failures():
            reports = [*verify.formula_vs_oracle_reports(4), *verify.block_deletion_reports(4)]
            return {r.identity for r in reports if r.identity in identities and not r.passed}

        identities = {"formula:separated_by_alpha_d", "block_deletion_d[formula]", "block_deletion_d[oracle]"}
        assert closed_failures() == set()
        true_factor = formulas._block_factor
        monkeypatch.setattr(formulas, "_block_factor", lambda *args: [true_factor(*args)[0] + 1, *true_factor(*args)[1:]])
        assert closed_failures() == {"formula:separated_by_alpha_d", "block_deletion_d[formula]"}


class TestExactnessBound:
    def test_holds_at_n9(self):
        _key_columns, moves = _columns._key_spaces(10)
        for n in range(2, 10):
            _columns._require_exact(n, moves)

    @pytest.mark.parametrize("suite", sorted(SCALAR))
    def test_checked_before_any_column(self, monkeypatch, suite):
        def never(*args):
            raise AssertionError("int64 columns past the bound")

        for name in ("_plane_array", "_pair_array", "_plane_totals"):
            monkeypatch.setattr(oracle, name, never)
        monkeypatch.setattr(_columns, f"_{suite}_block", never)
        monkeypatch.setattr(_columns, "_largest_row_sum", lambda rows, weights: 2**62)
        with pytest.raises(ResourceLimitError, match="the classic and section3 suites at n=2 would overflow int64"):
            getattr(verify, f"{suite}_reports")(3)

    def test_bounds_the_largest_column(self):
        # at n = 7 every doubled side that the suites compute is within the bound
        largest = max(
            int(np.abs(column).max())
            for reports in (verify.classic_reports(7), verify.section3_reports(7))
            for part in reports.parts
            if isinstance(part, verify._ReportBlock) and part.texts[0].startswith("n=7 ")
            for column in (part.twice_lhs, part.twice_rhs)
        )
        assert 0 < largest <= _columns._require_exact(7, _columns._key_spaces(8)[1]) < 2**62


# the section3 identities whose sides are compared doubled, as integers
DOUBLED = {
    "total_exceedance_count",
    "downarrow_step",
    "weighted_sum_recurrence",
    "weighted_sum_value",
    "downarrow_exchange",
}


def _fraction_reports(n, pairs=pair_count):
    """The DOUBLED reports at size n in section3's order, each side evaluated
    with the halved coefficients as Fractions."""
    fact_n1 = math.factorial(n - 1)

    def steps(alpha, key):
        # coefficient (alpha_i / 2) (part-1) times the (part-1)-parts after the shrink
        for i0, part, _twice, a2, key2 in _shrink_steps(alpha, key):
            yield i0, part, Fraction(alpha[i0], 2) * (part - 1) * key2[i0].count(part - 1), a2, key2

    def weighted_sum(alpha, key):
        return sum(coeff * pairs(n, a2, key2) for _i, _p, coeff, a2, key2 in steps(alpha, key))

    reports = []
    for alpha, key in alpha_instances(n):
        base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
        by_eta = plane_tallies(n, alpha)
        total_exc = sum(by_eta[eta].get(key, (0, 0))[1] for eta in _partition_list(n))
        direct = Fraction(n - sum(c.count(1) for c in key), 2) * fact_n1 * _z_seq(key)
        reports.append(IdentityReport("total_exceedance_count", base, total_exc, direct))
    for alpha, key in alpha_instances(n + 1):
        base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
        z_key, length = _z_seq(key), seq_len(key)
        t_refined = sum(kap * weighted_sum(alpha, k2) for k2, kap in odd_refinements_seq(key))
        if (length - n) % 2 == 0:
            for i0, part, coeff, a2, key2 in steps(alpha, key):
                lhs = (n + 1 - length) * coeff * pairs(n, a2, key2)
                rhs = coeff * _p_refined(pairs, n, a2, key2)
                rhs += Fraction(part * key[i0].count(part), 2) * fact_n1 * z_key
                reports.append(IdentityReport("downarrow_step", f"{base} i={i0 + 1} j={part - 1}", lhs, rhs))
            t_key = weighted_sum(alpha, key)
            weight = sum(p for c in key for p in c if p >= 2)
            rhs_rec = t_refined + Fraction(fact_n1 * z_key, 2) * weight
            reports.append(IdentityReport("weighted_sum_recurrence", base, (n + 1 - length) * t_key, rhs_rec))
            reports.append(IdentityReport("weighted_sum_value", base, t_key, fact_n1 * z_key))
        lhs_ex = sum(coeff * _p_refined(pairs, n, a2, key2) for _i, _p, coeff, a2, key2 in steps(alpha, key))
        reports.append(IdentityReport("downarrow_exchange", base, lhs_ex, t_refined))
    return reports


class TestSection3DoubledSides:
    def test_same_reports_as_the_fraction_arithmetic(self):
        new = [r.to_dict() for r in verify.section3_reports(5) if r.identity in DOUBLED]
        old = [r.to_dict() for n in range(2, 6) for r in _fraction_reports(n)]
        assert {r["identity"] for r in old} == DOUBLED
        assert new == old

    def test_broken_identities_report_the_same_exact_halves(self, monkeypatch):
        # one pair too many at every key: the failed sides have odd doubles,
        # so the reports must print halves exactly as the Fractions did
        shift_the_oracle(monkeypatch, pairs=1)
        new = [r.to_dict() for r in verify.section3_reports(4) if r.identity in DOUBLED]
        one_more = lambda n, alpha, key: pair_count(n, alpha, key) + 1  # noqa: E731
        old = [r.to_dict() for n in range(2, 5) for r in _fraction_reports(n, one_more)]
        assert new == old
        assert any("/" in r["lhs"] + r["rhs"] for r in new)
        assert not all(r["pass"] for r in new)

    def test_shifted_exceedance_totals_fail_the_exceedance_identities(self, monkeypatch):
        # one exceedance too many at every key of every tally
        shift_the_oracle(monkeypatch, exceedances=1)
        reports = verify.section3_reports(3)
        hit = {"split_exceedance_sep", "total_exceedance_balance", "total_exceedance_count"}
        assert hit <= {r.identity for r in reports}
        for r in reports:
            assert r.passed == (r.identity not in hit), str(r)


class TestSharedSplitRows:
    def test_classic_splits_are_the_one_block_section3_splits(self):
        # classic's split_exceedance and split_joint at (eta, lam) are
        # section3's *_sep reports at alpha = (n), key = (lam,)
        names = {"split_exceedance": "split_exceedance_sep", "split_joint": "split_joint_sep"}
        sep = {(r.identity, r.instance): (r.lhs, r.rhs) for r in verify.section3_reports(6)}
        checked = 0
        for r in verify.classic_reports(6):
            if r.identity in names:
                n, eta, lam = (field.split("=")[1] for field in r.instance.split(" "))
                assert (r.lhs, r.rhs) == sep[names[r.identity], f"n={n} alpha=({n}) Lam={lam} eta={eta}"], str(r)
                checked += 1
        assert checked == 2 * sum(len(_partition_list(n)) ** 2 for n in range(2, 7))

    def test_no_memo_outlives_its_call(self, monkeypatch):
        # fill whatever the suites keep, then break every source they read: a
        # memo kept across calls would still serve the true values
        verify.section3_reports(4)
        verify.block_deletion_reports(4)
        true_closed = formulas._separating_by_d_table
        shift_the_oracle(monkeypatch, exceedances=1, pairs=1)
        monkeypatch.setattr(
            formulas, "_separating_by_d_table", lambda alpha: {d: v + 1 for d, v in true_closed(alpha).items()}
        )
        failed = {r.identity for r in verify.section3_reports(4) if not r.passed}
        assert failed == {
            "split_long_sep",  # pair counts
            "downarrow_step",
            "weighted_sum_recurrence",
            "weighted_sum_value",
            "split_exceedance_sep",  # exceedance totals
            "total_exceedance_balance",
            "total_exceedance_count",
            "block_deletion_d[formula]",  # the closed form
        }
        failed = {r.identity for r in verify.block_deletion_reports(4) if not r.passed}
        assert failed == {"block_deletion_d[formula]"}


class TestSlottedRecords:
    REPORTS = [
        IdentityReport("a", "n=1", 3, 3),
        IdentityReport("b", "n=2", Fraction(1, 2), Fraction(1, 2)),
        IdentityReport("c", "n=3", 1, Fraction(3, 2)),
    ]
    AUDIT = [ParityAuditRecord("d", "n=4", Fraction(11, 6), 0), ParityAuditRecord("e", "n=5", 4, 2)]

    @pytest.mark.parametrize("record", REPORTS[:1] + AUDIT[:1])
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "unknown"

    def test_text_and_dicts_for_int_and_fraction_sides(self):
        assert [(str(r), r.passed) for r in self.REPORTS] == [
            ("[ok] a @ n=1: 3 vs 3", True),
            ("[ok] b @ n=2: 1/2 vs 1/2", True),
            ("[FAIL] c @ n=3: 1 vs 3/2", False),
        ]
        assert self.REPORTS[2].to_dict() == {
            "identity": "c", "instance": "n=3", "lhs": "1", "rhs": "3/2", "pass": False,
        }
        assert [(str(a), a.ok) for a in self.AUDIT] == [
            ("[ok] parity violation d @ n=4: expression gives 11/6, true count 0", True),
            ("[FAIL] parity violation e @ n=5: expression gives 4, true count 2", False),
        ]
        assert self.AUDIT[0].to_dict() == {
            "identity": "d", "instance": "n=4", "formula_value": "11/6", "true_count": "0", "ok": True,
        }

    def test_write_json(self):
        out = io.StringIO()
        VerifyRun(reports=self.REPORTS, audit=self.AUDIT).write_json(out)
        assert out.getvalue() == (
            '{"audit": [{"formula_value": "11/6", "identity": "d", "instance": "n=4", "ok": true, '
            '"true_count": "0"}, {"formula_value": "4", "identity": "e", "instance": "n=5", "ok": false, '
            '"true_count": "2"}], "ok": false, "reports": [{"identity": "a", "instance": "n=1", "lhs": "3", '
            '"pass": true, "rhs": "3"}, {"identity": "b", "instance": "n=2", "lhs": "1/2", "pass": true, '
            '"rhs": "1/2"}, {"identity": "c", "instance": "n=3", "lhs": "1", "pass": false, "rhs": "3/2"}]}\n'
        )


class TestInstanceTextParts:
    # per suite at max_n = 6 (baserecur at N = 10): the record count and the
    # sha256 of every record's instance, to_dict() and str(), one line each,
    # pinned from the reports that formatted their text when they were made
    EAGER_TEXT = {
        "classic": (640, "5e330c93a6db5e1c8c953eaa2059097d29955dfc84718cbb65925347e5e3b8d1"),
        "section3": (7687, "cc52b73f2f01aafea2807e3d7cd7347b74694b968fbb00e83e35007ea39f0dc7"),
        "baserecur": (13462, "8516a9bcc478c3c4cc6c622ecf273d34dc20f234819a70fcf637247e51a3051f"),
        "formulas": (480, "4ac83eb35df2103e329343524c1f0c17d2b8176db65becf4ff069039efb05d60"),
        "plane": (19, "dbe4938a97a74aeafcb36356670de96d26a7f10a8dcfc0bad794de01220dee36"),
        "parity": (156, "76ac6f83a17087858e182d27ccd961a52d80588291bdd9ebcdd61a0cd51c92e0"),
    }

    @pytest.mark.parametrize("suite", sorted(EAGER_TEXT))
    def test_joined_text_is_the_eager_text(self, suite):
        run = verify.run_suites((suite,), 6, baserecur_max_n=10)
        records = run.reports + run.audit
        digest = hashlib.sha256()
        for r in records:
            doc = r.to_dict()
            assert doc["instance"] == r.instance
            digest.update(f"{r.instance}\t{json.dumps(doc, sort_keys=True)}\t{r}\n".encode())
        assert (len(records), digest.hexdigest()) == self.EAGER_TEXT[suite]

    def test_positional_and_equal_by_joined_text(self):
        report = IdentityReport("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        assert (report.identity, report.instance, report.lhs, report.rhs) == ("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        joined = IdentityReport("x", "".join(["n=2", " eta=", "1+1"]), 3, Fraction(1, 2))
        assert joined == report and not joined != report
        assert repr(joined) == "IdentityReport(identity='x', instance='n=2 eta=1+1', lhs=3, rhs=Fraction(1, 2))"
        assert (str(joined), joined.to_dict()) == (str(report), report.to_dict())
        assert report != IdentityReport("x", "n=2 eta=2", 3, Fraction(1, 2))
        assert report != IdentityReport("y", "n=2 eta=1+1", 3, Fraction(1, 2))
        assert report != ("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        match joined:
            case IdentityReport("x", instance, lhs, rhs):
                assert (instance, lhs, rhs) == ("n=2 eta=1+1", 3, Fraction(1, 2))
            case _:
                pytest.fail("no match by position")
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(TypeError):  # the four fields and no more
            IdentityReport("x", "n=2", 3, Fraction(1, 2), " eta=", "1+1")


def test_a_cold_run_leaves_no_cyclic_garbage():
    # in a fresh process every cache is empty, so each helper builds what it
    # builds once; with the collector off, a reference cycle made on the way
    # would wait for this collect() and be counted by it
    script = (
        "import gc; from longcycles import verify; gc.collect(); gc.disable(); "
        "verify.run_suites(verify.SUITES, 4, baserecur_max_n=6); print(gc.isenabled(), gc.collect())"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]


class TestBaserecurSecondRoute:
    def test_both_sides_the_whole_key_way(self):
        # every instance recomputed from its whole block-type key: the odd
        # splits of the sequence, its z and its weight
        instances = [(total, *inst) for total in range(1, 10) for inst in alpha_instances(total)]
        reports = verify.baserecur_reports(9)
        assert len(reports) == len(instances)
        for report, (total, alpha, key) in zip(reports, instances):
            assert report.instance == f"N={total} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
            assert report.lhs == (total - seq_len(key)) * _z_seq(key)
            rhs = sum(kap * _z_seq(k2) for k2, kap in odd_refinements_seq(key))
            rhs += Fraction(_z_seq(key), 2) * sum(p for c in key for p in c if p >= 2)
            assert report.rhs == rhs

    @pytest.mark.parametrize("p", range(13))
    def test_block_pieces_from_the_public_api(self, p):
        columns = _columns._block_tables(p)[0]
        assert columns.dtype == np.int64 and columns.shape == (4, len(list(partitions(p))))
        for lam, (z, s, weight, length) in zip(partitions(p), columns.T.tolist()):
            assert z == z_of(lam)
            assert s == sum(kap * z_of(mu) for mu, kap in odd_refinements(lam))
            assert weight == sum(i * lam.multiplicity(i) for i in range(2, p + 1))
            assert length == lam.length

    def test_a_broken_identity_reports_its_exact_right_side(self, monkeypatch):
        # one more unit of weight on the single block of N = 1: the right
        # side becomes z * 1 / 2 = 1/2, against a left side of 0
        tables = _columns._block_tables

        def heavier(p):
            columns, *moves = tables(p)
            return (columns + [[0], [0], [1], [0]], *moves)

        monkeypatch.setattr(_columns, "_block_tables", heavier)
        (report,) = verify.baserecur_reports(1)
        assert (report.lhs, report.rhs, report.passed) == (0, Fraction(1, 2), False)
        assert str(report) == "[FAIL] length_weight_base @ N=1 alpha=(1) Lam=1: 0 vs 1/2"


@functools.cache
def scalar_pieces(p):
    """Per partition c of p, in _partition_list order: (its key text, z(c),
    S(c) = sum of kappa * z(mu) over its odd splits mu, the size of its parts
    >= 2, len(c)), one partition at a time from the scalar routines."""
    return {
        c: (format_type_key(c), _z(c), sum(kap * _z(mu) for mu, kap in _odd_refinements(c)), sum(c) - c.count(1), len(c))
        for c in _partition_list(p)
    }


class TestBlockTables:
    """_columns._block_tables, the array pass per block size, against the
    scalar routines of partitions, which it replaced in verify."""

    @pytest.mark.parametrize("p", range(15))
    def test_against_the_scalar_routines(self, p):
        columns, splits, steps = _columns._block_tables(p)
        parts = _partition_list(p)
        assert [piece[1:] for piece in scalar_pieces(p).values()] == list(map(tuple, columns.T.tolist()))
        index = {c: i for i, c in enumerate(parts)}
        expected = [(index[c], index[mu], kap) for c in parts for mu, kap in _odd_refinements(c)]
        got = list(map(tuple, splits.T.tolist()))
        assert len(got) == len(expected) and set(got) == set(expected)
        down = {c: i for i, c in enumerate(_partition_list(p - 1))} if p else {}
        expected = [
            (index[c], down[shrunk], twice, part * c.count(part), part)
            for c in parts
            for _i0, part, twice, _a2, (shrunk,) in _shrink_steps((p,), (c,))
        ]
        assert list(map(tuple, steps.T.tolist())) == expected
        assert all(table.dtype == np.int64 and not table.flags.writeable for table in (columns, splits, steps))

    def test_verify_never_enters_the_scalar_refinement_loop(self, monkeypatch):
        expected = [_fields(verify.baserecur_reports(12)), _fields(verify.run_suites(("classic", "section3"), 6).reports)]

        def never(*args):
            raise AssertionError("verify entered a scalar refinement loop")

        for name in ("_refinements", "_odd_refinements", "_shrink_steps"):
            monkeypatch.setattr(sys.modules["longcycles.partitions"], name, never)
        _columns._block_tables.cache_clear()
        _columns._key_spaces.cache_clear()
        run = verify.run_suites(("classic", "section3"), 6)
        assert run.ok
        assert [_fields(verify.baserecur_reports(12)), _fields(run.reports)] == expected


def _leading_folds(rest, parts, folded, folds, keep, pieces):
    """Each composition of sum(parts) + rest that begins with parts, in
    _compositions order, with its leading blocks folded, in itertools.product
    order, into (key text, z, sum_i S_i z / z_i, weight, length), from
    ``folded``, the fold of parts.  A composition leads at every larger
    total, so ``folds`` keeps the fold of each one of sum below ``keep``."""
    yield parts + (rest,), folded
    for b in range(rest - 1, 0, -1):
        lead = parts + (b,)
        lead_folded = folds.get(lead)
        if lead_folded is None:
            lead_folded = [
                (text + piece + " | ", z * zp, s * zp + sp * z, w + wp, length + lp)
                for text, z, s, w, length in folded
                for piece, zp, sp, wp, lp in pieces(b).values()
            ]
            if sum(lead) < keep:
                folds[lead] = lead_folded
        yield from _leading_folds(rest - b, lead, lead_folded, folds, keep, pieces)


def scalar_baserecur_reports(max_n, pieces=scalar_pieces):
    """baserecur one instance at a time in Python ints, from the ``pieces``
    of each block size (scalar_pieces): the reference for its int64 columns."""
    reports = []
    folds = {}  # the leading compositions' folds, shared by every total
    for total in range(1, max_n + 1):
        for alpha_parts, folded in _leading_folds(total, (), [("", 1, 0, 0, 0)], folds, max_n - 1, pieces):
            head = f"N={total} alpha={format_d_key(alpha_parts)} Lam="
            last = tuple(pieces(alpha_parts[-1]).values())
            for text, z, s, w, length in folded:
                lead = head + text
                for piece, zp, sp, wp, lp in last:
                    z_key = z * zp
                    twice = 2 * (s * zp + sp * z) + z_key * (w + wp)  # the right side, doubled
                    rhs = twice >> 1 if twice & 1 == 0 else Fraction(twice, 2)
                    lhs = (total - length - lp) * z_key
                    reports.append(IdentityReport("length_weight_base", lead + piece, lhs, rhs))
    return reports


class TestBaserecurColumns:
    @pytest.mark.parametrize("max_n", [*range(1, 13), pytest.param(14, marks=pytest.mark.extended)])
    def test_every_field_is_the_scalar_reference(self, max_n):
        reports = verify.baserecur_reports(max_n)
        reference = scalar_baserecur_reports(max_n)
        assert len(reports) == len(reference)
        assert _fields(reports) == _fields(reference)

    def test_int64_bound_holds_at_the_limit_and_fails_above(self):
        _columns._require_int64(verify._SUITE_LIMITS["baserecur"])
        with pytest.raises(ResourceLimitError, match="overflow int64"):
            _columns._require_int64(20)

    def test_int64_bound_is_checked_before_the_columns(self, monkeypatch):
        def never(max_n):
            raise AssertionError("int64 columns past the bound")

        monkeypatch.setitem(verify._SUITE_LIMITS, "baserecur", 20)
        monkeypatch.setattr(_columns, "_baserecur_columns", never)
        with pytest.raises(ResourceLimitError, match="the baserecur suite at n=20 would overflow int64"):
            verify.baserecur_reports(20)

    def test_a_failing_piece_fails_the_reference_instances(self, monkeypatch):
        # one more unit of weight on the partition 2+1 of a block of 3: every
        # key with that block fails, by z / 2, a half where z is odd
        def heavier(p):
            return {c: (text, z, s, w + (c == (2, 1)), n) for c, (text, z, s, w, n) in scalar_pieces(p).items()}

        tables = _columns._block_tables

        def heavier_tables(p):
            columns, *moves = tables(p)
            weight = [c == (2, 1) for c in _partition_list(p)]
            return (columns + np.array([[0], [0], [1], [0]]) * weight, *moves)

        monkeypatch.setattr(_columns, "_block_tables", heavier_tables)
        run = verify.run_suites(("baserecur",), 3, baserecur_max_n=7)
        expected = [str(r) for r in scalar_baserecur_reports(7, heavier) if not r.passed]
        assert expected and any("/2" in line for line in expected)
        assert run.failures() == expected  # read from the columns, built one index at a time
        assert [str(r) for r in run.reports if not r.passed] == expected  # built in order
        assert f"length_weight_base: {len(run.reports)} instances, {len(expected)} FAILED" in run.summary_lines()
        assert not run.ok
        out = io.StringIO()
        run.write_json(out)  # the dicts straight from the columns, halves and failures included
        assert out.getvalue() == json.dumps(run.to_dict(), sort_keys=True) + "\n"


class TestReportStore:
    def test_sequence_protocol(self):
        reports, reference = verify.baserecur_reports(8), scalar_baserecur_reports(8)
        n = len(reference)
        assert len(reports) == n and list(reports) == reference
        assert [reports[i] for i in range(n)] == reference == [reports[i] for i in range(-n, 0)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                reports[i]
        assert reports[3:9] == reference[3:9] and reports[::-7] == reference[::-7]
        first, second, *rest, last = reports
        assert [first, second, *rest, last] == reference
        extra = IdentityReport("x", "n=1", 1, 1)
        assert list(reports + [extra]) == [*reference, extra]
        assert list([extra] + reports) == [extra, *reference]
        assert list(reports + reports) == reference * 2
        assert reports.index(reference[7]) == 7 and reference[-1] in reports

    def test_reports_joined_with_the_audit(self):
        run = verify.run_suites(("classic", "baserecur", "parity"), 3, baserecur_max_n=4)
        records = run.reports + run.audit
        assert len(records) == len(run.reports) + len(run.audit) and run.audit
        assert list(records) == [*verify.classic_reports(3), *scalar_baserecur_reports(4), *run.audit]

    def test_json_of_lists_and_blocks_is_the_document_of_to_dict(self):
        # a failed report on each side of a block, and chunks of 1024 that
        # cross from one part into the next
        reports = [IdentityReport("fake", "n=1", 0, Fraction(1, 2))] * 700
        reports = reports + verify.baserecur_reports(8) + [IdentityReport("fake", "n=2", 3, 4)]
        run = VerifyRun(reports=reports, audit=[ParityAuditRecord("fake_parity", "n=3", 2, 0)])
        out = io.StringIO()
        run.write_json(out)
        assert out.getvalue() == json.dumps(run.to_dict(), sort_keys=True) + "\n"
        assert [d["pass"] for d in run.to_dict()["reports"]].count(False) == 701

    def test_a_passing_run_builds_no_report_for_its_text(self, monkeypatch, capsys):
        built = []
        init = IdentityReport.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(IdentityReport, "__init__", counted)
        run = verify.run_suites(("baserecur",), 3, baserecur_max_n=10)
        assert run.ok and run.failures() == []
        assert run.summary_lines() == [f"length_weight_base: {len(run.reports)} instances, ok"]
        assert cli.main(["verify", "--suite", "baserecur", "--baserecur-max-n", "10"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")
        assert built == []
        run.reports[-1]
        assert len(built) == 1  # the count sees a report that is read


    def test_a_passing_classic_and_section3_run_builds_no_column_report(self, monkeypatch, capsys):
        built = []
        init = IdentityReport.__init__

        def counted(self, identity, *args):
            built.append(identity)
            init(self, identity, *args)

        monkeypatch.setattr(IdentityReport, "__init__", counted)
        run = verify.run_suites(("classic", "section3"), 6)
        assert run.ok and run.failures() == []
        lines = run.summary_lines()
        out = io.StringIO()
        run.write_json(out)
        assert cli.main(["verify", "--suite", "classic", "--suite", "section3", "--max-n", "6"]) == 0
        assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines) + "PASS\n"
        assert built == []  # the block-deletion reports are a block too
        monkeypatch.undo()
        reference = VerifyRun(reports=scalar_classic_reports(6) + scalar_section3_reports(6), audit=[])
        assert lines == reference.summary_lines()  # the counts per identity inside each block
        assert out.getvalue() == json.dumps(reference.to_dict(), sort_keys=True) + "\n"

    def test_one_failure_shows_the_same_everywhere(self):
        run = verify.run_suites(("classic", "section3"), 4)
        block = run.reports.parts[-2]  # section3's block at n = 4
        assert [block[i] for i in range(len(block))] == list(block)  # indexing decodes what iteration builds
        i = len(block) // 2
        good = block[i]
        block.twice_lhs[i] += 1  # half a unit more on one left side
        bad = IdentityReport(good.identity, good.instance, good.lhs + Fraction(1, 2), good.rhs)
        assert not bad.passed and block[i] == bad
        assert run.failures() == [str(bad)] == [str(r) for r in run.reports if not r.passed]
        assert not run.ok
        count = sum(r.identity == bad.identity for r in run.reports)
        assert f"{bad.identity}: {count} instances, 1 FAILED" in run.summary_lines()
        out = io.StringIO()
        run.write_json(out)
        assert out.getvalue() == json.dumps(run.to_dict(), sort_keys=True) + "\n"
        assert [d for d in json.loads(out.getvalue())["reports"] if not d["pass"]] == [bad.to_dict()]


class TestZagierOracle:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_the_scalar_reference(self, n):
        rotation = Permutation.from_cycle_word(range(1, n + 1))
        expected = Counter(compose(rotation, s).cycle_count for s in long_cycle_iter(n))
        for k in range(n + 2):
            assert verify._zagier_oracle(n).get(k, 0) == expected[k]


class TestParityAudit:
    def test_all_true_counts_zero(self):
        audit = verify.parity_audit(5)
        assert audit
        assert all(a.ok for a in audit)

    def test_flags_the_refined_separation_instance(self):
        audit = verify.parity_audit(4)
        hits = [
            a
            for a in audit
            if a.identity == "separated_by_alpha_d" and a.instance == "n=4 alpha=(2,2) d=(1,2)"
        ]
        assert len(hits) == 1
        assert hits[0].formula_value == 4
        assert hits[0].true_count == 0

    def test_flags_wrong_parity_cycle_counts(self):
        audit = verify.parity_audit(3)
        hits = [a for a in audit if a.identity == "by_cycle_count" and a.instance == "n=3 k=2"]
        assert len(hits) == 1
        assert str(hits[0].formula_value) == "11/6"


class TestIdentityTable:
    def test_every_row_is_reported(self):
        # no row is orphaned: each shows in the formulas suite, and each with a
        # bare expression in the parity audit; no report names another identity
        formula_names = {r.identity for r in verify.formula_vs_oracle_reports(4)}
        audit_names = {a.identity for a in verify.parity_audit(4)}
        assert formula_names == {f"formula:{name}" for name in verify._IDENTITIES}
        assert audit_names == {name for name, (_closed, raw, _witness) in verify._IDENTITIES.items() if raw}

    def test_a_row_off_at_one_instance_fails_one_report(self, monkeypatch):
        closed, raw, witness = verify._IDENTITIES["separated_by_alpha_d"]

        def off(alpha, d):
            return closed(alpha, d) + (alpha.parts == (2, 2) and d == (1, 1))

        monkeypatch.setitem(verify._IDENTITIES, "separated_by_alpha_d", (off, raw, witness))
        failed = [(r.identity, r.instance) for r in verify.formula_vs_oracle_reports(4) if not r.passed]
        assert failed == [("formula:separated_by_alpha_d", "n=4 alpha=(2,2) d=(1,1)")]
        assert all(a.ok for a in verify.parity_audit(4))  # the audit reads the bare expression, not this


class TestRunner:
    def test_run_subset(self):
        run = verify.run_suites(("classic", "baserecur"), 4, baserecur_max_n=6)
        assert run.ok
        assert run.audit == []
        assert any("split_long" in line for line in run.summary_lines())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suites(("nope",), 4)

    @pytest.mark.parametrize("suite", sorted(SWEEP_LIMITS))
    def test_above_the_sweep_limit_fails_before_any_suite(self, forbid_suites, suite):
        _function, limit = SWEEP_LIMITS[suite]
        with pytest.raises(ResourceLimitError, match=suite):
            verify.run_suites(("baserecur", suite), limit + 1)

    @pytest.mark.parametrize("suite", sorted(SWEEP_LIMITS))
    def test_at_the_sweep_limit_the_suite_runs(self, monkeypatch, suite):
        function, limit = SWEEP_LIMITS[suite]
        calls = []
        monkeypatch.setattr(verify, function, lambda *args: calls.append(args[0]) or [])
        verify.run_suites((suite,), limit)
        assert calls == [limit]

    def test_plane_and_baserecur_are_limited_at_their_own_n(self, monkeypatch):
        calls = []
        for function in ("plane_structure_reports", "baserecur_reports"):
            monkeypatch.setattr(verify, function, lambda *args: calls.append(args) or [])
        limit = verify._SUITE_LIMITS["baserecur"]
        verify.run_suites(
            ("baserecur", "plane"), 9, baserecur_max_n=limit, plane_max_n=oracle.PLANE_SWEEP_LIMIT, workers=2
        )
        assert calls == [(limit,), (oracle.PLANE_SWEEP_LIMIT, 2)]  # the plane suite also gets the workers

    @pytest.mark.parametrize(
        "suite, kwargs",
        [
            ("plane", {"plane_max_n": oracle.PLANE_SWEEP_LIMIT + 1}),
            ("baserecur", {"baserecur_max_n": verify._SUITE_LIMITS["baserecur"] + 1}),
        ],
    )
    def test_own_n_above_its_limit_fails_before_any_suite(self, forbid_suites, suite, kwargs):
        with pytest.raises(ResourceLimitError, match=suite):
            verify.run_suites(("formulas", "baserecur", "plane"), 4, **kwargs)

    @pytest.mark.parametrize("plane_max_n", [0, -1])
    def test_own_n_below_one_fails_before_any_suite(self, forbid_suites, plane_max_n):
        # 0 is an n of its own, not a stand-in for max_n
        with pytest.raises(DomainError):
            verify.run_suites(("formulas", "plane"), 4, plane_max_n=plane_max_n)

    def test_failure_detection(self):
        run = VerifyRun(
            reports=[IdentityReport("fake", "n=1", 1, 2)],
            audit=[ParityAuditRecord("fake", "n=1", 7, 0)],
        )
        assert not run.ok
        assert any("FAIL" in line for line in run.failures())

    def test_audit_failure_detection(self):
        run = VerifyRun(reports=[], audit=[ParityAuditRecord("fake", "n=1", 7, 3)])
        assert not run.ok

    def test_report_serialization(self):
        report = IdentityReport("x", "n=2", 3, 3)
        doc = report.to_dict()
        assert doc["pass"] is True
        assert doc["lhs"] == "3"
        run = verify.run_suites(("baserecur",), 3, baserecur_max_n=4)
        assert run.to_dict()["ok"] is True


# run in a fresh process, where every cache is cold, so every table that a
# run reads is built during it.  Either it counts the top-level builds of the
# run's tables by their arguments, which key assignment the pair counts and
# the plane tallies read, the bytes that the run holds while the plane suite
# runs, and whether the run still holds any table after it returns; or it
# sums the array data (numpy's trace domain) allocated under oracle._shared
# that is held after the run, less the lex split (oracle._split) and the
# signatures' prefix sums (oracle._signature_sums), which are cached for the
# process wherever they are first built.  Every table is an array; the
# Python objects under _shared also hold the block types that the cached
# pair tables keep as keys and small objects the interpreter keeps for reuse
_RUN_TABLES_SCRIPT = """
import collections, inspect, json, sys, tracemalloc
import numpy
from longcycles import oracle, verify

builds, depth, built = collections.Counter(), [0], {}

def counted(name):
    build = getattr(oracle, name)

    def wrapper(n, *rest):
        if not depth[0]:
            builds[repr((name, n, *rest))] += 1
        depth[0] += 1
        try:
            table = built[(name, n, *rest)] = build(n, *rest)
            return table
        finally:
            depth[0] -= 1

    setattr(oracle, name, wrapper)

# (reader, n, alpha) per call of _key_sums on the assignment that
# _signature_keys built for (n, alpha), and (reader, None) on any other
reads, key_sums = collections.Counter(), oracle._key_sums

def read(keys, counts):
    at = [key[1:] for key, table in built.items() if key[0] == "_signature_keys" and table is keys]
    reads[repr((sys._getframe(1).f_code.co_name, *(at[0] if at else [None])))] += 1
    return key_sums(keys, counts)

def nbytes(table):
    return sum(part.nbytes for part in (table if isinstance(table, tuple) else [table]) if hasattr(part, "nbytes"))

def lines(function):
    source, first = inspect.getsourcelines(function)
    return range(first, first + len(source))

def under(trace, lines):
    return any(f.filename == oracle.__file__ and f.lineno in lines for f in trace.traceback)

if sys.argv[1] == "count":
    for name in ("_cycle_words", "_all_perm_rows", "_pattern_sources", "_signature_keys"):
        counted(name)
    oracle._key_sums = read
    during = []
    suite = verify.plane_structure_reports
    held = lambda: sum(map(nbytes, oracle._held.values()))
    verify.plane_structure_reports = lambda *args: during.append(held()) or suite(*args)
    verify.run_suites(verify.SUITES, 7, plane_max_n=6)
    print(json.dumps({"builds": builds, "reads": reads, "during": during[0], "held": oracle._held is not None}))
else:
    shared, cached = lines(oracle._shared), [lines(oracle._split), lines(oracle._signature_sums)]
    tracemalloc.start(10)
    verify.run_suites(verify.SUITES, 6, baserecur_max_n=6)
    traces = tracemalloc.take_snapshot().traces
    arrays = (t for t in traces if t.domain == numpy.lib.tracemalloc_domain)
    print(sum(t.size for t in arrays if under(t, shared) and not any(under(t, c) for c in cached)))
"""


def _run_tables_script(mode):
    proc = subprocess.run([sys.executable, "-c", _RUN_TABLES_SCRIPT, mode], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_one_run_builds_each_table_once():
    out = _run_tables_script("count")
    # the cycle words, the n! rows and the lex-least rows of each head group,
    # once for every n from 1 to 7; the pattern tables of the tails, once per
    # tail size; and the key assignment of the signatures, once per composition
    tables = [(("_cycle_words", n), ("_all_perm_rows", n), ("_all_perm_rows", n, min(n, 4))) for n in range(1, 8)]
    tables += [[("_pattern_sources", k) for k in range(1, 5)]]
    tables += [[("_signature_keys", n, alpha) for alpha in _compositions(n)] for n in range(1, 8)]
    assert out["builds"] == {repr(table): 1 for by_n in tables for table in by_n}
    # the pair counts of every composition of n <= 7 and the plane tallies of
    # n = 2..7 each read the one assignment of their composition, those of
    # alpha = (n) twice, once for classic and once for section3, which keep
    # no plane tally; and the fixed-diagonal tallies of the formulas suite their own
    reads = [("_pairs_alpha_tables", n, alpha) for n in range(1, 8) for alpha in _compositions(n)]
    reads += [("_plane_array", n, alpha) for n in range(2, 8) for alpha in _compositions(n)]
    diag = repr(("_diag_tallies", None))
    counts = {repr(read): 1 for read in reads} | {repr(("_plane_array", n, (n,))): 2 for n in range(2, 8)}
    assert out["reads"] == {**counts, diag: out["reads"][diag]}
    assert 2**16 < out["during"] < 2 * 2**20  # the tables of n <= 7 while the plane suite runs
    assert not out["held"]


def test_a_run_leaves_no_table_behind():
    # a few blocks under 1 KiB may stay, which numpy keeps for reuse
    assert _run_tables_script("trace") < 2**14
