import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from longcycles import (
    IntegerPartition,
    Permutation,
    cli,
    compose,
    long_cycle_iter,
    odd_refinements,
    oracle,
    partitions,
    verify,
    z_of,
)
from longcycles.errors import ResourceLimitError
from longcycles.partitions import _block_pieces, _odd_refinements_seq, _z_seq, format_d_key, format_seq_key
from longcycles.verify import IdentityReport, ParityAuditRecord, VerifyRun

# suite -> (its function, the largest max_n it can finish at)
SWEEP_LIMITS = {
    "classic": ("classic_reports", oracle.PLANE_SWEEP_LIMIT),
    "section3": ("section3_reports", oracle.PLANE_SWEEP_LIMIT),
    "formulas": ("formula_vs_oracle_reports", oracle.PAIR_SWEEP_FREE_LIMIT),
    "parity": ("parity_audit", oracle.PAIR_SWEEP_FREE_LIMIT),
}


def assert_all_pass(reports):
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(str(r) for r in bad[:20])


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

    def test_plane_json_pinned(self, capsys):
        # sha256 of the output before the suite ran on arrays, newline included
        assert cli.main(["verify", "--format", "json", "--max-n", "6", "--suite", "plane"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5cbc2dc50929cc6680af878b233053dab8785040a10084827ac70f7e71dcac47"

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


class TestBaserecurSecondRoute:
    def test_both_sides_the_whole_key_way(self):
        # every instance recomputed from its whole block-type key: the odd
        # splits of the sequence, its z and its weight
        instances = [(total, *inst) for total in range(1, 10) for inst in verify._alpha_instances(total)]
        reports = verify.baserecur_reports(9)
        assert len(reports) == len(instances)
        for report, (total, alpha, key) in zip(reports, instances):
            assert report.instance == f"N={total} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
            assert report.lhs == (total - verify._seq_len(key)) * _z_seq(key)
            rhs = sum(kap * _z_seq(k2) for k2, kap in _odd_refinements_seq(key))
            rhs += Fraction(_z_seq(key), 2) * sum(p for c in key for p in c if p >= 2)
            assert report.rhs == rhs

    @pytest.mark.parametrize("p", range(13))
    def test_block_pieces_from_the_public_api(self, p):
        pieces = _block_pieces(p)
        assert list(pieces) == [lam.parts for lam in partitions(p)]
        for parts, (text, z, s, weight, length) in pieces.items():
            lam = IntegerPartition(parts)
            assert text == str(lam)
            assert z == z_of(lam)
            assert s == sum(kap * z_of(mu) for mu, kap in odd_refinements(lam))
            assert weight == sum(i * lam.multiplicity(i) for i in range(2, p + 1))
            assert length == lam.length

    def test_a_broken_identity_reports_its_exact_right_side(self, monkeypatch):
        # one more unit of weight on the single block of N = 1: the right
        # side becomes z * 1 / 2 = 1/2, against a left side of 0
        def heavier(p):
            return {c: (text, z, s, w + 1, n) for c, (text, z, s, w, n) in _block_pieces(p).items()}

        monkeypatch.setattr(verify, "_block_pieces", heavier)
        (report,) = verify.baserecur_reports(1)
        assert (report.lhs, report.rhs, report.passed) == (0, Fraction(1, 2), False)
        assert str(report) == "[FAIL] length_weight_base @ N=1 alpha=(1) Lam=1: 0 vs 1/2"


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

    def test_unlimited_suites_take_any_max_n(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "plane_structure_reports", lambda max_n: calls.append(max_n) or [])
        verify.run_suites(("plane",), 9)
        assert calls == [9]

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
