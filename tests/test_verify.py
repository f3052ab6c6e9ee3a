import gc
import hashlib
import io
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

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
from longcycles.errors import ResourceLimitError
from longcycles.partitions import (
    _block_pieces,
    _compositions,
    _odd_refinements_seq,
    _partition_list,
    _partition_sequence_keys,
    _shrink_steps,
    _z_seq,
    format_d_key,
    format_seq_key,
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
        for name in ("_eta_rows", "_leading_folds", "_zagier_oracle"):
            monkeypatch.setattr(verify, name, never)
        function = "baserecur_reports" if suite == "baserecur" else SWEEP_LIMITS[suite][0]
        with pytest.raises(ResourceLimitError, match=f"the {suite} suite"):
            getattr(verify, function)(verify._SUITE_LIMITS[suite] + 1)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_plane_json_pinned(self, capsys, threads):
        # sha256 of the output before the suite ran on arrays, newline included
        assert cli.main(["verify", "--format", "json", "--max-n", "6", "--suite", "plane", "--threads", threads]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "5cbc2dc50929cc6680af878b233053dab8785040a10084827ac70f7e71dcac47"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_plane_failures_are_counted_once_per_word(self, monkeypatch, workers):
        # failures that depend on the word: every word is checked once, whatever the chunks and processes
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(verify, "_array_bad_counts", lambda word, *rest: (1, int(word[1]), 0))
        monkeypatch.setattr(verify, "_transposition_bad_count", lambda word, *rest: int(word[-1]))
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


# the section3 identities whose sides are compared doubled, as integers
DOUBLED = {
    "total_exceedance_count",
    "downarrow_step",
    "weighted_sum_recurrence",
    "weighted_sum_value",
    "downarrow_exchange",
}


def _fraction_reports(n):
    """The DOUBLED reports at size n in section3's order, each side evaluated
    with the halved coefficients as Fractions."""
    fact_n1 = math.factorial(n - 1)

    def steps(alpha, key):
        # coefficient (alpha_i / 2) (part-1) times the (part-1)-parts after the shrink
        for i0, part, _twice, a2, key2 in _shrink_steps(alpha, key):
            yield i0, part, Fraction(alpha[i0], 2) * (part - 1) * key2[i0].count(part - 1), a2, key2

    def weighted_sum(alpha, key):
        return sum(coeff * verify._p_seq(n, a2, key2) for _i, _p, coeff, a2, key2 in steps(alpha, key))

    reports = []
    for alpha, key in alpha_instances(n):
        base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
        by_eta = oracle._plane_tallies(n, alpha)
        total_exc = sum(by_eta[eta].get(key, (0, 0))[1] for eta in _partition_list(n))
        direct = Fraction(n - sum(c.count(1) for c in key), 2) * fact_n1 * _z_seq(key)
        reports.append(IdentityReport("total_exceedance_count", base, total_exc, direct))
    for alpha, key in alpha_instances(n + 1):
        base = f"n={n} alpha={format_d_key(alpha)} Lam={format_seq_key(key)}"
        z_key, length = _z_seq(key), verify._seq_len(key)
        t_refined = sum(kap * weighted_sum(alpha, k2) for k2, kap in _odd_refinements_seq(key))
        if (length - n) % 2 == 0:
            for i0, part, coeff, a2, key2 in steps(alpha, key):
                lhs = (n + 1 - length) * coeff * verify._p_seq(n, a2, key2)
                rhs = coeff * verify._p_refined(n, a2, key2)
                rhs += Fraction(part * key[i0].count(part), 2) * fact_n1 * z_key
                reports.append(IdentityReport("downarrow_step", f"{base} i={i0 + 1} j={part - 1}", lhs, rhs))
            t_key = weighted_sum(alpha, key)
            weight = sum(p for c in key for p in c if p >= 2)
            rhs_rec = t_refined + Fraction(fact_n1 * z_key, 2) * weight
            reports.append(IdentityReport("weighted_sum_recurrence", base, (n + 1 - length) * t_key, rhs_rec))
            reports.append(IdentityReport("weighted_sum_value", base, t_key, fact_n1 * z_key))
        lhs_ex = sum(coeff * verify._p_refined(n, a2, key2) for _i, _p, coeff, a2, key2 in steps(alpha, key))
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
        true_p_seq = verify._p_seq
        monkeypatch.setattr(verify, "_p_seq", lambda n, alpha, key: true_p_seq(n, alpha, key) + 1)
        new = [r.to_dict() for r in verify.section3_reports(4) if r.identity in DOUBLED]
        old = [r.to_dict() for n in range(2, 5) for r in _fraction_reports(n)]
        assert new == old
        assert any("/" in r["lhs"] + r["rhs"] for r in new)
        assert not all(r["pass"] for r in new)

    def test_shifted_exceedance_totals_fail_the_exceedance_identities(self, monkeypatch):
        # one exceedance too many at every key of every tally
        true_tallies = oracle._plane_tallies

        def shifted(n, alpha_parts):
            return {
                eta: {key: (count, exc + 1) for key, (count, exc) in by_key.items()}
                for eta, by_key in true_tallies(n, alpha_parts).items()
            }

        monkeypatch.setattr(oracle, "_plane_tallies", shifted)
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
        true_p_seq, true_tallies, true_closed = verify._p_seq, oracle._plane_tallies, formulas.separating_by_d

        def shifted(n, alpha_parts):
            return {
                eta: {key: (count, exc + 1) for key, (count, exc) in by_key.items()}
                for eta, by_key in true_tallies(n, alpha_parts).items()
            }

        monkeypatch.setattr(verify, "_p_seq", lambda n, alpha, key: true_p_seq(n, alpha, key) + 1)
        monkeypatch.setattr(oracle, "_plane_tallies", shifted)
        monkeypatch.setattr(formulas, "separating_by_d", lambda alpha, d: true_closed(alpha, d) + 1)
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
        whole = IdentityReport("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        parts = IdentityReport("x", "n=2", 3, Fraction(1, 2), " eta=", "1+1")
        assert (whole.identity, whole.instance, whole.lhs, whole.rhs) == ("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        assert parts.instance == whole.instance
        assert parts == whole and not parts != whole
        assert repr(parts) == repr(whole) == "IdentityReport(identity='x', instance='n=2 eta=1+1', lhs=3, rhs=Fraction(1, 2))"
        assert (str(parts), parts.to_dict()) == (str(whole), whole.to_dict())
        assert parts != IdentityReport("x", "n=2", 3, Fraction(1, 2), " eta=", "2")
        assert parts != IdentityReport("y", "n=2 eta=1+1", 3, Fraction(1, 2))
        assert whole != ("x", "n=2 eta=1+1", 3, Fraction(1, 2))
        match parts:
            case IdentityReport("x", instance, lhs, rhs):
                assert (instance, lhs, rhs) == ("n=2 eta=1+1", 3, Fraction(1, 2))
            case _:
                pytest.fail("no match by position")
        with pytest.raises(TypeError):
            hash(whole)

    @staticmethod
    def _texts(reports):
        """The distinct string objects that the reports point to."""
        return {id(o) for r in reports for o in gc.get_referents(r) if type(o) is str}

    @pytest.mark.parametrize("suite", ["section3_reports", "classic_reports"])
    def test_reports_share_their_text_parts(self, suite):
        # a string made per diagonal type, or per (i, j) of a step, would
        # make one for every two or three reports
        reports = getattr(verify, suite)(6)
        assert len(self._texts(reports)) < len(reports) // 3

    def test_baserecur_makes_no_string_per_report(self):
        # a report's text is its composition's head, the text of its leading
        # blocks, which every partition of the last block shares, and that
        # partition's cached piece: a string per report would exceed the count
        reports = verify.baserecur_reports(8)
        alphas = [alpha for total in range(1, 9) for alpha in _compositions(total)]
        leading = sum(math.prod(len(_partition_list(b)) for b in alpha[:-1]) for alpha in alphas)
        pieces = {id(piece) for b in range(1, 9) for piece, *_ in _block_pieces(b).values()}
        assert len(reports) > 1 + len(alphas) + leading
        assert len(self._texts(reports) - pieces) <= 1 + len(alphas) + leading  # 1: the identity's name


class TestCollectorPause:
    BUILDERS = [
        ("classic_reports", (3,)),
        ("section3_reports", (3,)),
        ("baserecur_reports", (4,)),
        ("formula_vs_oracle_reports", (3,)),
        ("plane_structure_reports", (3,)),
        ("parity_audit", (3,)),
    ]
    HELPERS = [(verify, "_partition_list"), (verify, "_compositions"), (verify, "_block_pieces"), (oracle, "_cycle_words")]

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("name, args", BUILDERS)
    def test_paused_inside_and_restored_after(self, monkeypatch, enabled, name, args):
        (gc.enable if enabled else gc.disable)()
        seen = []  # the collector's state at each call of a helper that the suites use
        for module, helper in self.HELPERS:
            monkeypatch.setattr(module, helper, self._watched(getattr(module, helper), seen))
        getattr(verify, name)(*args)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    @staticmethod
    def _watched(function, seen):
        def watched(*args):
            seen.append(gc.isenabled())
            return function(*args)

        return watched

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_a_suite_raises(self, monkeypatch, enabled):
        (gc.enable if enabled else gc.disable)()

        def broken(*args):
            assert not gc.isenabled()
            raise ZeroDivisionError("a broken tally")

        monkeypatch.setattr(oracle, "_plane_tallies", broken)
        with pytest.raises(ZeroDivisionError):
            verify.classic_reports(3)
        assert gc.isenabled() is enabled
        # nested under run_suites: the suite's pause and the runner's both unwind
        with pytest.raises(ZeroDivisionError):
            verify.run_suites(("baserecur", "section3"), 3, baserecur_max_n=4)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_nested_pauses(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with verify._collector_paused():
            with verify._collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner pause found it off
        assert gc.isenabled() is enabled
        run = verify.run_suites(("classic", "baserecur", "parity"), 3, baserecur_max_n=4)
        assert run.ok and gc.isenabled() is enabled


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
