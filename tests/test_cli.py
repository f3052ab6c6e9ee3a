import argparse
import json
import logging
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from longcycles import Composition, cli, formulas, oracle, separating_by_d, separating_total, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFormula:
    def test_boccara(self, capsys):
        code, out = run(capsys, "formula", "boccara", "--n", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "2"

    def test_sep_prob_even(self, capsys):
        code, out = run(capsys, "formula", "sep-prob", "--n", "4", "--m", "2")
        assert (code, out.strip()) == (0, "11/18")

    def test_sep_prob_odd(self, capsys):
        code, out = run(capsys, "formula", "sep-prob", "--n", "5", "--m", "2")
        assert (code, out.strip()) == (0, "1/2")

    def test_separating_by_d_infers_n(self, capsys):
        code, out = run(capsys, "formula", "separating-by-d", "--alpha", "2,2", "--d", "1,1")
        assert (code, out.strip()) == (0, "2")

    def test_json_output(self, capsys):
        code, out = run(
            capsys, "formula", "zagier-stanley", "--n", "7", "--k", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "469"
        assert doc["query"]["kind"] == "by_cycle_count"
        assert doc["query"]["n"] == 7

    def test_csv_output(self, capsys):
        code, out = run(capsys, "formula", "hultman", "--n", "4", "--k", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,value"
        assert lines[1] == "4,2,1/3"

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["formula", "boccara", "--n", "4"])
        assert exc.value.code == 2

    def test_unknown_formula_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["formula", "nope", "--n", "4"])
        assert exc.value.code == 2

    def test_values_beyond_the_int_str_digit_limit(self, capsys):
        code, out = run(capsys, "formula", "separating-total", "--alpha", "1200")
        expected = str(separating_total(Composition((1200,))))
        assert code == 0
        assert len(expected) > 4300
        assert out.strip() == expected

    def test_deep_recursion_is_a_resource_limit(self, capsys, monkeypatch):
        # no closed form recurses deeply, so the evaluation itself raises
        def too_deep(query):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(formulas, "evaluate", too_deep)
        code = cli.main(["formula", "separating-by-d", "--alpha", "1,2", "--d", "1,2"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("resource limit: ")
        assert "Traceback" not in err

    def test_separating_by_d_past_the_old_recursion_depth(self, capsys):
        # one element moves per expansion step: 899 steps here
        code, out = run(capsys, "formula", "separating-by-d", "--alpha", "1,900", "--d", "1,2")
        assert code == 0
        assert int(out) == separating_by_d(Composition((1, 900)), (1, 2)) > 0

    def test_domain_error_exit_code(self, capsys):
        code = cli.main(["formula", "boccara", "--n", "5", "--k", "2"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_dimension_mismatch_exit_code(self, capsys):
        code = cli.main(["formula", "separating-by-d", "--alpha", "2,2", "--d", "1"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pairs-by-type", "--n", "5", "--lambda", "2+2"],
            ["separating-total", "--n", "9", "--alpha", "2,2"],
            ["separating-by-d", "--n", "3", "--alpha", "2,2", "--d", "1,1"],
        ],
    )
    def test_n_conflicting_with_the_partition_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(["formula", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_n_agreeing_with_the_partition_is_accepted(self, capsys):
        assert run(capsys, "formula", "pairs-by-type", "--n", "4", "--lambda", "2+2") == (0, "6\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["zagier-stanley", "--n", "7", "--k", "3", "--m", "2"], "--m"),
            (["separating-by-d", "--alpha", "2,3", "--d", "1,2", "--k", "1"], "--k"),
            (["boccara", "--n", "4", "--k", "2", "--lambda", "2+2"], "--lambda"),
        ],
    )
    def test_a_flag_the_name_does_not_read_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["formula", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: longcycles formula {argv[0]} ")
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_an_exactness_error_is_an_internal_error(self, capsys, monkeypatch):
        # a non-integer count is a bug, not a domain error: exit 70, with its traceback
        monkeypatch.setattr(formulas, "zagier_stanley_raw", lambda n, k: Fraction(1, 2))
        code = cli.main(["formula", "zagier-stanley", "--n", "3", "--k", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (70, "")
        assert "Traceback" in captured.err
        assert "internal error: ExactnessError" in captured.err.splitlines()[-1]

    def test_a_value_error_from_a_bug_is_an_internal_error(self, capsys, monkeypatch):
        # only a DomainError exits 3
        def broken(factors):
            raise ValueError("broken product")

        monkeypatch.setattr(formulas, "_poly_product", broken)
        code = cli.main(["formula", "even-factorizations", "--lambda", "3+1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (70, "")
        assert "Traceback" in captured.err
        assert "internal error: ValueError" in captured.err.splitlines()[-1]


class TestOracle:
    def test_pairs_json(self, capsys):
        code, out = run(capsys, "oracle", "pairs", "--n", "4", "--no-cache")
        assert code == 0
        doc = json.loads(out)
        rows = dict((k, int(v)) for k, v in doc["tables"]["cycle_type"])
        assert rows == {"1+1+1+1": 6, "2+1+1": 0, "2+2": 6, "3+1": 24, "4": 0}
        assert sum(rows.values()) == 36

    def test_pairs_with_alpha(self, capsys):
        code, out = run(capsys, "oracle", "pairs", "--n", "4", "--alpha", "2,2", "--no-cache")
        doc = json.loads(out)
        assert dict(doc["tables"]["d_vector"]) == {"(1,1)": "2", "(2,2)": "6"}

    def test_an_option_the_pair_sweep_does_not_read_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "pairs", "--n", "4", "--eta", "2+2", "--no-cache"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: longcycles oracle pairs ")
        assert "unrecognized arguments: --eta" in captured.err

    @pytest.mark.parametrize("what", ["pairs", "diagonal"])
    def test_n_below_one_is_usage_error(self, capsys, what):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", what, "--n", "0", "--no-cache"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --n: must be >= 1" in captured.err

    @pytest.mark.parametrize("what", ["pairs", "diagonal"])
    def test_alpha_of_another_n_is_usage_error(self, capsys, what):
        # as --eta of another n is: both flags are read against --n before any sweep
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", what, "--n", "4", "--alpha", "1,1,1,1,1", "--no-cache"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.startswith(f"usage: longcycles oracle {what} ")
        assert "--alpha (1,1,1,1,1) is not a composition of 4" in captured.err

    @pytest.mark.parametrize("what", ["pairs", "diagonal"])
    def test_force_is_usage_error(self, capsys, what):
        # no sweep has a forced tier, so --force is no option of either
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", what, "--n", "4", "--force", "--no-cache"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --force" in captured.err

    def test_resource_limit_exit_code(self, capsys):
        code = cli.main(["oracle", "pairs", "--n", "10"])
        assert code == 4
        assert "resource limit" in capsys.readouterr().err

    def test_diagonal_past_its_hard_limit_exits_4(self, capsys):
        code = cli.main(["oracle", "diagonal", "--n", "11", "--no-cache"])
        assert code == 4
        assert "fixed-diagonal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module, target, argv",
        [
            (oracle, "sweep_fixed_diagonal", ["oracle", "diagonal", "--n", "4", "--no-cache"]),
            (verify, "parity_audit", ["verify", "--max-n", "3", "--suite", "parity"]),
        ],
        ids=["oracle-diagonal", "verify-parity"],
    )
    def test_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch, module, target, argv):
        # exit 1 would claim that a check failed
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(module, target, exhausted)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err == "resource limit: out of memory\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failed_sweep_is_an_internal_error(self, capfd, monkeypatch, clear_pair_caches, threads):
        # exit 1 would claim that a check failed; at two threads the chunk
        # that ends the range of 20 head groups is the forked child's, and it
        # prints its traceback
        chunk = oracle._fact_chunk

        def broken(n, tables, lo, hi):
            if hi == 20:
                raise IndexError("broken chunk")
            return chunk(n, tables, lo, hi)

        monkeypatch.setattr(oracle, "_fact_chunk", broken)
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        clear_pair_caches()
        code = cli.main(["oracle", "pairs", "--n", "6", "--no-cache", "--threads", threads])
        err = capfd.readouterr().err
        assert code == 70
        assert "IndexError: broken chunk" in err
        assert "internal error: " in err.splitlines()[-1]
        if threads == "2":
            assert "internal error: RuntimeError: the process counting chunks 10..19 failed" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [["oracle", "pairs", "--n", "4", "--no-cache"], ["verify", "--max-n", "3", "--suite", "formulas"]],
    )
    def test_threads_below_one_is_usage_error(self, capsys, argv, threads):
        # the pair sweep would clamp them to one worker and run
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--threads", threads])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "diagonal", "--n", "4", "--eta", "2^2 1^-2", "--no-cache"],
            ["formula", "pairs-by-type", "--lambda", "1^-2"],
        ],
    )
    def test_negative_exponent_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_threads_on_a_diagonal_sweep_is_usage_error(self, capsys):
        # the fixed-diagonal sweep runs in one process and would ignore it
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "diagonal", "--n", "4", "--threads", "3", "--no-cache"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_threads_do_not_change_output(self, capsys, clear_pair_caches):
        outputs = []
        for threads in ("1", "2"):
            clear_pair_caches()
            code, out = run(
                capsys, "oracle", "pairs", "--n", "5", "--alpha", "2,3",
                "--no-cache", "--threads", threads,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_cache_file_written_and_reused(self, capsys, tmp_path):
        code, first = run(
            capsys, "oracle", "pairs", "--n", "4", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 1
        code, second = run(
            capsys, "oracle", "pairs", "--n", "4", "--cache-dir", str(tmp_path)
        )
        assert second == first

    def test_unwritable_cache_dir_warns_and_still_answers(self, capsys, caplog, tmp_path):
        # a path under a regular file: mkdir fails even for root, unlike chmod
        blocker = tmp_path / "file"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="longcycles"):
            code, out = run(
                capsys, "oracle", "pairs", "--n", "4", "--cache-dir", str(blocker / "sub")
            )
        assert code == 0
        _, expected = run(capsys, "oracle", "pairs", "--n", "4", "--no-cache")
        assert out == expected
        assert "cache not written" in caplog.text
        assert list(tmp_path.iterdir()) == [blocker]

    def test_no_cache_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGCYCLES_CACHE_DIR", str(tmp_path))
        code, _ = run(capsys, "oracle", "pairs", "--n", "4", "--no-cache")
        assert code == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_env_var_sets_default_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LONGCYCLES_CACHE_DIR", str(tmp_path))
        code, _ = run(capsys, "oracle", "pairs", "--n", "4")
        assert code == 0
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_diagonal_sweep(self, capsys):
        code, out = run(
            capsys, "oracle", "diagonal", "--n", "4", "--eta", "2+2", "--no-cache"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == "6"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pairs", "--n", "4", "--alpha", "2,1,1"],
            ["diagonal", "--n", "6", "--eta", "3+2+1", "--alpha", "2,4"],
        ],
    )
    def test_markdown_rows_have_two_cells(self, capsys, argv):
        code, out = run(capsys, "oracle", *argv, "--no-cache", "--format", "markdown")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("|")]
        assert any(r"\|" in row for row in rows)
        for row in rows:
            # the cells between the outer bars, split on bars that are not escaped
            assert len(re.split(r"(?<!\\)\|", row[1:-1])) == 2, row


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run(
            capsys, "verify", "--max-n", "3", "--suite", "classic", "--suite", "parity",
        )
        assert code == 0
        assert "PASS" in out

    def test_suite_filter(self, capsys):
        code, out = run(
            capsys, "verify", "--max-n", "4", "--suite", "baserecur", "--baserecur-max-n", "6"
        )
        assert code == 0
        assert "length_weight_base" in out
        assert "split_long" not in out

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "verify", "--max-n", "3", "--suite", "plane", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(r["pass"] for r in doc["reports"])

    @pytest.mark.parametrize("max_n", ["0", "1"])
    def test_max_n_below_two_is_usage_error(self, capsys, max_n):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--max-n", max_n])
        assert exc.value.code == 2
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("baserecur_max_n", ["0", "-1"])
    def test_baserecur_max_n_below_one_is_usage_error(self, capsys, baserecur_max_n):
        # no baserecur instance would run, so the suite would pass vacuously
        argv = ["verify", "--suite", "baserecur", "--baserecur-max-n", baserecur_max_n]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suites",
        [(), ("--suite", "section3"), ("--suite", "plane"), ("--suite", "baserecur", "--baserecur-max-n", "15")],
    )
    def test_above_the_sweep_limit_exits_4_before_any_suite(self, capsys, forbid_suites, suites):
        code = cli.main(["verify", "--max-n", "8", *suites])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ")

    def test_failure_exit_code(self, capsys, monkeypatch):
        from longcycles.verify import IdentityReport, VerifyRun

        def broken(*args, **kwargs):
            return VerifyRun(reports=[IdentityReport("fake", "n=1", 0, 1)], audit=[])

        monkeypatch.setattr(verify, "run_suites", broken)
        code, out = run(capsys, "verify", "--max-n", "2")
        assert code == 1
        assert "FAIL" in out


    @pytest.mark.parametrize("n_reports", [0, 1, 1024, 2500])
    def test_json_is_the_document_of_to_dict_however_many_reports(self, capsys, monkeypatch, n_reports):
        # a failed run with a parity audit; 2500 reports span three chunks of the streamed output
        from longcycles.verify import IdentityReport, ParityAuditRecord, VerifyRun

        reports = [IdentityReport("fake", f"n={i}", i, i if i % 3 else Fraction(i, 2)) for i in range(n_reports)]
        audit = [ParityAuditRecord("fake_parity", "n=3", 2, 0), ParityAuditRecord("fake_parity", "n=4", Fraction(1, 2), 1)]
        failed = VerifyRun(reports=reports, audit=audit)
        monkeypatch.setattr(verify, "run_suites", lambda *args, **kwargs: failed)
        code, out = run(capsys, "verify", "--max-n", "2", "--format", "json")
        assert code == 1
        assert out == json.dumps(failed.to_dict(), sort_keys=True) + "\n"
        assert json.loads(out)["ok"] is False

@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "boccara", "--n", "4"],
        ["oracle", "diagonal", "--n", "3", "--eta", "0"],
        ["verify", "--max-n", "1"],
        ["table", "zagier-stanley", "--n", "3..4", "--parts", "2"],
        ["table", "separating-total", "--n", "3", "--parts", "0"],
        ["table", "separating-total", "--n", "3", "--parts", "-2"],
    ],
)
def test_a_usage_error_a_subcommand_finds_shows_its_own_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    prog = "longcycles " + " ".join(argv[:1] if argv[0] == "verify" else argv[:2])
    assert exc.value.code == 2
    assert err.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: " in err


@pytest.mark.parametrize(
    "argv, value, reason",
    [
        (["formula", "separating-total", "--alpha", "0,1"], "0,1", "composition parts must be positive"),
        (["formula", "separating-total", "--alpha", ","], ",", "invalid literal for int()"),
        (["formula", "pairs-by-type", "--lambda", "3+x"], "3+x", "invalid literal for int()"),
        (["formula", "separating-by-d", "--alpha", "2,3", "--d", "1,x"], "1,x", "invalid literal for int()"),
        (["oracle", "diagonal", "--n", "4", "--eta", "4+0", "--no-cache"], "4+0", "parts must be positive"),
        (["table", "sep-prob", "--n", "5..3"], "5..3", "the range is empty"),
        (["table", "sep-prob", "--n", "3..4..5"], "3..4..5", "a range is lo..hi"),
    ],
)
def test_an_unreadable_value_gives_its_reason(capsys, argv, value, reason):
    # argparse would name a converter that raises ValueError, and drop its message
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"invalid value {value!r} ({reason}" in captured.err
    assert not re.search(r"_\w+_arg", captured.err)


def _leaves(parser, path=()):
    """The command words and parser of every command the CLI runs."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, (*path, name))
            return
    yield " ".join(path), parser


_LEAVES = dict(_leaves(cli.build_parser()))
# the flags each command reads, besides --help and --format
_READS = {
    "formula boccara": "--n --k",
    "formula even-factorizations": "--n --lambda",
    "formula hultman": "--n --k",
    "formula pairs-by-type": "--n --lambda",
    "formula sep-prob": "--n --m",
    "formula separated-count": "--n --m --k",
    "formula separating-by-d": "--n --alpha --d",
    "formula separating-total": "--n --alpha",
    "formula zagier-stanley": "--n --k",
    "oracle pairs": "--n --alpha --threads --cache-dir --no-cache",
    "oracle diagonal": "--n --alpha --eta --cache-dir --no-cache",
    "verify": "--max-n --suite --baserecur-max-n --threads",
    "table boccara": "--n",
    "table hultman": "--n",
    "table sep-prob": "--n",
    "table separating-total": "--n --parts",
    "table zagier-stanley": "--n",
}
# a value for every required flag, by its dest
_REQUIRED = {"n": "4", "k": "2", "m": "2", "alpha": "2,2", "d": "1,1", "lam": "2+2"}


def _command_id(command):
    return command.replace(" ", "/")  # a test id without spaces


@pytest.mark.parametrize("command", sorted(_READS), ids=_command_id)
def test_each_command_declares_only_the_flags_it_reads(command):
    flags = {flag for action in _LEAVES[command]._actions for flag in action.option_strings}
    assert flags == {"-h", "--help", "--format", *_READS[command].split()}


def test_every_command_is_a_leaf_of_the_parser():
    assert sorted(_LEAVES) == sorted(_READS)


@pytest.mark.parametrize("command", sorted(_LEAVES), ids=_command_id)
def test_an_undefined_flag_shows_the_usage_of_its_leaf(capsys, command):
    required = [
        arg
        for action in _LEAVES[command]._actions
        if action.required and action.option_strings
        for arg in (action.option_strings[0], _REQUIRED[action.dest])
    ]
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), *required, "--bogus"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith(f"usage: longcycles {command} ")
    assert f"\nlongcycles {command}: error: unrecognized arguments: --bogus\n" in captured.err


_LARGE_AND_SMALL_OUTPUT = [
    # more than the stdout buffer and a pipe hold, so print itself meets the failed write
    ["verify", "--max-n", "2", "--suite", "baserecur", "--baserecur-max-n", "8", "--format", "json"],
    # small enough to wait in the stdout buffer until the final flush
    ["oracle", "diagonal", "--n", "4", "--no-cache"],
]


def _run_cli_into(stdout, argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffer stdout, the default
    return subprocess.run(
        [sys.executable, "-m", "longcycles.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_python_dash_m_longcycles_runs_the_command_line():
    argv = ["formula", "zagier-stanley", "--n", "7", "--k", "3"]
    proc = subprocess.run([sys.executable, "-m", "longcycles", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "469\n", "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads the threads of a Linux process")
def test_the_cli_starts_no_blas_threads():
    # the float32 product of _transposed_codes is the one call that reaches
    # BLAS; at n = 8 OpenBLAS would run it on a thread per core.  The CLI's
    # own setup runs first, before the process imports numpy
    script = """
import os, sys
from longcycles import cli
assert "numpy" not in sys.modules
cli.main(["formula", "zagier-stanley", "--n", "7", "--k", "3"])
import numpy as np
from longcycles import _plane_checks, oracle
words, cycles = oracle._cycle_words(8)[:4], oracle._long_cycles(8)
verticals = np.argsort(cycles, axis=1).T.take(cycles[:4], axis=0)
tables = _plane_checks._TranspositionTables(cycles.T.copy(), _plane_checks._moves(8), None)
codes, _ = _plane_checks._transposed_codes(words, verticals, tables)
print(codes.shape, len(os.listdir("/proc/self/task")))
"""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["469", "(4, 56, 5040) 1"]


class TestClosedPipe:
    @pytest.mark.parametrize("argv", _LARGE_AND_SMALL_OUTPUT)
    def test_a_reader_that_closed_early_gets_141_and_no_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = _run_cli_into(write_end, argv)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullDevice:
    @pytest.mark.parametrize("argv", _LARGE_AND_SMALL_OUTPUT)
    def test_a_failed_write_exits_4_with_one_line_and_no_traceback(self, argv):
        with open("/dev/full", "wb") as full:  # every write fails with ENOSPC
            proc = _run_cli_into(full, argv)
        assert proc.returncode == 4
        assert proc.stderr.startswith(b"resource limit: ") and proc.stderr.count(b"\n") == 1


class TestTable:
    def test_markdown_grid(self, capsys):
        code, out = run(capsys, "table", "zagier-stanley", "--n", "3..5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("| n |")
        assert len(lines) == 5  # header, rule, three data rows

    def test_hultman_rational_grid(self, capsys):
        code, out = run(capsys, "table", "hultman", "--n", "3..4", "--format", "csv")
        assert code == 0
        assert "3/2" in out

    def test_separating_total_with_parts_filter(self, capsys):
        code, out = run(
            capsys, "table", "separating-total", "--n", "4", "--parts", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,value"
        assert set(lines[1:]) == {'"(1,3)",12', '"(2,2)",8', '"(3,1)",12'}

    def test_separating_total_with_more_parts_than_n_is_empty(self, capsys):
        code, out = run(capsys, "table", "separating-total", "--n", "3", "--parts", "4", "--format", "csv")
        assert (code, out) == (0, "alpha,value\n")

    def test_a_value_error_from_a_bug_is_not_a_blank_cell(self, capsys, monkeypatch):
        def broken(n, k):
            raise ValueError("broken closed form")

        monkeypatch.setattr(formulas, "boccara", broken)
        code = cli.main(["table", "boccara", "--n", "3..4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (70, "")
        assert "internal error: ValueError" in captured.err.splitlines()[-1]

    def test_parts_on_a_grid_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "zagier-stanley", "--n", "3..4", "--parts", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_separating_total_over_a_range_of_n(self, capsys):
        code, out = run(capsys, "table", "separating-total", "--n", "3..5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4 + 8 + 16
        assert lines[1] == "(3),4" and lines[5] == "(4),36" and lines[13] == "(5),576"
        assert lines[-1] == '"(1,1,1,1,1)",24'

    def test_separating_total_lists_nothing_below_n_1(self, capsys):
        # like the grid tables, which print blank cells there
        def csv(n_range):
            return run(capsys, "table", "separating-total", f"--n={n_range}", "--format", "csv")

        assert csv("-1..3") == csv("1..3")
        assert csv("-2..0") == (0, "alpha,value\n")

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "table", "sep-prob", "--n", "4..5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][0] == "n"
