"""The ``tier1`` rows of ``pins.json`` run in-process, and every row is well-formed.

``pins.json`` holds every pinned output of the command line, one row each: a
command line, optional thread counts, exactly one expectation (the exact
stdout, its sha256 or a nonzero exit code) and a tier; ``pins.py`` says how a
row is checked.  A new pin is one more row.

The ``tier1`` rows run here through ``cli.main``: the exact output of every
``formula`` name in every format, every ``table`` name in every format (an
``n`` range, ``--parts``, and grids that reach ``n <= 0`` where every cell is
blank) and every ``oracle`` sweep in every format (``pairs`` and ``diagonal
--eta``, each with and without ``--alpha``; all with ``--no-cache``), and the
sha256 of the ``verify --format json`` documents at ``--max-n 6`` (all suites,
and the plane suite at 1, 2 and 3 threads) and of the classic and section3
suites at ``--max-n 7``.  The ``ci`` rows, the long sweeps and the exit
codes, run through the console script: ``python tests/pins.py``.
"""

import argparse
import hashlib
import re

import pytest

from longcycles import cli
import pins


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parsers of a command's subcommands; empty for a leaf."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def _parser_of(command: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    for word in command.split():
        parser = _subcommands(parser)[word]
    return parser


def command_choices(command: str) -> list[str]:
    """The subcommands of one command of the CLI: the ``formula`` or
    ``table`` names, or what ``oracle`` sweeps."""
    return list(_subcommands(_parser_of(command)))


@pytest.mark.parametrize("row", [row for row in pins.PINS if row["tier"] == "tier1"], ids=pins.label)
def test_tier1_row_holds(row):
    assert pins.problems(row, pins.in_process) == []


@pytest.mark.parametrize("row", pins.PINS, ids=pins.label)
def test_row_is_well_formed(row):
    assert set(row) <= {"args", "threads", "tier", "max_rss_mb", *pins.EXPECTATIONS}
    assert [key for key in pins.EXPECTATIONS if key in row] in (["stdout"], ["sha256"], ["exit"])
    assert row["tier"] in pins.TIERS
    assert isinstance(row.get("stdout", ""), str)
    assert re.fullmatch("[0-9a-f]{64}", row.get("sha256", "0" * 64))
    assert row.get("exit", 1) in (1, 2, 3, 4)
    if "max_rss_mb" in row:  # only the console script's runs are measured
        assert row["tier"] == "ci" and row["max_rss_mb"] > 0
    parser = _parser_of(pins.leaf(row))
    assert not _subcommands(parser), "args must name a leaf command"
    if "threads" in row:
        assert "--threads" in parser._option_string_actions
        assert "--threads" not in row["args"].split()
        assert row["threads"] and all(isinstance(t, int) and t >= 1 for t in row["threads"])


def test_bytes_that_are_not_utf8_fail_their_row():
    row = {"args": "formula boccara --n 6 --k 4 --format text", "tier": "tier1", "stdout": "32\n"}
    found = pins.problems(row, lambda argv: (0, b"3\xff\n", "", None))
    assert found == [f"{row['args']}: printed '3\ufffd\\n', pinned '32\\n'"]
    row = {"args": row["args"], "tier": "ci", "sha256": hashlib.sha256(b"3\xff\n").hexdigest()}
    assert pins.problems(row, lambda argv: (0, b"3\xff\n", "", None)) == []


def test_a_run_above_its_peak_rss_bound_fails_its_row():
    row = {"args": "formula boccara --n 6 --k 4", "tier": "ci", "stdout": "32\n", "max_rss_mb": 100}
    assert pins.problems(row, lambda argv: (0, b"32\n", "", 100.0)) == []
    assert pins.problems(row, lambda argv: (0, b"32\n", "", 100.1)) == [f"{row['args']}: peak RSS 100.1 MB, bound 100 MB"]
    assert pins.problems(row, pins.in_process) == [
        f"{row['args']}: peak RSS not measured: a max_rss_mb row runs through the console script"
    ]


def test_no_two_rows_share_a_command_line_and_thread_count():
    runs = [(row["args"], t) for row in pins.PINS for t in row.get("threads", [None])]
    assert len(runs) == len(set(runs))


@pytest.mark.parametrize(
    "command, formats",
    [
        ("formula", ("text", "json", "csv", "markdown")),
        ("table", ("markdown", "csv", "json")),
        ("oracle", ("json", "csv", "markdown")),
    ],
)
def test_every_name_and_format_is_pinned(command, formats):
    argvs = [row["args"].split(" ") for row in pins.PINS if "stdout" in row]
    pinned = {(argv[1], argv[-1]) for argv in argvs if argv[0] == command}
    assert pinned == {(name, fmt) for name in command_choices(command) for fmt in formats}
