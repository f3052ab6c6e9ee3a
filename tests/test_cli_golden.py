"""Byte-for-byte pins on what the command line prints.

``cli_golden.json`` maps a command line to its exact standard output, for
every ``formula`` name in every format, every ``table`` name in every format
(an ``n`` range, ``--parts``, and grids that reach ``n <= 0`` where every cell
is blank), and every ``oracle`` sweep in every format (``pairs`` with and
without ``--alpha``, ``diagonal`` with ``--eta`` and ``--alpha``; all with
``--no-cache``).  The full ``verify --format json --max-n 6`` document,
and the classic and section3 suites' document at ``--max-n 7``, are pinned by
their sha256.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from longcycles import cli

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())

VERIFY_N6_SHA256 = "e4bcd2e7da374b5dd6ec2f898c05f006474121d5a32eb72d3b1603521c917e4a"
# verify --format json --max-n 7 --suite classic --suite section3
VERIFY_N7_PLANE_TALLY_SHA256 = "a8b2353cd9d47df5961dd15fc897e5946c35b02cd664cce0f7769d754178be56"


def command_choices(command: str) -> list[str]:
    """The choices of the positional argument of one subcommand of the CLI
    parser: a ``formula`` or ``table`` name, or what ``oracle`` sweeps."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in sub.choices[command]._actions if not a.option_strings).choices)


@pytest.mark.parametrize("line", sorted(GOLDEN))
def test_output_is_byte_identical(capsys, line):
    code = cli.main(line.split(" "))
    assert code == 0
    assert capsys.readouterr().out == GOLDEN[line]


@pytest.mark.parametrize(
    "command, formats",
    [
        ("formula", ("text", "json", "csv", "markdown")),
        ("table", ("markdown", "csv", "json")),
        ("oracle", ("json", "csv", "markdown")),
    ],
)
def test_every_name_and_format_is_pinned(command, formats):
    argvs = [line.split(" ") for line in GOLDEN]
    pinned = {(argv[1], argv[-1]) for argv in argvs if argv[0] == command}
    assert pinned == {(name, fmt) for name in command_choices(command) for fmt in formats}


def test_verify_json_max_n_6_digest(capsys):
    code = cli.main(["verify", "--format", "json", "--max-n", "6"])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_N6_SHA256


def test_verify_json_plane_tally_suites_at_n_7_digest(capsys):
    # the two suites that read the plane tallies, at the largest n they reach
    argv = ["verify", "--format", "json", "--max-n", "7", "--suite", "classic", "--suite", "section3"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_N7_PLANE_TALLY_SHA256
