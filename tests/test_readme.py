"""README's quick tour must run as written, and its CLI section must match
what the command line does."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from longcycles import cli
from test_cli_golden import command_choices

README = (Path(__file__).parents[1] / "README.md").read_text()
CLI_BLOCK = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
EXAMPLES = [
    tuple(part.strip() for part in line.split("# ->")) for line in CLI_BLOCK.splitlines() if "# ->" in line
]

TOUR = README.split("\n## Library quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_the_quick_tour_runs_as_a_doctest():
    test = doctest.DocTestParser().get_doctest(TOUR, {}, "quick tour", "README.md", 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted >= 5
    assert failed == 0, "".join(report)


def test_formula_names_match_the_cli():
    listed = README.split("Formula names:", 1)[1].split("`.", 1)[0]
    names = re.findall(r"`([a-z-]+)`?", listed)
    assert sorted(names) == sorted(command_choices("formula"))


def test_the_cli_block_has_value_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("command, value", EXAMPLES)
def test_cli_example_prints_its_value(capsys, command, value):
    argv = shlex.split(command)
    assert argv[0] == "longcycles"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out.strip() == value
