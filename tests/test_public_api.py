"""Every name a module of the package lists in ``__all__`` must exist, the
oracle and plane names are imported on first use, and every private
module-level name is read somewhere in the package."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import longcycles
import pins

MODULES = ["longcycles"] + [f"longcycles.{m.name}" for m in pkgutil.iter_modules(longcycles.__path__)]

# the names the package serves from the modules it imports on first use
LAZY = {
    "CountTable": "oracle",
    "OracleResult": "oracle",
    "count_factorizations": "oracle",
    "expected_k_cycles": "oracle",
    "pairs_separating_prefix": "oracle",
    "sweep_fixed_diagonal": "oracle",
    "sweep_pairs": "oracle",
    "ExceedanceStats": "plane",
    "PlanePermutation": "plane",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


class TestLazyNames:
    def test_every_name_is_its_submodules_own_object(self):
        for name in longcycles.__all__:
            if name != "__version__":
                value = getattr(longcycles, name)
                assert value is getattr(sys.modules[value.__module__], name), name

    @pytest.mark.parametrize("name", sorted(LAZY))
    def test_first_use_imports_and_stores_it(self, monkeypatch, name):
        monkeypatch.delitem(vars(longcycles), name, raising=False)  # as before its first use
        value = getattr(longcycles, name)
        assert value is getattr(importlib.import_module(f"longcycles.{LAZY[name]}"), name)
        assert vars(longcycles)[name] is value

    def test_from_import(self, monkeypatch):
        monkeypatch.delitem(vars(longcycles), "sweep_pairs", raising=False)
        from longcycles import sweep_pairs
        from longcycles.oracle import sweep_pairs as own

        assert sweep_pairs is own

    def test_dir_covers_all(self):
        assert set(longcycles.__all__) <= set(dir(longcycles))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            longcycles.no_such_name


# Runs in a fresh interpreter in which every import of numpy raises: imports
# the package, evaluates one query of each closed-form kind, and runs the
# command lines read from standard input; then imports longcycles.plane and
# builds a PlanePermutation.  Prints the values, what each command printed
# and exited with, the package's loaded modules before the plane import, and
# the plane permutation's diagonal.
_WITHOUT_NUMPY = r"""
import contextlib, io, json, sys

sys.modules["numpy"] = None

from longcycles import Composition, CountQuery, IntegerPartition, cli, evaluate
from longcycles.formulas import _value_str

QUERIES = [
    CountQuery(7, "by_cycle_count", {"k": 3}),
    CountQuery(4, "by_cycle_type", {"lam": IntegerPartition((2, 2))}),
    CountQuery(5, "separated_by_alpha_d", {"alpha": Composition((2, 3)), "d": (1, 2)}),
    CountQuery(6, "separated_total", {"alpha": Composition((2, 3, 1))}),
    CountQuery(6, "factorization_of_type", {"lam": IntegerPartition((3, 1, 1, 1))}),
    CountQuery(4, "expected_k_cycles", {"k": 2}),
    CountQuery(4, "separation_probability_m", {"m": 2}),
    CountQuery(6, "separated_by_m_and_count", {"m": 3, "k": 2}),
]


def run(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(line.split(" "))
        except SystemExit as exc:  # --help
            code = exc.code
    return [code, out.getvalue()]


doc = {
    "values": {q.kind: _value_str(evaluate(q)) for q in QUERIES},
    "runs": {line: run(line) for line in json.load(sys.stdin)},
    "modules": sorted(m for m in sys.modules if m.startswith("longcycles.")),
}
from longcycles.plane import PlanePermutation
from longcycles.permutations import Permutation

# the array with top row 1 5 4 6 2 3 and bottom row 5 4 1 3 6 2
doc["diagonal"] = str(PlanePermutation((1, 5, 4, 6, 2, 3), Permutation((5, 6, 2, 1, 4, 3))).diagonal())
print(json.dumps(doc))
"""

# the same queries, with the values that pins.json pins for them
_VALUES = {
    "by_cycle_count": "469",
    "by_cycle_type": "6",
    "separated_by_alpha_d": "24",
    "separated_total": "360",
    "factorization_of_type": "60",
    "expected_k_cycles": "1/3",
    "separation_probability_m": "11/18",
    "separated_by_m_and_count": "0",
}


def test_closed_forms_and_their_commands_run_without_numpy():
    # pins.json pins every formula and table name (test_pins.py checks that)
    golden = {row["args"]: row["stdout"] for row in pins.PINS if "stdout" in row}
    pinned = [line for line in golden if line.startswith(("formula ", "table "))]
    helps = ["--help"] + [f"{command} --help" for command in ("formula", "oracle", "verify", "table")]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], input=json.dumps(pinned + helps), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(_VALUES) == set(longcycles.formulas._KINDS)
    assert doc["values"] == _VALUES
    for line in pinned:
        assert doc["runs"][line] == [0, golden[line]], line
    for line in helps:
        code, text = doc["runs"][line]
        assert code == 0 and text.startswith("usage: longcycles"), line
    assert not {"longcycles.oracle", "longcycles.plane", "longcycles.verify"} & set(doc["modules"])
    assert doc["diagonal"] == "(1 6 3 2)(4)(5)"


def _private_names(tree):
    """The private names that the module ``tree`` defines at its top level
    (def, class or assignment; no dunder), each with its statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _loads(node, skip):
    """The names read as variables in ``node``, outside the subtree ``skip``."""
    if node is skip:
        return set()
    names = {node.id} if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else set()
    return names.union(*(_loads(child, skip) for child in ast.iter_child_nodes(node)))


def test_every_private_module_level_name_is_read():
    # read as an attribute anywhere (oracle._take), imported by name from
    # its module, or read as a variable in its own module outside its own
    # def or class: code that nothing reads is deleted, not kept
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(longcycles.__file__).parent.glob("*.py")}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module, alias.name) for alias in node.names)
    defined, unread = 0, []
    for module, tree in trees.items():
        for name, node in _private_names(tree):
            defined += 1
            own = node if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if name not in attributes and (module, name) not in imported and name not in _loads(tree, own):
                unread.append(f"{module}.{name}")
    assert defined > 100 and unread == []
