"""Command-line interface.

Subcommands:

- ``formula``: evaluate one closed-form count exactly;
- ``oracle``: run a brute-force sweep and print its tables;
- ``verify``: run the identity suites and exit 0 only if everything passes;
- ``table``: render grids of formula values over a range of n.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error,
4 resource limit, 141 output pipe closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import formulas, oracle, verify
from .errors import ExactnessError, ResourceLimitError
from .formulas import _value_str
from .partitions import Composition, IntegerPartition, compositions
from .permutations import canonical_of_type

_DOMAIN_ERRORS = (ValueError, ExactnessError)


# ---------------------------------------------------------------------------
# argument parsing helpers (used as argparse type= converters: a ValueError
# raised here is a usage error, exit code 2)


def _alpha_arg(text: str) -> Composition:
    return Composition.parse(text)


def _d_arg(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().lstrip("(").rstrip(")").split(","))


def _lambda_arg(text: str) -> IntegerPartition:
    return IntegerPartition.parse(text)


def _range_arg(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


# ---------------------------------------------------------------------------
# formula registry: the formula and table names


class _Formula(NamedTuple):
    kind: str  # the formulas.CountQuery kind it asks for
    table: bool = False  # also a `table` name
    first: int = 1  # the first column of its table grid


# A name reads one flag per argument of its kind (lam is --lambda) and takes n
# from --lambda or --alpha when the kind has one of those; a --n given as well
# must agree.  boccara reads --n and --k instead: Boccara's closed form for the
# two-cycle type (k, n-k).
_FORMULAS = {
    "zagier-stanley": _Formula("by_cycle_count", table=True),
    "hultman": _Formula("expected_k_cycles", table=True),
    "boccara": _Formula("factorization_of_type", table=True),
    "even-factorizations": _Formula("factorization_of_type"),
    "pairs-by-type": _Formula("by_cycle_type"),
    "separating-total": _Formula("separated_total", table=True),
    "separating-by-d": _Formula("separated_by_alpha_d"),
    "separated-count": _Formula("separated_by_m_and_count"),
    "sep-prob": _Formula("separation_probability_m", table=True, first=2),
}


def _closed_form(name: str) -> tuple[Callable[..., int | Fraction], tuple[str, ...]]:
    """The closed form a formula name evaluates, and its argument names."""
    if name == "boccara":
        return formulas.boccara, ("n", "k")
    return formulas._KINDS[_FORMULAS[name].kind]


# ---------------------------------------------------------------------------
# the one table writer


def _print_grid(fmt: str, header: list[str], rows: list[list[str]]) -> None:
    """A table as csv, as markdown or as the {"columns", "rows"} JSON form."""
    if fmt == "json":
        print(json.dumps({"columns": header, "rows": rows}, sort_keys=True))
    elif fmt == "csv":
        for row in (header, *rows):
            print(",".join(f'"{cell}"' if "," in cell else cell for cell in row))
    else:  # block-type keys read "2+1 | 3", so | is escaped
        for row in (header, ["---"] * len(header), *rows):
            print("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")


# ---------------------------------------------------------------------------
# formula subcommand


def _flag(arg: str) -> str:
    return "--lambda" if arg == "lam" else "--" + arg


def _run_formula(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    arg_names = _closed_form(args.name)[1]
    reads = {*arg_names, "n"} if {"lam", "alpha"} & set(arg_names) else set(arg_names)
    every_arg = {arg for name in _FORMULAS for arg in _closed_form(name)[1]}
    for arg in sorted(every_arg - reads):
        if getattr(args, arg) is not None:
            parser.error(f"formula {args.name!r} does not read {_flag(arg)}")
    params = {}
    for arg in arg_names:
        params[arg] = getattr(args, arg)
        if params[arg] is None:
            parser.error(f"formula {args.name!r} requires {_flag(arg)}")
    n = params.pop("n", None)
    for val in params.values():
        if isinstance(val, (IntegerPartition, Composition)):
            if args.n not in (None, val.n):
                parser.error(f"--n {args.n} conflicts with {val}, which has n = {val.n}")
            n = val.n
    kind = _FORMULAS[args.name].kind
    if args.name == "boccara":
        value = formulas.boccara(n, args.k)
        query = formulas.CountQuery(n, kind, {"lam": IntegerPartition((args.k, n - args.k))})
    else:
        query = formulas.CountQuery(n, kind, params)
        value = formulas.evaluate(query)
    text, shown = _value_str(value), query.to_dict()["params"]
    if args.format == "json":
        print(json.dumps({"query": query.to_dict(), "value": text}, sort_keys=True))
    elif args.format == "csv":
        keys = sorted(shown)
        _print_grid("csv", ["n", *keys, "value"], [[str(query.n), *(str(shown[k]) for k in keys), text]])
    elif args.format == "markdown":
        _print_grid("markdown", ["query", "value"], [[f"{query.kind} {shown}", text]])
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# oracle subcommand


def _run_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    threads = 1 if args.threads is None else args.threads
    if threads < 1:
        parser.error("--threads must be >= 1")
    cache_dir = None if args.no_cache else (args.cache_dir or oracle.default_cache_dir())
    if args.what == "pairs":
        if args.eta is not None:
            parser.error("oracle pairs does not read --eta")
        result = oracle.sweep_pairs(
            args.n,
            args.alpha,
            workers=threads,
            force=args.force,
            cache_dir=cache_dir,
        )
    else:
        if args.threads is not None:
            parser.error("oracle diagonal does not read --threads")
        eta = args.eta or IntegerPartition((args.n,))
        if eta.n != args.n:
            parser.error(f"--eta {eta} is not a partition of {args.n}")
        result = oracle.sweep_fixed_diagonal(
            canonical_of_type(eta),
            args.alpha,
            force=args.force,
            cache_dir=cache_dir,
        )
    if args.format == "csv":
        sys.stdout.write(result.to_csv())
    elif args.format == "markdown":
        for name, table in sorted(result.tables.items()):
            print(f"### {name}\n")
            _print_grid("markdown", ["key", "value"], [[key, str(value)] for key, value in table.items()])
            print()
        print(f"total: {result.total}")
    else:
        print(result.to_json())
    return 0


# ---------------------------------------------------------------------------
# verify subcommand


def _run_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.max_n < 2:
        parser.error("--max-n must be >= 2")
    if args.baserecur_max_n < 1:
        parser.error("--baserecur-max-n must be >= 1")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    suites = tuple(args.suite) if args.suite else verify.SUITES
    run = verify.run_suites(
        suites,
        args.max_n,
        baserecur_max_n=args.baserecur_max_n,
        workers=args.threads,
    )
    if args.format == "json":
        run.write_json(sys.stdout)
    else:
        for line in run.summary_lines():
            print(line)
        for line in run.failures():
            print(line)
        print("PASS" if run.ok else "FAIL")
    return 0 if run.ok else 1


# ---------------------------------------------------------------------------
# table subcommand


def _cell(function: Callable[..., int | Fraction], *args: object) -> str:
    """A closed form's value as text, blank outside its domain."""
    try:
        value = function(*args)
    except ValueError:
        return ""
    return _value_str(value)


def _table_rows(name: str, n_values: list[int], parts: int | None) -> tuple[list[str], list[list[str]]]:
    function, (*_, column) = _closed_form(name)
    if column == "alpha":  # one row per composition of each n; none below 1
        rows = [
            [str(alpha), _cell(function, alpha)]
            for n in n_values
            if n >= 1
            for alpha in compositions(n)
            if parts is None or alpha.length == parts
        ]
        return ["alpha", "value"], rows
    columns = range(_FORMULAS[name].first, max(n_values) + 1)
    header = ["n"] + [f"{column}={c}" for c in columns]
    return header, [[str(n)] + [_cell(function, n, c) for c in columns] for n in n_values]


def _run_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.parts is not None and _closed_form(args.name)[1][-1] != "alpha":
        parser.error(f"table {args.name!r} does not read --parts")
    _print_grid(args.format, *_table_rows(args.name, args.n, args.parts))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longcycles",
        description="Exact counts for products of long cycles, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_formula = sub.add_parser("formula", help="evaluate one closed-form count")
    p_formula.set_defaults(run=_run_formula, parser=p_formula)
    p_formula.add_argument("name", choices=sorted(_FORMULAS))
    p_formula.add_argument("--n", type=int)
    p_formula.add_argument("--k", type=int)
    p_formula.add_argument("--m", type=int)
    p_formula.add_argument("--alpha", type=_alpha_arg, help="composition, e.g. 2,3,1")
    p_formula.add_argument("--d", type=_d_arg, help="block cycle counts, e.g. 1,2")
    p_formula.add_argument("--lambda", dest="lam", type=_lambda_arg, help="partition, e.g. 3+2+1")
    p_formula.add_argument("--format", choices=("text", "json", "csv", "markdown"), default="text")

    p_oracle = sub.add_parser("oracle", help="run a brute-force sweep")
    p_oracle.set_defaults(run=_run_oracle, parser=p_oracle)
    p_oracle.add_argument("what", choices=("pairs", "diagonal"))
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--alpha", type=_alpha_arg)
    p_oracle.add_argument("--eta", type=_lambda_arg, help="diagonal cycle type (diagonal sweeps)")
    p_oracle.add_argument("--threads", type=int, help="worker processes (pair sweeps; default 1)")
    p_oracle.add_argument("--cache-dir", type=Path, default=None)
    p_oracle.add_argument("--no-cache", action="store_true")
    p_oracle.add_argument("--force", action="store_true")
    p_oracle.add_argument("--format", choices=("json", "csv", "markdown"), default="json")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.set_defaults(run=_run_verify, parser=p_verify)
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--suite", action="append", choices=verify.SUITES)
    p_verify.add_argument("--baserecur-max-n", type=int, default=12)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="render grids of formula values")
    p_table.set_defaults(run=_run_table, parser=p_table)
    p_table.add_argument("name", choices=[name for name, entry in _FORMULAS.items() if entry.table])
    p_table.add_argument("--n", type=_range_arg, required=True, help="single n or a range like 3..7")
    p_table.add_argument("--parts", type=int, help="restrict separating-total to k-part compositions")
    p_table.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # values are exact, so print every digit
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args, args.parser)  # a usage error shows the subcommand's usage
        sys.stdout.flush()  # so a reader that closed early shows here, not at exit
        return code
    except OSError as exc:  # a write failed: never 1, which means a failed check
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        if isinstance(exc, BrokenPipeError):  # e.g. `| head`: quiet
            return 141
        print(f"resource limit: {exc}", file=sys.stderr)  # e.g. a full disk
        return 4
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
