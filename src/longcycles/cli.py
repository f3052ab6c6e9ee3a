"""Command-line interface.

Subcommands:

- ``formula``: evaluate one closed-form count exactly;
- ``oracle``: run a brute-force sweep and print its tables;
- ``verify``: run the identity suites and exit 0 only if everything passes;
- ``table``: render grids of formula values over a range of n.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error
(a DomainError), 4 resource limit, 70 internal error (EX_SOFTWARE: a bug,
with its traceback on stderr), 141 output pipe closed by its reader
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import formulas
from ._suites import SUITES
from .errors import DomainError, ResourceLimitError
from .formulas import _value_str
from .partitions import Composition, IntegerPartition, compositions
from .permutations import canonical_of_type


# ---------------------------------------------------------------------------
# argument parsing helpers (used as argparse type= converters: a ValueError
# raised here is a usage error, exit code 2)


def _at_least(low: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value"
    return convert


def _reasoned(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` as a type= converter whose ValueError shows its reason:
    argparse would name the converter and drop the message."""

    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r} ({exc})") from None

    return convert


_alpha_arg = _reasoned(Composition.parse)
_lambda_arg = _reasoned(IntegerPartition.parse)


@_reasoned
def _d_arg(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().lstrip("(").rstrip(")").split(","))


@_reasoned
def _range_arg(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    if not dots:
        return [int(text)]
    if ".." in hi:
        raise ValueError("a range is lo..hi")
    values = list(range(int(lo), int(hi) + 1))
    if not values:
        raise ValueError("the range is empty")
    return values


# ---------------------------------------------------------------------------
# formula registry: the formula and table names


class _Formula(NamedTuple):
    kind: str  # the formulas.CountQuery kind it asks for
    table: bool = False  # also a `table` name
    first: int = 1  # the first column of its table grid


# A name reads the flag in _FLAGS of each argument of its kind and takes n from
# --lambda or --alpha when the kind has one of those; a --n given as well must
# agree.  boccara reads --n and --k instead: Boccara's closed form for the
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


_FLAGS = {  # the flag, type= converter and help of each argument of a closed form
    "n": ("--n", int, None),
    "k": ("--k", int, None),
    "m": ("--m", int, None),
    "alpha": ("--alpha", _alpha_arg, "composition, e.g. 2,3,1"),
    "d": ("--d", _d_arg, "block cycle counts, e.g. 1,2"),
    "lam": ("--lambda", _lambda_arg, "partition, e.g. 3+2+1"),
}


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


def _run_formula(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    params = {arg: getattr(args, arg) for arg in _closed_form(args.name)[1]}
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
    from . import oracle  # loads numpy, which formula and table never need

    if args.alpha is not None and args.alpha.n != args.n:
        parser.error(f"--alpha {args.alpha} is not a composition of {args.n}")
    cache_dir = None if args.no_cache else (args.cache_dir or oracle.default_cache_dir())
    if args.what == "pairs":
        result = oracle.sweep_pairs(args.n, args.alpha, workers=args.threads, cache_dir=cache_dir)
    else:
        eta = args.eta or IntegerPartition((args.n,))
        if eta.n != args.n:
            parser.error(f"--eta {eta} is not a partition of {args.n}")
        result = oracle.sweep_fixed_diagonal(canonical_of_type(eta), args.alpha, cache_dir=cache_dir)
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
    from . import verify  # loads numpy, as oracle does

    suites = tuple(args.suite) if args.suite else SUITES
    run = verify.run_suites(suites, args.max_n, baserecur_max_n=args.baserecur_max_n, workers=args.threads)
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
    except DomainError:
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
    _print_grid(args.format, *_table_rows(args.name, args.n, getattr(args, "parts", None)))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longcycles",
        description="Exact counts for products of long cycles, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_formula = sub.add_parser("formula", help="evaluate one closed-form count")
    formula_names = p_formula.add_subparsers(dest="name", required=True)

    sweeps = sub.add_parser("oracle", help="run a brute-force sweep").add_subparsers(dest="what", required=True)
    for what in ("pairs", "diagonal"):
        p_oracle = sweeps.add_parser(what)
        p_oracle.set_defaults(run=_run_oracle, parser=p_oracle)
        p_oracle.add_argument("--n", type=_at_least(1), required=True)
        p_oracle.add_argument("--alpha", type=_alpha_arg)
        if what == "pairs":
            p_oracle.add_argument("--threads", type=_at_least(1), default=1, help="worker processes (default 1)")
        else:
            p_oracle.add_argument("--eta", type=_lambda_arg, help="diagonal cycle type (default: one n-cycle)")
        p_oracle.add_argument("--cache-dir", type=Path, default=None)
        p_oracle.add_argument("--no-cache", action="store_true")
        p_oracle.add_argument("--format", choices=("json", "csv", "markdown"), default="json")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.set_defaults(run=_run_verify, parser=p_verify)
    p_verify.add_argument("--max-n", type=_at_least(2), default=6)
    p_verify.add_argument("--suite", action="append", choices=SUITES)
    p_verify.add_argument("--baserecur-max-n", type=_at_least(1), default=12)
    p_verify.add_argument(
        "--threads",
        type=_at_least(1),
        default=1,
        help=(
            "worker processes: split the pair sweep of formulas, the plane sweep of classic and section3,"
            " and the checks of plane (default 1)"
        ),
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="render grids of formula values")
    table_names = p_table.add_subparsers(dest="name", required=True)

    for name in sorted(_FORMULAS):
        arg_names = _closed_form(name)[1]
        formula_leaf = formula_names.add_parser(name)
        formula_leaf.set_defaults(run=_run_formula, parser=formula_leaf)
        if {"lam", "alpha"} & set(arg_names):
            formula_leaf.add_argument("--n", type=int, help="optional: must match the n of --lambda or --alpha")
        for arg in arg_names:
            flag, convert, text = _FLAGS[arg]
            formula_leaf.add_argument(flag, dest=arg, type=convert, required=True, help=text)
        formula_leaf.add_argument("--format", choices=("text", "json", "csv", "markdown"), default="text")
        if _FORMULAS[name].table:
            table_leaf = table_names.add_parser(name)
            table_leaf.set_defaults(run=_run_table, parser=table_leaf)
            table_leaf.add_argument("--n", type=_range_arg, required=True, help="single n or a range like 3..7")
            if arg_names[-1] == "alpha":
                table_leaf.add_argument("--parts", type=_at_least(1), help="restrict to k-part compositions")
            table_leaf.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")

    return parser


def main(argv: list[str] | None = None) -> int:
    # before numpy is first imported: OpenBLAS would start a thread per core,
    # which --threads did not ask for, and each forked worker its own pool
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    if hasattr(sys, "set_int_max_str_digits"):  # values are exact, so print every digit
        sys.set_int_max_str_digits(0)
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # a usage error shows the usage of the command that was given
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        code = args.run(args, args.parser)
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
    except DomainError as exc:  # input outside a domain; any other ValueError is a bug, so exit 70
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug: never 1, which means a failed check
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
