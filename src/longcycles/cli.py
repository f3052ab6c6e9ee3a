"""Command-line interface.

Subcommands:

- ``formula``: evaluate one closed-form count exactly;
- ``oracle``: run a brute-force sweep and print its tables;
- ``verify``: run the identity suites and exit 0 only if everything passes;
- ``table``: render grids of formula values over a range of n.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain error,
4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import formulas, oracle, verify
from .errors import (
    DimensionMismatchError,
    DomainError,
    ExactnessError,
    NoSuchPartError,
    NotSeparatedError,
    ResourceLimitError,
)
from .partitions import Composition, IntegerPartition, compositions
from .permutations import canonical_of_type

_DOMAIN_ERRORS = (
    DomainError,
    NotSeparatedError,
    NoSuchPartError,
    DimensionMismatchError,
    ExactnessError,
    ValueError,
)


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


def _value_str(value: int | Fraction) -> str:
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    return str(value)


def _csv_field(text: str) -> str:
    return f'"{text}"' if "," in text else text


# ---------------------------------------------------------------------------
# formula subcommand

_FORMULAS = {
    "zagier-stanley": ("by_cycle_count", ("n", "k")),
    "hultman": ("expected_k_cycles", ("n", "k")),
    "boccara": ("factorization_of_type", ("n", "k")),
    "even-factorizations": ("factorization_of_type", ("lam",)),
    "pairs-by-type": ("by_cycle_type", ("lam",)),
    "separating-total": ("separated_total", ("alpha",)),
    "separating-by-d": ("separated_by_alpha_d", ("alpha", "d")),
    "separated-count": ("separated_by_m_and_count", ("n", "m", "k")),
    "sep-prob": ("separation_probability_m", ("n", "m")),
}


def _require(args: argparse.Namespace, names: tuple[str, ...], parser: argparse.ArgumentParser) -> None:
    for name in names:
        attr = "lam" if name == "lam" else name
        if getattr(args, attr, None) is None:
            flag = {"lam": "--lambda"}.get(name, f"--{name}")
            parser.error(f"formula {args.name!r} requires {flag}")


def _run_formula(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kind, needed = _FORMULAS[args.name]
    _require(args, needed, parser)
    if args.name == "boccara":
        value = formulas.boccara(args.n, args.k)
        query = formulas.CountQuery(args.n, kind, {"lam": IntegerPartition((max(args.k, args.n - args.k), min(args.k, args.n - args.k)))})
    else:
        params: dict[str, object] = {}
        n = args.n
        for name in needed:
            if name == "n":
                continue
            params[name] = getattr(args, name)
        if "lam" in params:
            n = params["lam"].n
        if "alpha" in params:
            n = params["alpha"].n
        if n is None:
            parser.error(f"formula {args.name!r} requires --n")
        query = formulas.CountQuery(n, kind, params)
        value = formulas.evaluate(query)
    text = _value_str(value)
    if args.format == "json":
        print(json.dumps({"query": query.to_dict(), "value": text}, sort_keys=True))
    elif args.format == "csv":
        keys = sorted(query.to_dict()["params"])
        header = ["n"] + keys + ["value"]
        row = [str(query.n)] + [_csv_field(str(query.to_dict()["params"][k])) for k in keys] + [text]
        print(",".join(header))
        print(",".join(row))
    elif args.format == "markdown":
        print(f"| query | value |\n| --- | --- |\n| {query.kind} {query.to_dict()['params']} | {text} |")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# oracle subcommand


def _run_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cache_dir = None if args.no_cache else (args.cache_dir or oracle.default_cache_dir())
    if args.what == "pairs":
        result = oracle.sweep_pairs(
            args.n,
            args.alpha,
            workers=args.threads,
            force=args.force,
            cache_dir=cache_dir,
        )
    else:
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
            print("| key | value |\n| --- | --- |")
            for key, value in table.items():
                print(f"| {key} | {value} |")
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
    suites = tuple(args.suite) if args.suite else verify.SUITES
    run = verify.run_suites(
        suites,
        args.max_n,
        baserecur_max_n=args.baserecur_max_n,
        workers=args.threads,
        p_source=args.p_source,
    )
    if args.format == "json":
        print(json.dumps(run.to_dict(), sort_keys=True))
    else:
        for line in run.summary_lines():
            print(line)
        for line in run.failures():
            print(line)
        print("PASS" if run.ok else "FAIL")
    return 0 if run.ok else 1


# ---------------------------------------------------------------------------
# table subcommand

_TABLES = ("zagier-stanley", "hultman", "boccara", "separating-total", "sep-prob")


def _table_rows(name: str, n_values: list[int], parts: int | None) -> tuple[list[str], list[list[str]]]:
    if name == "separating-total":
        header = ["alpha", "value"]
        rows = []
        for n in n_values:
            for alpha in compositions(n):
                if parts is None or alpha.length == parts:
                    rows.append([str(alpha), _value_str(formulas.separating_total(alpha))])
        return header, rows
    max_n = max(n_values)
    if name == "sep-prob":
        header = ["n"] + [f"m={m}" for m in range(2, max_n + 1)]
        rows = []
        for n in n_values:
            row = [str(n)]
            for m in range(2, max_n + 1):
                row.append(_value_str(formulas.separation_probability(n, m)) if m <= n else "")
            rows.append(row)
        return header, rows
    header = ["n"] + [f"k={k}" for k in range(1, max_n + 1)]
    rows = []
    for n in n_values:
        row = [str(n)]
        for k in range(1, max_n + 1):
            if k > n:
                row.append("")
            elif name == "zagier-stanley":
                row.append(_value_str(formulas.zagier_stanley(n, k)))
            elif name == "hultman":
                row.append(_value_str(formulas.hultman_expected(n, k)) if k < n else "")
            else:  # boccara
                valid = n % 2 == 0 and k < n
                row.append(_value_str(formulas.boccara(n, k)) if valid else "")
        rows.append(row)
    return header, rows


def _run_table(args: argparse.Namespace) -> int:
    header, rows = _table_rows(args.name, args.n, args.parts)
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(_csv_field(cell) for cell in row))
    elif args.format == "json":
        print(json.dumps({"columns": header, "rows": rows}, sort_keys=True))
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join([" --- "] * len(header)) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longcycles",
        description="Exact counts for products of long cycles, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_formula = sub.add_parser("formula", help="evaluate one closed-form count")
    p_formula.add_argument("name", choices=sorted(_FORMULAS))
    p_formula.add_argument("--n", type=int)
    p_formula.add_argument("--k", type=int)
    p_formula.add_argument("--m", type=int)
    p_formula.add_argument("--alpha", type=_alpha_arg, help="composition, e.g. 2,3,1")
    p_formula.add_argument("--d", type=_d_arg, help="block cycle counts, e.g. 1,2")
    p_formula.add_argument("--lambda", dest="lam", type=_lambda_arg, help="partition, e.g. 3+2+1")
    p_formula.add_argument("--format", choices=("text", "json", "csv", "markdown"), default="text")

    p_oracle = sub.add_parser("oracle", help="run a brute-force sweep")
    p_oracle.add_argument("what", choices=("pairs", "diagonal"))
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--alpha", type=_alpha_arg)
    p_oracle.add_argument("--eta", type=_lambda_arg, help="diagonal cycle type (diagonal sweeps)")
    p_oracle.add_argument("--threads", type=int, default=1)
    p_oracle.add_argument("--cache-dir", type=Path, default=None)
    p_oracle.add_argument("--no-cache", action="store_true")
    p_oracle.add_argument("--force", action="store_true")
    p_oracle.add_argument("--format", choices=("json", "csv", "markdown"), default="json")

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("--max-n", type=int, default=6)
    p_verify.add_argument("--suite", action="append", choices=verify.SUITES)
    p_verify.add_argument("--baserecur-max-n", type=int, default=12)
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument("--p-source", choices=("oracle", "formula"), default="oracle")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table", help="render grids of formula values")
    p_table.add_argument("name", choices=_TABLES)
    p_table.add_argument("--n", type=_range_arg, required=True, help="single n or a range like 3..7")
    p_table.add_argument("--parts", type=int, help="restrict separating-total to k-part compositions")
    p_table.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # values are exact, so print every digit
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "formula":
            return _run_formula(args, parser)
        if args.command == "oracle":
            return _run_oracle(args, parser)
        if args.command == "verify":
            return _run_verify(args, parser)
        if args.command == "table":
            return _run_table(args)
    except (ResourceLimitError, RecursionError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
