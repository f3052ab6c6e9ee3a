"""Robustness probes: large or malformed input must give the right answer or
a clean, typed error.  Each probe carries the outcome it had when the
benchmark was defined, so that a failure already known then is told apart
from a new one.  Probes run in a process of their own, because the first
needs caches that are cold."""

from __future__ import annotations

import math
from fractions import Fraction

from checks import Checks
from longcycles import IntegerPartition, Permutation, zagier_stanley


def _zagier_large() -> str | None:
    n = 1500
    # C(n+1, 2) = n! H_n, so the closed form is 2 n! H_n / (n (n+1)).
    harmonic = sum(Fraction(1, i) for i in range(1, n + 1))
    want = 2 * math.factorial(n) * harmonic / (n * (n + 1))
    return None if zagier_stanley(n, 2) == want else "wrong value"


def _parse_out_of_range() -> str | None:
    try:
        Permutation.parse("(1 5)", n=3)
    except ValueError:
        return None
    return "no exception"


def _fractional_part() -> str | None:
    try:
        IntegerPartition((2.5,))
    except (TypeError, ValueError):
        return None
    return "no exception"


# (name, probe, outcome when the benchmark was defined)
PROBES = (
    ("zagier_stanley(1500, 2)", _zagier_large, "RecursionError"),
    ("Permutation.parse('(1 5)', n=3) raises ValueError", _parse_out_of_range, "IndexError"),
    ("IntegerPartition((2.5,)) raises", _fractional_part, "no exception"),
)


def run_probes(checks: Checks) -> None:
    for what, call, known in PROBES:
        checks.probe(what, call, known)
