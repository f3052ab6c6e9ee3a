"""Closed-form counts for products of two long cycles, all in exact
arithmetic.

Every function returns an exact integer (or Fraction for expectations and
probabilities).  Counts of products of two n-cycles are guarded by parity:
such a product is always an even permutation, so a query for an infeasible
cycle count returns 0 instead of evaluating an expression that is only valid
under the feasibility hypothesis.  The unguarded ``*_raw`` variants exist so
the verification suite can report what the bare expressions evaluate to on
infeasible input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, DomainError, ExactnessError
from .partitions import (
    Composition,
    IntegerPartition,
    binomial,
    falling_factorial,
    separated_stirling,
    stirling_first,
    z_of,
)

__all__ = [
    "zagier_stanley",
    "hultman_expected",
    "boccara",
    "even_factorization_count",
    "separating_total",
    "separating_by_d",
    "separated_pairs_by_count",
    "separation_probability",
    "pairs_by_type",
    "CountQuery",
    "evaluate",
]


def _exact_int(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise ExactnessError(f"{context} evaluated to non-integer {value}")
    return value.numerator


# ---------------------------------------------------------------------------
# counts by cycle count / cycle type


def zagier_stanley_raw(n: int, k: int) -> Fraction:
    return Fraction(2 * stirling_first(n + 1, k), n * (n + 1))


def zagier_stanley(n: int, k: int) -> int:
    """Long cycles s on [n] such that (1 2 ... n)∘s has exactly k cycles:
    2 C(n+1, k) / (n (n+1)), and 0 whenever k and n have different parity
    (the product of two long cycles is even)."""
    if n < 1 or not 1 <= k <= n:
        raise ValueError("need n >= 1 and 1 <= k <= n")
    if (n - k) % 2:
        return 0
    return _exact_int(zagier_stanley_raw(n, k), f"zagier_stanley({n},{k})")


def hultman_expected(n: int, k: int) -> Fraction:
    """Expected number of k-cycles in the product of two independent uniform
    long cycles on [n]: (-1)^(k+1) / (k binom(n-1,k)) + 1/k."""
    if k < 1 or n < 1:
        raise DomainError("need n, k >= 1")
    b = math.comb(n - 1, k)
    if b == 0:
        raise DomainError(f"binom({n - 1},{k}) vanishes; expectation formula undefined")
    return Fraction((-1) ** (k + 1), k * b) + Fraction(1, k)


def boccara(n: int, k: int) -> int:
    """Ordered factorizations of a fixed even permutation of cycle type
    (k, n-k) into two n-cycles: (2 (n-1)! / (n+1)) (1 - (-1)^k / binom(n,k))."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    if n % 2:
        raise DomainError(f"a permutation with two cycles on [{n}] is odd")
    value = Fraction(2 * math.factorial(n - 1), n + 1) * (1 - Fraction((-1) ** k, math.comb(n, k)))
    return _exact_int(value, f"boccara({n},{k})")


def even_factorization_count(lam: IntegerPartition) -> int:
    """Ordered factorizations of a fixed even permutation of the given cycle
    type into two long cycles.

    With parts lam = (l1 >= l2 >= ... >= lk), the count is
    2 (n-1)! * sum over j_2..j_k (0 <= j_t < l_t, sum = L) of
    (-1)^L L! / (l1+L+1)_(L+1) * prod binom(l_t, j_t),
    the falling factorial in the denominator.  The js enter only through L
    and the binomials: coefficients of prod_t ((1+x)^(l_t) - x^(l_t)).
    """
    parts = lam.parts
    n = lam.n
    if n < 1:
        raise ValueError("need a partition of n >= 1")
    if (n - lam.length) % 2:
        raise DomainError(f"a permutation of type {lam} on [{n}] is odd")
    head = parts[0]
    poly = [1]
    for p in parts[1:]:
        factor = [binomial(p, j) for j in range(p)]
        out = [0] * (len(poly) + p - 1)
        for i, c in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += c * b
        poly = out
    acc = sum(
        Fraction((-1) ** total * math.factorial(total) * c, falling_factorial(head + total + 1, total + 1))
        for total, c in enumerate(poly)
    )
    value = 2 * math.factorial(n - 1) * acc
    return _exact_int(value, f"even_factorization_count({lam})")


def pairs_by_type(lam: IntegerPartition) -> int:
    """Ordered pairs of long cycles whose product has the given cycle type:
    z_type * (factorizations of one fixed representative); 0 when the type
    has infeasible parity."""
    if (lam.n - lam.length) % 2:
        return 0
    return z_of(lam) * even_factorization_count(lam)


# ---------------------------------------------------------------------------
# block separation


def separating_total(alpha: Composition) -> int:
    """Ordered pairs of long cycles whose product keeps every block of alpha
    together: (n-1)! / (n+1-k) * prod alpha_t!."""
    n, k = alpha.n, alpha.length
    value = Fraction(math.factorial(n - 1), n + 1 - k)
    for p in alpha.parts:
        value *= math.factorial(p)
    return _exact_int(value, f"separating_total({alpha})")


def _moves(rest: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """(binom(g_j, 2), sorted later pairs after moving one element out of
    block j) for every later block j that can give one up."""
    for j, (g, di) in enumerate(rest):
        if g >= 2:
            yield math.comb(g, 2), tuple(sorted(rest[:j] + ((g - 1, di),) + rest[j + 1 :]))


# _sep_by_d values by state (g1, d1, sorted later pairs), kept for the life of
# the process: different d vectors reach many of the same states.
_SEP_VALUES: dict[tuple[int, int, tuple[tuple[int, int], ...]], Fraction] = {}


def _sep_by_d(g0: int, d0: int, rest: tuple[tuple[int, int], ...]) -> Fraction:
    """Block-count refined separation count, expanded by repeatedly moving
    one element from a later block onto the first block.

    Satisfies binom(g1+1,2) G(gamma) + sum_j binom(g_j,2) G(gamma^(j)) = Y,
    where gamma^(j) moves one element from block j to block 1 and
    Y = (n-1)! C(g1+1, d1) prod_{t>1} C(g_t, d_t).  Terms vanish once a block
    empties because both the Stirling factor and binom(1,2) are zero.  It is
    symmetric in the later (g_j, d_j) pairs, so ``rest`` holds them sorted.

    No recursion: the states not yet known that moves reach are collected
    breadth first, which orders them by the size of the first block, and
    evaluated in the reverse order, so every state finds the states it moves
    to already evaluated.
    """
    n = g0 + sum(g for g, _ in rest)
    todo = [] if (g0, d0, rest) in _SEP_VALUES else [(g0, rest)]
    seen = {rest}
    expanded = []
    for g1, state in todo:
        moves = list(_moves(state))
        expanded.append((g1, state, moves))
        for _, moved in moves:
            if moved not in seen and (g1 + 1, d0, moved) not in _SEP_VALUES:
                seen.add(moved)
                todo.append((g1 + 1, moved))
    for g1, state, moves in reversed(expanded):
        y = math.factorial(n - 1) * stirling_first(g1 + 1, d0)
        for g, di in state:
            y *= stirling_first(g, di)
        acc = Fraction(y)
        for coeff, moved in moves:
            acc -= coeff * _SEP_VALUES[(g1 + 1, d0, moved)]
        _SEP_VALUES[(g1, d0, state)] = acc / math.comb(g1 + 1, 2)
    return _SEP_VALUES[(g0, d0, rest)]


def _check_d(alpha: Composition, d: Sequence[int]) -> tuple[int, ...]:
    d = tuple(d)
    if len(d) != alpha.length:
        raise DimensionMismatchError(f"d has {len(d)} entries for {alpha.length} blocks")
    if any(di < 1 for di in d):
        raise ValueError("every d_i must be >= 1")
    return d


def separating_by_d_raw(alpha: Composition, d: Sequence[int]) -> Fraction:
    d = _check_d(alpha, d)
    return _sep_by_d(alpha.parts[0], d[0], tuple(sorted(zip(alpha.parts[1:], d[1:]))))


def separating_by_d(alpha: Composition, d: Sequence[int]) -> int:
    """Ordered pairs of long cycles whose product keeps every block of alpha
    together and splits block i into exactly d_i cycles.

    Returns 0 immediately when sum(d) and n differ in parity: the expansion
    is only valid under that hypothesis and would otherwise produce a
    nonzero value for a count that is genuinely zero.
    """
    d = _check_d(alpha, d)
    if (sum(d) - alpha.n) % 2:
        return 0
    return _exact_int(separating_by_d_raw(alpha, d), f"separating_by_d({alpha},{d})")


def separated_pairs_by_count_raw(n: int, m: int, k: int) -> Fraction:
    return Fraction(
        2 * math.factorial(n - 1) * separated_stirling(n + 1, m, k),
        (n + m) * (n + 1 - m),
    )


def separated_pairs_by_count(n: int, m: int, k: int) -> int:
    """Ordered pairs of long cycles on [n] whose product has k cycles with
    1..m in pairwise distinct cycles:
    2 (n-1)! C_m(n+1, k) / ((n+m)(n+1-m)), and 0 for infeasible parity."""
    if not 1 <= m <= n or not 1 <= k <= n:
        raise ValueError("need 1 <= m <= n and 1 <= k <= n")
    if (n - k) % 2:
        return 0
    return _exact_int(separated_pairs_by_count_raw(n, m, k), f"separated_pairs_by_count({n},{m},{k})")


def separation_probability(n: int, m: int) -> Fraction:
    """Probability that the product of two independent uniform long cycles on
    [n] has 1..m in pairwise distinct cycles: 1/m! when n-m is odd, plus
    2/((m-2)! (n+1-m)(n+m)) when n-m is even."""
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    base = Fraction(1, math.factorial(m))
    if (n - m) % 2:
        return base
    return base + Fraction(2, math.factorial(m - 2) * (n + 1 - m) * (n + m))


# ---------------------------------------------------------------------------
# query objects (the JSON surface of the CLI)

# query kind -> (closed form, its argument names); the argument "n" is the
# query's own n, every other one is a parameter the query must carry
_KINDS = {
    "by_cycle_count": (zagier_stanley, ("n", "k")),
    "by_cycle_type": (pairs_by_type, ("lam",)),
    "separated_by_alpha_d": (separating_by_d, ("alpha", "d")),
    "separated_total": (separating_total, ("alpha",)),
    "factorization_of_type": (even_factorization_count, ("lam",)),
    "expected_k_cycles": (hultman_expected, ("n", "k")),
    "separation_probability_m": (separation_probability, ("n", "m")),
    "separated_by_m_and_count": (separated_pairs_by_count, ("n", "m", "k")),
}


@dataclass(frozen=True)
class CountQuery:
    """A well-formed query against the closed forms, serializable to JSON."""

    n: int
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        missing = [name for name in _KINDS[self.kind][1] if name != "n" and name not in self.params]
        if missing:
            raise ValueError(f"{self.kind} query needs parameters {missing}")

    def to_dict(self) -> dict:
        params = {}
        for key, val in self.params.items():
            if isinstance(val, (IntegerPartition, Composition)):
                params[key] = str(val)
            elif isinstance(val, tuple):
                params[key] = list(val)
            else:
                params[key] = val
        return {"n": self.n, "kind": self.kind, "params": params}


def evaluate(query: CountQuery) -> int | Fraction:
    function, names = _KINDS[query.kind]
    return function(*(query.n if name == "n" else query.params[name] for name in names))


def _value_str(value: int | Fraction) -> str:
    """An exact value as text: an integer, or p/q."""
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    return str(value)
