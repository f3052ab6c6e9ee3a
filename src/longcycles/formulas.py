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
from typing import Iterable, Mapping, Sequence

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


def _poly_product(factors: Iterable[Sequence[int]]) -> list[int]:
    """Coefficients of the product of polynomials given by their coefficient
    lists, lowest degree first."""
    poly = [1]
    for factor in factors:
        out = [0] * (len(poly) + len(factor) - 1)
        for i, c in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += c * b
        poly = out
    return poly


# ---------------------------------------------------------------------------
# counts by cycle count / cycle type


def zagier_stanley_raw(n: int, k: int) -> Fraction:
    return Fraction(2 * stirling_first(n + 1, k), n * (n + 1))


def zagier_stanley(n: int, k: int) -> int:
    """Long cycles s on [n] such that (1 2 ... n)∘s has exactly k cycles:
    2 C(n+1, k) / (n (n+1)), and 0 whenever k and n have different parity
    (the product of two long cycles is even)."""
    if n < 1 or not 1 <= k <= n:
        raise DomainError("need n >= 1 and 1 <= k <= n")
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
        raise DomainError("need 1 <= k < n")
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
        raise DomainError("need a partition of n >= 1")
    if (n - lam.length) % 2:
        raise DomainError(f"a permutation of type {lam} on [{n}] is odd")
    head = parts[0]
    poly = _poly_product([binomial(p, j) for j in range(p)] for p in parts[1:])
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


def _check_d(alpha: Composition, d: Sequence[int]) -> tuple[int, ...]:
    d = tuple(d)
    if len(d) != alpha.length:
        raise DimensionMismatchError(f"d has {len(d)} entries for {alpha.length} blocks")
    if any(di < 1 for di in d):
        raise DomainError("every d_i must be >= 1")
    return d


# The last table of _stirling_cut small enough to keep.  One call builds it
# anyway, so the memo never holds more than that call did.
_CUT_KEEP_ENTRIES = 1024
_kept_cut: tuple[tuple[int, ...], ...] = ((1,),)


def _stirling_cut(n: int, d: tuple[int, ...]) -> Sequence[Sequence[int] | Mapping[int, int]]:
    """C(m, k) as ``table[m][k]`` for m <= n + 1 and every k in d, from the
    Stirling rows cut at column max(d).

    A table of at most _CUT_KEEP_ENTRIES entries is kept whole, and every
    later call whose rows and columns it covers reads it: the verify suites
    make about 1,500 calls at n <= 7.  A larger table keeps only the columns
    in d, for its own call: whole cut rows would hold ~340 MB at n = 1200
    and d = (600,), and stirling_first's whole rows ~30 MB.
    """
    global _kept_cut
    width = max(d) + 1
    kept = _kept_cut
    if len(kept) >= n + 2 and len(kept[0]) >= width:
        return kept
    keep = (n + 2) * width <= _CUT_KEEP_ENTRIES
    row, table, columns = (1,) + (0,) * (width - 1), [], set(d)
    for m in range(n + 2):
        table.append(row if keep else {k: row[k] for k in columns})
        row = (0, *[row[k - 1] + m * row[k] for k in range(1, width)])
    if keep:
        _kept_cut = tuple(table)
    return table


def separating_by_d_raw(alpha: Composition, d: Sequence[int]) -> Fraction:
    d = _check_d(alpha, d)
    g, n = alpha.parts[0], alpha.n
    stirling = _stirling_cut(n, d)
    poly = _poly_product(
        [
            (-1) ** r * math.factorial(r) * binomial(a, r) * binomial(a - 1, r) * stirling[a - r][dj]
            for r in range(a)
        ]
        for a, dj in zip(alpha.parts[1:], d[1:])
    )
    # Horner's rule over the common denominator (g+R+1)! (g+R)! of the last term
    num = 0
    for total, c in enumerate(poly):
        num = num * (g + total + 1) * (g + total) + math.factorial(total) * c * stirling[g + total + 1][d[0]]
    top = g + len(poly)
    factor = 2 * math.factorial(n - 1) * math.factorial(g) * math.factorial(g - 1)
    return Fraction(factor * num, math.factorial(top) * math.factorial(top - 1))


def separating_by_d(alpha: Composition, d: Sequence[int]) -> int:
    """Ordered pairs of long cycles whose product keeps every block of alpha
    together and splits block i into exactly d_i cycles.

    With g = alpha_1 and C the signless Stirling numbers of the first kind,
    the count is
    2 (n-1)! g! (g-1)! * sum over R of R! c_R C(g+R+1, d_1) / ((g+R+1)! (g+R)!),
    where c_R is the coefficient of x^R in
    prod_{j>1} sum_{r<alpha_j} (-1)^r r! binom(alpha_j, r) binom(alpha_j-1, r) C(alpha_j-r, d_j) x^r.
    It unrolls binom(g+1,2) G(gamma) + sum_j binom(g_j,2) G(gamma^(j)) = Y,
    where gamma^(j) moves one element from later block j to block 1 and
    Y = (n-1)! C(g+1, d_1) prod_{j>1} C(g_j, d_j): a path that moves r_j
    elements out of each block j has the same weight in every move order.

    Returns 0 immediately when sum(d) and n differ in parity: the sum is
    only valid under that hypothesis and would otherwise produce a
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
        raise DomainError("need 1 <= m <= n and 1 <= k <= n")
    if (n - k) % 2:
        return 0
    return _exact_int(separated_pairs_by_count_raw(n, m, k), f"separated_pairs_by_count({n},{m},{k})")


def separation_probability(n: int, m: int) -> Fraction:
    """Probability that the product of two independent uniform long cycles on
    [n] has 1..m in pairwise distinct cycles: 1/m! when n-m is odd, plus
    2/((m-2)! (n+1-m)(n+m)) when n-m is even."""
    if not 2 <= m <= n:
        raise DomainError("need 2 <= m <= n")
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
