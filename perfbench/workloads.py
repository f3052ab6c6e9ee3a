"""The benchmark's workloads: inputs made from the seed, the timed job, and
the untimed exact checks of the job's output.

Every job calls the public API of ``longcycles`` and opens one span around
each call into a layer; with tracing off the spans cost nothing.  The seed
only orders inputs, or picks among inputs of equal cost, so that run time
does not depend on it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from longcycles import (
    Composition,
    IntegerPartition,
    expected_k_cycles,
    hultman_expected,
    oracle,
    pairs_by_type,
    pairs_separating_prefix,
    separated_pairs_by_count,
    separating_by_d,
    separating_total,
    separation_probability,
    sweep_pairs,
    verify,
    zagier_stanley,
)
from checks import Checks
from spans import Tracer

PAIRS_N = 8
# sha256 of the JSON tables of sweep_pairs(8) at workers=1, pinned when the
# benchmark was defined; every worker count must reproduce it byte for byte.
PAIRS_N8_TABLES_SHA256 = "6e4a72347bc5a6be7efca98b58dc1f7c0b7f2fad467f271baeac401699ddb4cd"

VERIFY_ARGS = {"max_n": 7, "plane_max_n": 6, "baserecur_max_n": 12}
# Pinned from run_suites(SUITES, **VERIFY_ARGS) when the benchmark was defined.
VERIFY_N7_REPORTS = 126305
VERIFY_N7_AUDIT = 362
VERIFY_N7_SHA256 = "e91f01e5a0596372ea3135e56d8d153c843558faa3add8883cd9ff28ec00adb6"

LARGE_TYPE_N = 20
LARGE_EXTRA_TYPE = (3,) * 11
# 3 in the fourth block: where the 3 sits changes the cost of the expansion
# by up to 60%, so it is fixed and the seed only orders the d vectors.
LARGE_ALPHA = (2, 2, 2, 3, 2, 2, 2, 2)
LARGE_N = 450  # the Stirling rows recurse to depth N; 500 already fails in a cold process
LARGE_MS = (2, 3, 4)

# Per-layer time metric -> the span it reads.
LAYER_SPANS = {
    "oracle.pair_counts_s": "oracle.pair_counts",
    "oracle.type_table_s": "oracle.type_table",
    "oracle.alpha_tables_s": "oracle.alpha_table",
    "oracle.sep_prefix_s": "oracle.sep_prefix",
    "verify.classic_s": "verify.classic",
    "verify.section3_s": "verify.section3",
    "verify.baserecur_s": "verify.baserecur",
    "verify.formulas_s": "verify.formulas",
    "verify.plane_s": "verify.plane",
    "verify.parity_s": "verify.parity",
    "formulas.even_factorization_count_s": "formulas.even_factorization_count",
    "formulas.separating_by_d_s": "formulas.separating_by_d",
    "formulas.stirling_s": "formulas.stirling",
}


def _sha256(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for head in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - head, head):
            yield (head, *rest)


def _compositions(n: int):
    for size in range(n):
        for cuts in itertools.combinations(range(1, n), size):
            bounds = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _class_size(parts: tuple[int, ...]) -> int:
    """Permutations of cycle type parts: n! / prod(i^m_i m_i!)."""
    z = 1
    for part, group in itertools.groupby(parts):
        mult = len(list(group))
        z *= part**mult * math.factorial(mult)
    return math.factorial(sum(parts)) // z


def _factorizations_by_polynomial(parts: tuple[int, ...]) -> int:
    """Factorizations of a fixed permutation of cycle type parts into two long
    cycles, evaluated independently of the library: the sum over j_2..j_k of
    prod binom(l_t, j_t) depends on the j only through L = sum(j), so it is
    the coefficient of x^L in prod_t ((1+x)^l_t - x^l_t)."""
    head, rest = parts[0], parts[1:]
    poly = [1]
    for part in rest:
        factor = [math.comb(part, j) for j in range(part)]
        prod = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                prod[i + j] += a * b
        poly = prod
    acc = Fraction(0)
    for total, coeff in enumerate(poly):
        acc += Fraction(
            (-1) ** total * math.factorial(total) * math.factorial(head) * coeff,
            math.factorial(head + total + 1),
        )
    return 2 * math.factorial(sum(parts) - 1) * acc


# ---------------------------------------------------------------------------
# pairs-n8 and pairs-n8-w2: the oracle's pair sweep


@dataclass
class PairsOutput:
    base: Any
    by_alpha: dict[tuple[int, ...], Any]
    prefix: dict[tuple[int, int], int]
    expected: dict[int, Fraction]


def pairs_inputs(seed: int) -> list[tuple[int, ...]]:
    alphas = list(_compositions(PAIRS_N))
    random.Random(seed).shuffle(alphas)
    return alphas


def _pair_counts(workers: int, tracer: Tracer) -> None:
    with tracer.span("oracle.pair_counts"):
        oracle.product_pair_counts(PAIRS_N, workers)
    tracer.count("oracle.pairs", math.factorial(PAIRS_N - 1) ** 2)


def pairs_job(alphas: list[tuple[int, ...]], tracer: Tracer) -> PairsOutput:
    _pair_counts(1, tracer)
    with tracer.span("oracle.type_table"):
        base = sweep_pairs(PAIRS_N, workers=1, cache_dir=None)
    by_alpha = {}
    for parts in alphas:
        with tracer.span("oracle.alpha_table"):
            by_alpha[parts] = sweep_pairs(PAIRS_N, Composition(parts), cache_dir=None)
    ks = range(1, PAIRS_N + 1)
    with tracer.span("oracle.sep_prefix"):
        prefix = {(m, k): pairs_separating_prefix(PAIRS_N, m, k) for m in ks for k in ks}
    expected = {k: expected_k_cycles(PAIRS_N, k) for k in ks}
    return PairsOutput(base, by_alpha, prefix, expected)


def pairs_w2_job(_inputs: None, tracer: Tracer) -> PairsOutput:
    _pair_counts(2, tracer)
    with tracer.span("oracle.type_table"):
        base = sweep_pairs(PAIRS_N, workers=2, cache_dir=None)
    return PairsOutput(base, {}, {}, {})


def _check_type_table(base: Any, checks: Checks) -> None:
    checks.equal("pairs tables sha256", _sha256(base.to_dict()["tables"]), lambda: PAIRS_N8_TABLES_SHA256)
    table = base.tables["cycle_type"]
    keys = {oracle.format_type_key(lam): lam for lam in _partitions(PAIRS_N)}
    for key in sorted(set(keys) | set(table)):
        checks.equal(
            f"cycle_type {key}",
            table.get(key),
            lambda: pairs_by_type(IntegerPartition(keys[key])),
        )


def pairs_check(alphas: list[tuple[int, ...]], out: PairsOutput, checks: Checks) -> None:
    _check_type_table(out.base, checks)
    for parts in alphas:
        alpha = Composition(parts)
        result = out.by_alpha[parts]
        table = result.tables["d_vector"]
        keys = {oracle.format_d_key(d): d for d in itertools.product(*(range(1, p + 1) for p in parts))}
        for key in sorted(set(keys) | set(table)):
            checks.equal(
                f"d_vector {alpha} {key}",
                table.get(key),
                lambda: separating_by_d(alpha, keys[key]),
            )
        checks.equal(f"separated total {alpha}", result.separated_total(), lambda: separating_total(alpha))
    for (m, k), count in sorted(out.prefix.items()):
        checks.equal(f"prefix m={m} k={k}", count, lambda: separated_pairs_by_count(PAIRS_N, m, k))
    for k, value in sorted(out.expected.items()):
        if k < PAIRS_N:
            checks.equal(f"expected k={k}", value, lambda: hultman_expected(PAIRS_N, k))
        else:  # Hultman's form is undefined at k = n; at even n an n-cycle is odd
            # while every product of two n-cycles is even, so none occurs.
            checks.equal(f"expected k={k}", value, lambda: Fraction(0))


def pairs_w2_check(_inputs: None, out: PairsOutput, checks: Checks) -> None:
    _check_type_table(out.base, checks)


# ---------------------------------------------------------------------------
# verify-n7: the certification run


def verify_job(_inputs: None, tracer: Tracer) -> Any:
    if not tracer.enabled:
        return verify.run_suites(verify.SUITES, **VERIFY_ARGS)
    # The same suites in run_suites' order, one span each; the pinned digest
    # shows that the traced run reproduces the untraced one.
    max_n = VERIFY_ARGS["max_n"]
    with tracer.span("oracle.pair_counts"):
        for n in range(1, max_n + 1):
            oracle.product_pair_counts(n)
    tracer.count("oracle.pairs", sum(math.factorial(n - 1) ** 2 for n in range(1, max_n + 1)))
    reports = []
    with tracer.span("verify.classic"):
        reports += verify.classic_reports(max_n)
    with tracer.span("verify.section3"):
        reports += verify.section3_reports(max_n)
    with tracer.span("verify.baserecur"):
        reports += verify.baserecur_reports(VERIFY_ARGS["baserecur_max_n"])
    with tracer.span("verify.formulas"):
        reports += verify.formula_vs_oracle_reports(max_n)
    with tracer.span("verify.plane"):
        reports += verify.plane_structure_reports(VERIFY_ARGS["plane_max_n"])
    with tracer.span("verify.parity"):
        audit = verify.parity_audit(max_n)
    tracer.count("verify.reports", len(reports))
    return verify.VerifyRun(reports=reports, audit=audit)


def verify_check(_inputs: None, run: Any, checks: Checks) -> None:
    for r in run.reports:
        checks.equal(f"{r.identity} @ {r.instance}", r.lhs, lambda: r.rhs)
    for a in run.audit:
        checks.equal(f"parity audit {a.identity} @ {a.instance}", a.true_count, lambda: 0)
    checks.equal("report count", len(run.reports), lambda: VERIFY_N7_REPORTS)
    checks.equal("audit count", len(run.audit), lambda: VERIFY_N7_AUDIT)
    checks.equal("verify sha256", _sha256(run.to_dict()), lambda: VERIFY_N7_SHA256)


# ---------------------------------------------------------------------------
# formulas-large: closed forms at large arguments


@dataclass
class LargeInputs:
    types: list[tuple[int, ...]]
    ds: list[tuple[int, ...]]
    ks: list[int]
    m: int


@dataclass
class LargeOutput:
    by_type: dict[tuple[int, ...], int]
    by_d: dict[tuple[int, ...], int]
    zagier: dict[int, int]
    separated: dict[int, int]


def large_inputs(seed: int) -> LargeInputs:
    rng = random.Random(seed)
    n = LARGE_TYPE_N
    types = [lam for lam in _partitions(n) if (n - len(lam)) % 2 == 0]
    types.append(LARGE_EXTRA_TYPE)
    rng.shuffle(types)
    ds = list(itertools.product(*(range(1, p + 1) for p in LARGE_ALPHA)))
    rng.shuffle(ds)
    ks = list(range(1, LARGE_N + 1))
    rng.shuffle(ks)
    return LargeInputs(types, ds, ks, rng.choice(LARGE_MS))


def large_job(inp: LargeInputs, tracer: Tracer) -> LargeOutput:
    with tracer.span("formulas.even_factorization_count"):
        by_type = {lam: pairs_by_type(IntegerPartition(lam)) for lam in inp.types}
    alpha = Composition(LARGE_ALPHA)
    with tracer.span("formulas.separating_by_d"):
        by_d = {d: separating_by_d(alpha, d) for d in inp.ds}
    # Both closed forms are Stirling numbers (of the first kind, and the
    # separated ones) of N + 1 over a few factorials, so their cost is the
    # Stirling rows of the partitions layer.
    with tracer.span("formulas.stirling"):
        zagier = {k: zagier_stanley(LARGE_N, k) for k in inp.ks}
        separated = {k: separated_pairs_by_count(LARGE_N, inp.m, k) for k in inp.ks}
    tracer.count("formulas.calls", len(by_type) + len(by_d) + len(zagier) + len(separated))
    return LargeOutput(by_type, by_d, zagier, separated)


def large_check(inp: LargeInputs, out: LargeOutput, checks: Checks) -> None:
    for lam, count in sorted(out.by_type.items()):
        checks.equal(
            f"pairs_by_type {oracle.format_type_key(lam)}",
            count,
            lambda: _class_size(lam) * _factorizations_by_polynomial(lam),
        )
    fact = math.factorial(LARGE_TYPE_N - 1)
    total = sum(c for lam, c in out.by_type.items() if sum(lam) == LARGE_TYPE_N)
    checks.equal(f"sum of pairs_by_type over types of {LARGE_TYPE_N}", total, lambda: fact**2)
    alpha = Composition(LARGE_ALPHA)
    checks.equal(f"sum of separating_by_d {alpha}", sum(out.by_d.values()), lambda: separating_total(alpha))
    n = LARGE_N
    checks.equal(f"sum of zagier_stanley({n}, k)", sum(out.zagier.values()), lambda: math.factorial(n - 1))
    checks.equal(
        f"sum of separated_pairs_by_count({n}, {inp.m}, k)",
        sum(out.separated.values()),
        lambda: separation_probability(n, inp.m) * math.factorial(n - 1) ** 2,
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], Any]
    job: Callable[[Any, Tracer], Any]
    check: Callable[[Any, Any, Checks], None]
    probes: bool = False
    # False when the job's work runs in other processes, where the speed
    # sampler cannot run during it (see speed.py).
    sampled: bool = True


WORKLOADS = {
    "pairs-n8": Workload(pairs_inputs, pairs_job, pairs_check),
    "verify-n7": Workload(lambda seed: None, verify_job, verify_check),
    "formulas-large": Workload(large_inputs, large_job, large_check, probes=True),
    "pairs-n8-w2": Workload(lambda seed: None, pairs_w2_job, pairs_w2_check, sampled=False),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer number of one traced job; a layer the job never
    entered reads 0."""
    out: dict[str, float] = {metric: tracer.self_time(span) for metric, span in LAYER_SPANS.items()}
    pairs = tracer.counts.get("oracle.pairs", 0)
    out["oracle.pairs_per_s"] = pairs / out["oracle.pair_counts_s"] if pairs else 0.0
    alpha_ms = [1000 * d for d in tracer.durations("oracle.alpha_table")]
    deciles = statistics.quantiles(alpha_ms, n=10) if len(alpha_ms) > 1 else [0.0] * 9
    out["oracle.alpha_table_p50_ms"] = deciles[4]
    out["oracle.alpha_table_p90_ms"] = deciles[8]
    out["verify.reports"] = tracer.counts.get("verify.reports", 0)
    out["formulas.calls"] = tracer.counts.get("formulas.calls", 0)
    return out
