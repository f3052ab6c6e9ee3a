"""Acceptance suite.

One test per acceptance criterion; each prints a single pass line.  All
comparisons are exact equality: every quantity here is an exact integer or
rational, so there are no tolerances anywhere.

Criteria:

1. every closed form equals the brute-force oracle, exhaustively over its
   whole parameter space, for n <= 7 (and n = 8 under the ``extended``
   marker);
2. the frozen spot values hold, each re-derived by the oracle in the same
   test;
3. the identity suites pass exhaustively: diagonal-type recurrences and
   block-refined recurrences at n <= 6, the pure-algebra recurrence at
   N <= 12, with zero failures;
4. the structural plane-permutation sweeps pass exhaustively at n <= 6;
5. the parity audit finds only zero true counts and lists the documented
   wrong-parity instance;
6. oracle output is byte-identical across worker counts at n <= 6.
"""

import math
import time
from fractions import Fraction

import pytest

from longcycles import (
    Composition,
    IntegerPartition,
    boccara,
    count_factorizations,
    expected_k_cycles,
    hultman_expected,
    pairs_separating_prefix,
    canonical_of_type,
    separating_by_d,
    separating_total,
    separation_probability,
    sweep_pairs,
    verify,
)
from longcycles.oracle import product_pair_counts


def _announce(criterion, detail):
    print(f"[PASS] acceptance criterion {criterion}: {detail}")


def test_criterion_1_formulas_match_oracle_n7():
    started = time.time()
    reports = verify.formula_vs_oracle_reports(7)
    elapsed = time.time() - started
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(str(r) for r in bad[:20])
    _announce(1, f"{len(reports)} formula-vs-oracle instances at n<=7 in {elapsed:.1f}s")


@pytest.mark.extended
def test_criterion_1_formulas_match_oracle_n8_extended():
    import os

    workers = min(8, os.cpu_count() or 1)
    started = time.time()
    product_pair_counts(8, workers=workers)
    reports = verify.formula_vs_oracle_reports(8, workers=workers)
    elapsed = time.time() - started
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(str(r) for r in bad[:20])
    _announce(1, f"extended: {len(reports)} instances at n<=8 in {elapsed:.1f}s")


def test_criterion_2_spot_values():
    # each frozen value is recomputed by the brute-force oracle first
    target = canonical_of_type(IntegerPartition((2, 2)))
    assert count_factorizations(target) == 2
    assert boccara(4, 2) == 2

    alpha = Composition((2, 2))
    oracle_total = sweep_pairs(4, alpha).separated_total()
    assert oracle_total == 8
    assert separating_total(alpha) == 8
    assert 8 == math.factorial(2) * math.factorial(2) * math.factorial(2)

    d_table = sweep_pairs(4, alpha).tables["d_vector"]
    assert d_table["(1,1)"] == 2
    assert separating_by_d(alpha, (1, 1)) == 2

    sep4 = sum(pairs_separating_prefix(4, 2, k) for k in range(1, 5))
    assert Fraction(sep4, 36) == Fraction(11, 18)
    assert separation_probability(4, 2) == Fraction(11, 18)

    sep5 = sum(pairs_separating_prefix(5, 2, k) for k in range(1, 6))
    assert Fraction(sep5, 24**2) == Fraction(1, 2)
    assert separation_probability(5, 2) == Fraction(1, 2)

    assert expected_k_cycles(3, 1) == Fraction(3, 2)
    assert hultman_expected(3, 1) == Fraction(3, 2)
    _announce(2, "six spot values, each independently recomputed by the oracle")


def test_criterion_3_identity_suites():
    classic = verify.classic_reports(6)
    section3 = verify.section3_reports(6)
    base = verify.baserecur_reports(12)
    for name, reports in (("classic", classic), ("section3", section3), ("baserecur", base)):
        bad = [r for r in reports if not r.passed]
        assert not bad, f"{name}: " + "\n".join(str(r) for r in bad[:20])
    _announce(
        3,
        f"{len(classic)} diagonal-type + {len(section3)} block-refined instances at n<=6, "
        f"{len(base)} pure-algebra instances at N<=12, zero failures",
    )


def test_criterion_4_plane_structure():
    reports = verify.plane_structure_reports(6)
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(str(r) for r in bad)
    _announce(4, "diagonal agreement, reflection identity and transposition action at n<=6")


def test_criterion_5_parity_audit():
    audit = verify.parity_audit(6)
    assert audit
    nonzero = [a for a in audit if not a.ok]
    assert not nonzero, "\n".join(str(a) for a in nonzero)
    flagged = [
        a
        for a in audit
        if a.identity == "separated_by_alpha_d" and a.instance == "n=4 alpha=(2,2) d=(1,2)"
    ]
    assert len(flagged) == 1
    assert flagged[0].formula_value == 4
    assert flagged[0].true_count == 0
    _announce(5, f"{len(audit)} wrong-parity instances, all true counts zero, flagged case listed")


def test_criterion_6_worker_determinism(clear_pair_caches):
    texts = {}
    for workers in (1, 3):
        clear_pair_caches()
        outputs = []
        for n in range(2, 7):
            outputs.append(sweep_pairs(n, Composition((1, n - 1)), workers=workers).to_json())
            outputs.append(sweep_pairs(n, workers=workers).to_json())
        texts[workers] = outputs
    assert texts[1] == texts[3]
    _announce(6, "oracle JSON byte-identical for 1 and 3 workers at n<=6")
