"""Machine verification of every counting identity in the package.

Each identity is checked over exhaustively enumerated instances at desk
scale, with both sides evaluated in exact arithmetic; a report passes only on
exact equality.  Counts of plane permutations come from the brute-force
sweeps in :mod:`longcycles.oracle`, so the identity suites double as
end-to-end certificates for the oracle, the partition algebra, and the
formulas at once.

Identity names used in reports:

- ``split_exceedance`` / ``split_exceedance_dual``: the exceedance-weighted
  cycle-splitting recurrences for a fixed diagonal cycle type;
- ``split_joint`` / ``split_long``: the recurrences with the exceedance
  parameter cleared, the latter specialized to a long-cycle diagonal;
- ``*_sep`` variants: the same recurrences refined by the block types of a
  composition alpha; the unrefined ones are their one-block case alpha = (n);
- ``total_exceedance_balance`` / ``total_exceedance_count``: the total number
  of exceedances over all diagonals, computed two ways;
- ``length_weight_base``: the pure partition-algebra recurrence that the
  weighted sums below are measured against;
- ``downarrow_step`` / ``downarrow_exchange`` / ``weighted_sum_recurrence`` /
  ``weighted_sum_value``: the part-shrinking weighted sums and their closed
  evaluation;
- ``block_deletion_d`` / ``block_deletion_total``: the block-deletion
  identities tying refined separation counts to Stirling products;
- ``formula:*``: closed form versus brute-force oracle;
- ``plane:*``: structural sweeps over two-row arrays.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import formulas, oracle, plane
from .errors import ResourceLimitError
from .formulas import _value_str
from .partitions import (
    Composition,
    IntegerPartition,
    _block_pieces,
    _compositions,
    _odd_refinements,
    _odd_refinements_seq,
    _odd_split_z,
    _partition_list,
    _partition_sequence_keys,
    _shrink_steps,
    _z_seq,
    format_d_key,
    format_seq_key,
    format_type_key,
    stirling_first,
)
from .permutations import canonical_of_type

__all__ = [
    "IdentityReport",
    "ParityAuditRecord",
    "VerifyRun",
    "SUITES",
    "run_suites",
    "classic_reports",
    "section3_reports",
    "baserecur_reports",
    "formula_vs_oracle_reports",
    "plane_structure_reports",
    "parity_audit",
]


@dataclass
class IdentityReport:
    identity: str
    instance: str
    lhs: int | Fraction
    rhs: int | Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "instance": self.instance,
            "lhs": _value_str(self.lhs),
            "rhs": _value_str(self.rhs),
            "pass": self.passed,
        }

    def __str__(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        return f"[{mark}] {self.identity} @ {self.instance}: {_value_str(self.lhs)} vs {_value_str(self.rhs)}"


@dataclass
class ParityAuditRecord:
    """A wrong-parity instance: the bare expression's value next to the true
    count, which must be zero."""

    identity: str
    instance: str
    formula_value: int | Fraction
    true_count: int

    @property
    def ok(self) -> bool:
        return self.true_count == 0

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "instance": self.instance,
            "formula_value": _value_str(self.formula_value),
            "true_count": str(self.true_count),
            "ok": self.ok,
        }

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return (
            f"[{mark}] parity violation {self.identity} @ {self.instance}: "
            f"expression gives {_value_str(self.formula_value)}, true count {self.true_count}"
        )


# ---------------------------------------------------------------------------
# cached accessors over the oracle (tuple keys throughout)

SeqKey = tuple[tuple[int, ...], ...]


def _p_seq(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> int:
    """Ordered pairs whose product is alpha-separated with the given block types."""
    return oracle._pairs_alpha_tables(n, alpha_parts)[1].get(key, 0)


def _p_refined(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> int:
    """sum of kappa * _p_seq over the odd refinements of the block types key."""
    return sum(kap * _p_seq(n, alpha_parts, k2) for k2, kap in _odd_refinements_seq(key))


# ---------------------------------------------------------------------------
# small algebra helpers on tuple keys


def _seq_len(key: SeqKey) -> int:
    return sum(len(c) for c in key)


def _block_shrinks(beta: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(binom(b, 2), beta with block b one element smaller) for each block
    b >= 2 of beta."""
    for i0, b in enumerate(beta):
        if b >= 2:
            yield math.comb(b, 2), beta[:i0] + (b - 1,) + beta[i0 + 1 :]


def _T(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> int | Fraction:
    """The part-shrinking weighted sum over pair counts one level down."""
    steps = _shrink_steps(alpha_parts, key)
    return sum(coeff * _p_seq(n, a2, key2) for _i, _p, coeff, a2, key2 in steps)


# ---------------------------------------------------------------------------
# the split recurrences: both sides for any composition alpha and block types
# key, with plane-permutation counts read from the oracle


def _plane_count(by_key: dict[SeqKey, list[int]], key: SeqKey) -> int:
    """All plane permutations counted at key, over every exceedance count."""
    return sum(by_key.get(key, ()))


def _split_exceedance(
    n: int, alpha_parts: tuple[int, ...], eta: tuple[int, ...], key: SeqKey
) -> tuple[int, int]:
    """The exceedance-weighted split recurrence for diagonal cycle type eta."""
    by_key = oracle._plane_tallies(n, alpha_parts)[eta]
    lhs = sum((n - _seq_len(key) - a) * cnt for a, cnt in enumerate(by_key.get(key, ())))
    rhs = sum(kap * _plane_count(by_key, k2) for k2, kap in _odd_refinements_seq(key))
    return lhs, rhs


def _split_joint(
    n: int, alpha_parts: tuple[int, ...], eta: tuple[int, ...], key: SeqKey, split_rhs: int
) -> tuple[int, int]:
    """The split recurrence with the exceedances cleared, splitting the
    diagonal type as well; ``split_rhs`` is _split_exceedance's right side."""
    by_eta = oracle._plane_tallies(n, alpha_parts)
    lhs = (n + 1 - _seq_len(key) - len(eta)) * _plane_count(by_eta[eta], key)
    rhs = split_rhs + sum(kap * _plane_count(by_eta[mu], key) for mu, kap in _odd_refinements(eta))
    return lhs, rhs


def _split_long(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> tuple[int, int]:
    """The split recurrence for a long-cycle diagonal, over pair counts; it
    needs n - len(key) even."""
    lhs = (n + 1 - _seq_len(key)) * _p_seq(n, alpha_parts, key)
    rhs = _p_refined(n, alpha_parts, key) + math.factorial(n - 1) * _z_seq(key)
    return lhs, rhs


# ---------------------------------------------------------------------------
# classic suite: the split recurrences in the one-block case alpha = (n),
# where the block types of the vertical are its cycle type


def classic_reports(max_n: int = 6) -> list[IdentityReport]:
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        one = (n,)
        etas = _partition_list(n)
        splits = {(eta, lam): _split_exceedance(n, one, eta, (lam,)) for eta in etas for lam in etas}
        for eta in etas:
            for lam in etas:
                inst = f"n={n} eta={format_type_key(eta)} lam={format_type_key(lam)}"
                reports.append(IdentityReport("split_exceedance", inst, *splits[eta, lam]))
                # the same recurrence with the roles of the two types swapped
                reports.append(IdentityReport("split_exceedance_dual", inst, *splits[lam, eta]))
                joint = _split_joint(n, one, eta, (lam,), splits[eta, lam][1])
                reports.append(IdentityReport("split_joint", inst, *joint))
        # long-cycle diagonal specialization, under its parity hypothesis
        for lam in etas:
            if (len(lam) - n) % 2 == 0:
                inst = f"n={n} lam={format_type_key(lam)}"
                reports.append(IdentityReport("split_long", inst, *_split_long(n, one, (lam,))))
    return reports


# ---------------------------------------------------------------------------
# block-refined suite


def _alpha_instances(n: int) -> Iterator[tuple[tuple[int, ...], SeqKey]]:
    for alpha_parts in _compositions(n):
        for key in _partition_sequence_keys(alpha_parts):
            yield alpha_parts, key


def section3_reports(max_n: int = 6) -> list[IdentityReport]:
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        etas = _partition_list(n)
        fact_n1 = math.factorial(n - 1)
        # identities over block types of products on [n]
        for alpha_parts, key in _alpha_instances(n):
            base = f"n={n} alpha={format_d_key(alpha_parts)} Lam={format_seq_key(key)}"
            z_key = _z_seq(key)
            by_eta = oracle._plane_tallies(n, alpha_parts)
            # block-refined split with exceedance weights, per diagonal type
            for eta in etas:
                inst = f"{base} eta={format_type_key(eta)}"
                split = _split_exceedance(n, alpha_parts, eta, key)
                reports.append(IdentityReport("split_exceedance_sep", inst, *split))
                joint = _split_joint(n, alpha_parts, eta, key, split[1])
                reports.append(IdentityReport("split_joint_sep", inst, *joint))
            # long-cycle diagonal specialization (parity hypothesis)
            if (_seq_len(key) - n) % 2 == 0:
                reports.append(IdentityReport("split_long_sep", base, *_split_long(n, alpha_parts, key)))
            # total exceedances over all diagonals, two evaluations
            total_exc = sum(a * cnt for eta in etas for a, cnt in enumerate(by_eta[eta].get(key, ())))
            balance = (n - _seq_len(key)) * fact_n1 * z_key
            blocks = [_block_pieces(p)[c] for p, c in zip(alpha_parts, key)]
            balance -= fact_n1 * _odd_split_z(blocks, z_key)
            reports.append(IdentityReport("total_exceedance_balance", base, total_exc, balance))
            direct = Fraction(n - sum(c.count(1) for c in key), 2) * fact_n1 * z_key
            reports.append(IdentityReport("total_exceedance_count", base, total_exc, direct))
        # weighted part-shrinking identities: block types one element up
        for alpha_parts, key in _alpha_instances(n + 1):
            base = f"n={n} alpha={format_d_key(alpha_parts)} Lam={format_seq_key(key)}"
            refs = _odd_refinements_seq(key)
            z_key = _z_seq(key)
            t_refined = sum(kap * _T(n, alpha_parts, k2) for k2, kap in refs)
            if (_seq_len(key) - n) % 2 == 0:
                for i0, part, coeff, a2, key2 in _shrink_steps(alpha_parts, key):
                    inst = f"{base} i={i0 + 1} j={part - 1}"
                    lhs = (n + 1 - _seq_len(key)) * coeff * _p_seq(n, a2, key2)
                    rhs = coeff * _p_refined(n, a2, key2)
                    rhs += Fraction(part * key[i0].count(part), 2) * fact_n1 * z_key
                    reports.append(IdentityReport("downarrow_step", inst, lhs, rhs))
                t_key = _T(n, alpha_parts, key)
                lhs_rec = (n + 1 - _seq_len(key)) * t_key
                weight = sum(_block_pieces(p)[c][3] for p, c in zip(alpha_parts, key))
                rhs_rec = t_refined + Fraction(fact_n1 * z_key, 2) * weight
                reports.append(IdentityReport("weighted_sum_recurrence", base, lhs_rec, rhs_rec))
                reports.append(IdentityReport("weighted_sum_value", base, t_key, fact_n1 * z_key))
            # the exchange identity holds without the parity hypothesis
            steps = _shrink_steps(alpha_parts, key)
            lhs_ex = sum(coeff * _p_refined(n, a2, key2) for _i, _p, coeff, a2, key2 in steps)
            reports.append(IdentityReport("downarrow_exchange", base, lhs_ex, t_refined))
        reports += block_deletion_reports(n)
    return reports


def block_deletion_reports(n: int) -> list[IdentityReport]:
    """The block-deletion identities at size n, the refined one certified from
    both the oracle's tables and the closed form.

    The d-summed form needs a block of size >= 2: with every block a
    singleton there is no d of the right parity, and the closed right side no
    longer applies.
    """
    reports: list[IdentityReport] = []
    fact_n1 = math.factorial(n - 1)
    for beta in _compositions(n + 1):
        inst_total = f"n={n} beta={format_d_key(beta)}"
        shrinks = list(_block_shrinks(beta))
        if max(beta) >= 2:
            lhs_tot = sum(coeff * oracle._pairs_alpha_tables(n, b2)[2] for coeff, b2 in shrinks)
            rhs_tot = Fraction(fact_n1, 2)
            for b in beta:
                rhs_tot *= math.factorial(b)
            reports.append(IdentityReport("block_deletion_total", inst_total, lhs_tot, rhs_tot))
        for d in itertools.product(*(range(1, b + 1) for b in beta)):
            if (sum(d) - n) % 2:
                continue
            inst = f"{inst_total} d={format_d_key(d)}"
            rhs = fact_n1
            for b, di in zip(beta, d):
                rhs *= stirling_first(b, di)
            lhs = sum(coeff * oracle._pairs_alpha_tables(n, b2)[0].get(d, 0) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[oracle]", inst, lhs, rhs))
            lhs = sum(coeff * formulas.separating_by_d(Composition(b2), d) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[formula]", inst, lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# pure partition algebra


def baserecur_reports(max_n: int = 12) -> list[IdentityReport]:
    """The length-weight recurrence over all block types of all compositions,
    oracle-free: each side is a product or a sum of per-block pieces."""
    reports: list[IdentityReport] = []
    for total in range(1, max_n + 1):
        for alpha_parts in _compositions(total):
            prefix = f"N={total} alpha={format_d_key(alpha_parts)} Lam="
            for blocks in itertools.product(*(_block_pieces(p).values() for p in alpha_parts)):
                texts, zs, _s, ws, lens = zip(*blocks)
                z_key = math.prod(zs)
                lhs = (total - sum(lens)) * z_key
                twice = 2 * _odd_split_z(blocks, z_key) + z_key * sum(ws)
                rhs = twice // 2 if twice % 2 == 0 else Fraction(twice, 2)
                reports.append(IdentityReport("length_weight_base", prefix + " | ".join(texts), lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# closed forms versus the brute-force oracle


@cache
def _zagier_oracle(n: int) -> dict[int, int]:
    """#{long cycles s : (1 2 ... n) ∘ s has k cycles}: the fixed-diagonal
    tally at D = (1 2 ... n)⁻¹, whose verticals D⁻¹∘s are these products."""
    counts: dict[int, int] = {}
    for (lam,), by_a in oracle._diag_tallies(n, (n, *range(1, n)), (n,)).items():
        counts[len(lam)] = counts.get(len(lam), 0) + sum(by_a)
    return counts


def formula_vs_oracle_reports(max_n: int = 7, workers: int = 1) -> list[IdentityReport]:
    reports: list[IdentityReport] = []
    for n in range(1, max_n + 1):
        oracle.product_pair_counts(n, workers)
        fact_sq = math.factorial(n - 1) ** 2
        for k in range(1, n + 1):
            reports.append(
                IdentityReport(
                    "formula:by_cycle_count",
                    f"n={n} k={k}",
                    formulas.zagier_stanley(n, k),
                    _zagier_oracle(n).get(k, 0),
                )
            )
        for k in range(1, n):
            reports.append(
                IdentityReport(
                    "formula:expected_k_cycles",
                    f"n={n} k={k}",
                    formulas.hultman_expected(n, k),
                    oracle.expected_k_cycles(n, k),
                )
            )
        if n % 2 == 0:
            for k in range(1, n):
                target = canonical_of_type(IntegerPartition((max(k, n - k), min(k, n - k))))
                reports.append(
                    IdentityReport(
                        "formula:two_cycle_factorizations",
                        f"n={n} k={k}",
                        formulas.boccara(n, k),
                        oracle.count_factorizations(target),
                    )
                )
        for lam_parts in _partition_list(n):
            if (n - len(lam_parts)) % 2:
                continue
            lam = IntegerPartition(lam_parts)
            efc = formulas.even_factorization_count(lam)
            reports.append(
                IdentityReport(
                    "formula:factorization_of_type",
                    f"n={n} lam={format_type_key(lam_parts)}",
                    efc,
                    oracle.count_factorizations(canonical_of_type(lam)),
                )
            )
            reports.append(
                IdentityReport(
                    "formula:by_cycle_type",
                    f"n={n} lam={format_type_key(lam_parts)}",
                    formulas.pairs_by_type(lam),
                    _p_seq(n, (n,), (lam_parts,)),
                )
            )
        for alpha_parts in _compositions(n):
            alpha = Composition(alpha_parts)
            reports.append(
                IdentityReport(
                    "formula:separated_total",
                    f"n={n} alpha={format_d_key(alpha_parts)}",
                    formulas.separating_total(alpha),
                    oracle._pairs_alpha_tables(n, alpha_parts)[2],
                )
            )
            for d in itertools.product(*(range(1, p + 1) for p in alpha_parts)):
                reports.append(
                    IdentityReport(
                        "formula:separated_by_alpha_d",
                        f"n={n} alpha={format_d_key(alpha_parts)} d={format_d_key(d)}",
                        formulas.separating_by_d(alpha, d),
                        oracle._pairs_alpha_tables(n, alpha_parts)[0].get(d, 0),
                    )
                )
        for m in range(1, n + 1):
            for k in range(1, n + 1):
                reports.append(
                    IdentityReport(
                        "formula:separated_by_m_and_count",
                        f"n={n} m={m} k={k}",
                        formulas.separated_pairs_by_count(n, m, k),
                        oracle.pairs_separating_prefix(n, m, k),
                    )
                )
        for m in range(2, n + 1):
            true_sep = sum(oracle.pairs_separating_prefix(n, m, k) for k in range(1, n + 1))
            reports.append(
                IdentityReport(
                    "formula:separation_probability",
                    f"n={n} m={m}",
                    formulas.separation_probability(n, m),
                    Fraction(true_sep, fact_sq),
                )
            )
    return reports


# ---------------------------------------------------------------------------
# parity audit: what the bare expressions produce on infeasible input


def parity_audit(max_n: int = 6) -> list[ParityAuditRecord]:
    records: list[ParityAuditRecord] = []
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            if (n - k) % 2 == 0:
                continue
            records.append(
                ParityAuditRecord(
                    "by_cycle_count",
                    f"n={n} k={k}",
                    formulas.zagier_stanley_raw(n, k),
                    _zagier_oracle(n).get(k, 0),
                )
            )
            for m in range(1, n + 1):
                records.append(
                    ParityAuditRecord(
                        "separated_by_m_and_count",
                        f"n={n} m={m} k={k}",
                        formulas.separated_pairs_by_count_raw(n, m, k),
                        oracle.pairs_separating_prefix(n, m, k),
                    )
                )
        for alpha_parts in _compositions(n):
            alpha = Composition(alpha_parts)
            for d in itertools.product(*(range(1, p + 1) for p in alpha_parts)):
                if (sum(d) - n) % 2 == 0:
                    continue
                records.append(
                    ParityAuditRecord(
                        "separated_by_alpha_d",
                        f"n={n} alpha={format_d_key(alpha_parts)} d={format_d_key(d)}",
                        formulas.separating_by_d_raw(alpha, d),
                        oracle._pairs_alpha_tables(n, alpha_parts)[0].get(d, 0),
                    )
                )
    return records


# ---------------------------------------------------------------------------
# structural sweeps over two-row arrays


def _cycle_counts_by_rank(n: int) -> np.ndarray:
    """``cc[r]``: the number of cycles of the permutation of lex rank r,
    read off its row of _min_lengths (one nonzero entry per cycle)."""
    sig, rows = oracle._signatures(n)
    return (rows > 0).sum(axis=1)[sig]


def _array_bad_counts(
    word: np.ndarray, s_img: np.ndarray, perms: np.ndarray, perms_inv: np.ndarray,
    c_pi: np.ndarray, cc: np.ndarray,
) -> tuple[int, int, int]:
    """Failures of the three per-array checks over the arrays (word, pi) for
    every pi in ``perms`` (stored element first, see plane.py); ``s_img`` is
    the word's one-line image, ``c_pi`` the verticals' cycle counts and
    ``cc`` the table of _cycle_counts_by_rank."""
    n = len(word)
    diag = s_img[perms_inv]  # s∘pi⁻¹ by composition
    diag_bad = np.any(diag != plane._diagonals_from_pairs(word, perms), axis=0).sum()
    a, ne = plane._exceedance_counts(word, perms)
    ne_bad = (ne != n - c_pi - a).sum()
    # the reflected array (s⁻¹, D⁻¹), with D⁻¹ = pi∘s⁻¹
    refl_word = np.concatenate((word[:1], word[:0:-1]))
    _, ne_refl = plane._exceedance_counts(refl_word, perms[np.argsort(s_img)])
    refl_bad = (ne + ne_refl != n + 1 - c_pi - cc[oracle._lex_rank(n, diag)]).sum()
    return int(diag_bad), int(ne_bad), int(refl_bad)


def _transposition_bad_count(
    word: np.ndarray, verticals: np.ndarray, diags: np.ndarray, hs: np.ndarray, cc: np.ndarray
) -> int:
    """Failures over every block transposition h in ``hs`` of every array
    (word, verticals[:, r]) whose diagonal is diags[:, r]: the transposed
    array must keep that diagonal, and its vertical's cycle count, read from
    the table ``cc`` of _cycle_counts_by_rank, moves by -2, 0 or 2."""
    n = len(word)
    new_words, new_verticals = plane._transposed(word, verticals, hs)
    moved = np.any(plane._diagonals_from_pairs(new_words, new_verticals) != diags[:, None], axis=0)
    delta = cc[oracle._lex_rank(n, new_verticals)] - cc[oracle._lex_rank(n, verticals)]
    return int((moved | ~np.isin(delta, (-2, 0, 2))).sum())


def plane_structure_reports(max_n: int = 6) -> list[IdentityReport]:
    """Exhaustive structural checks on two-row arrays.

    Over every pair (long cycle word, arbitrary vertical): the diagonal read
    off the array equals the product s∘pi⁻¹; the non-trivial anti-exceedance
    count equals n − C(pi) − (exceedances); the reflected pair satisfies
    Ne(p) + Ne(p') = n + 1 − C(pi) − C(diagonal).  Over every pair of long
    cycles (s, D) and every legal block transposition: the diagonal is
    preserved, and the vertical's cycle count moves by −2, 0, or +2 (so its
    parity is preserved).  Each word is checked against all verticals, and
    against all diagonals times all transpositions, as one array.
    """
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        words = oracle._cycle_words(n)
        cycles = oracle._cycle_rows(n)
        rows = oracle._all_perm_rows(n)
        perms, perms_inv = rows.T.copy(), np.argsort(rows, axis=1).T.copy()
        cc = _cycle_counts_by_rank(n)  # the verticals are in lex order, so cc holds their counts
        bad = np.zeros(3, dtype=np.int64)
        for word, s_img in zip(words, cycles):
            bad += _array_bad_counts(word, s_img, perms, perms_inv, cc, cc)
        inst = f"n={n} over {len(words) * len(rows)} arrays"
        for name, count in zip(("diagonal_agreement", "ntae_count_formula", "reflection_identity"), bad):
            reports.append(IdentityReport(f"plane:{name}", inst, int(count), 0))
        # block transpositions over pairs of long cycles (s, D), vertical D⁻¹∘s
        if n < 3:
            continue
        hs = np.array(
            [(i, j, k) for i in range(1, n - 1) for j in range(i, n - 1) for k in range(j + 1, n)]
        )
        diags, diags_inv = cycles.T.copy(), np.argsort(cycles, axis=1).T.copy()
        trans_bad = sum(
            _transposition_bad_count(word, diags_inv[s_img], diags, hs, cc)
            for word, s_img in zip(words, cycles)
        )
        inst = f"n={n} over {len(words) * len(cycles) * len(hs)} transpositions"
        reports.append(IdentityReport("plane:transposition_action", inst, trans_bad, 0))
    return reports


# ---------------------------------------------------------------------------
# runner


SUITES = ("classic", "section3", "baserecur", "formulas", "plane", "parity")

# the largest n at which each suite can run: the plane tallies and the plane
# suite's n! permutation rows stop at PLANE_SWEEP_LIMIT, the unforced pair
# sweep at PAIR_SWEEP_FREE_LIMIT; baserecur's instances grow about 2.7x per N
# (264,499 at N = 13, 5.2M at N = 16)
_SUITE_LIMITS = {
    "classic": oracle.PLANE_SWEEP_LIMIT,
    "section3": oracle.PLANE_SWEEP_LIMIT,
    "baserecur": 14,
    "formulas": oracle.PAIR_SWEEP_FREE_LIMIT,
    "plane": oracle.PLANE_SWEEP_LIMIT,
    "parity": oracle.PAIR_SWEEP_FREE_LIMIT,
}


@dataclass
class VerifyRun:
    reports: list[IdentityReport]
    audit: list[ParityAuditRecord]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.reports) and all(a.ok for a in self.audit)

    def failures(self) -> list[str]:
        out = [str(r) for r in self.reports if not r.passed]
        out += [str(a) for a in self.audit if not a.ok]
        return out

    def summary_lines(self) -> list[str]:
        by_identity: dict[str, tuple[int, int]] = {}
        for r in self.reports:
            done, bad = by_identity.get(r.identity, (0, 0))
            by_identity[r.identity] = (done + 1, bad + (0 if r.passed else 1))
        lines = []
        for name in sorted(by_identity):
            done, bad = by_identity[name]
            state = "ok" if bad == 0 else f"{bad} FAILED"
            lines.append(f"{name}: {done} instances, {state}")
        if self.audit:
            bad = sum(0 if a.ok else 1 for a in self.audit)
            state = "all true counts zero" if bad == 0 else f"{bad} NONZERO TRUE COUNTS"
            lines.append(f"parity audit: {len(self.audit)} wrong-parity instances, {state}")
        return lines

    def to_dict(self) -> dict:
        return {
            "reports": [r.to_dict() for r in self.reports],
            "audit": [a.to_dict() for a in self.audit],
            "ok": self.ok,
        }

    def write_json(self, out: TextIO) -> None:
        """Write ``json.dumps(self.to_dict(), sort_keys=True)`` and a newline,
        holding the dicts of 1024 reports at a time, not all of them."""
        encode, chunk = json.JSONEncoder(sort_keys=True).encode, 1024
        audit = encode([a.to_dict() for a in self.audit])
        out.write(f'{{"audit": {audit}, "ok": {encode(self.ok)}, "reports": [')
        for lo in range(0, len(self.reports), chunk):
            dicts = [r.to_dict() for r in self.reports[lo : lo + chunk]]
            out.write((", " if lo else "") + encode(dicts)[1:-1])  # the items, without [ and ]
        out.write("]}\n")


def run_suites(
    suites: Sequence[str] = SUITES,
    max_n: int = 6,
    *,
    baserecur_max_n: int = 12,
    plane_max_n: int | None = None,
    workers: int = 1,
) -> VerifyRun:
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    sizes = {"baserecur": baserecur_max_n, "plane": plane_max_n or max_n}  # the n each suite runs at
    for suite in suites:
        n, limit = sizes.get(suite, max_n), _SUITE_LIMITS[suite]
        if n > limit:
            raise ResourceLimitError(f"the {suite} suite cannot run at n={n}: it stops at n={limit}")
    reports: list[IdentityReport] = []
    audit: list[ParityAuditRecord] = []
    if "classic" in suites:
        reports += classic_reports(max_n)
    if "section3" in suites:
        reports += section3_reports(max_n)
    if "baserecur" in suites:
        reports += baserecur_reports(baserecur_max_n)
    if "formulas" in suites:
        reports += formula_vs_oracle_reports(max_n, workers)
    if "plane" in suites:
        reports += plane_structure_reports(plane_max_n or max_n)
    if "parity" in suites:
        audit += parity_audit(max_n)
    return VerifyRun(reports=reports, audit=audit)
