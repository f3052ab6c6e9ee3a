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
- ``formula:*``: closed form versus brute-force oracle, one row each of the
  table ``_IDENTITIES``; the parity audit runs the bare expressions of its
  rows on wrong-parity instances;
- ``plane:*``: structural sweeps over two-row arrays.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import formulas, oracle, plane
from ._suites import SUITES
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


class IdentityReport:
    """One instance of one identity: its two sides, which pass only on exact
    equality, and the instance's text.

    ``IdentityReport(identity, instance, lhs, rhs)`` takes the whole text.
    The suites pass it in parts, ``instance`` and up to two more after
    ``rhs``, whose concatenation is the text: a key's text, a diagonal type's
    ``" eta=..."``, a block piece.  Many reports share each part, so building
    a report builds no string; the text is joined only when read, through
    ``instance``, ``to_dict`` and ``str``.  Equality and repr go by the
    joined text.
    """

    __slots__ = ("identity", "_head", "lhs", "rhs", "_mid", "_tail")
    __match_args__ = ("identity", "instance", "lhs", "rhs")
    __hash__ = None  # mutable, and equal by value

    def __init__(
        self, identity: str, instance: str, lhs: int | Fraction, rhs: int | Fraction, mid: str = "", tail: str = ""
    ) -> None:
        self.identity = identity
        self._head = instance
        self.lhs = lhs
        self.rhs = rhs
        self._mid = mid
        self._tail = tail

    @property
    def instance(self) -> str:
        return self._head + self._mid + self._tail

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def _fields(self) -> tuple:
        return self.identity, self.instance, self.lhs, self.rhs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "IdentityReport(identity={!r}, instance={!r}, lhs={!r}, rhs={!r})".format(*self._fields())

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


@dataclass(slots=True)
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


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and restore the state it was in
    (on or off) on the way out, also when the body raises.

    The suites build up to hundreds of thousands of reports, numbers and
    tuples that form no reference cycles; with the collector on, every 700
    of them start a generation scan that frees nothing.  Used as a
    decorator, a nested pause finds the collector off and leaves it off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


def _T(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> int:
    """Twice the part-shrinking weighted sum over pair counts one level down."""
    steps = _shrink_steps(alpha_parts, key)
    return sum(twice * _p_seq(n, a2, key2) for _i, _p, twice, a2, key2 in steps)


def _half(x: int) -> int | Fraction:
    """x / 2 exactly: an int when x is even, so doubled sides print as before."""
    return x // 2 if x % 2 == 0 else Fraction(x, 2)


# ---------------------------------------------------------------------------
# the split recurrences: both sides for any composition alpha and block types
# key, with plane-permutation counts read from the oracle


_NO_PLANES = (0, 0)  # the (count, exceedances) of a key that no vertical has


def _eta_rows(n: int) -> list[tuple[str, tuple[tuple[int, int], ...], int]]:
    """Per diagonal type eta of size n, in _partition_list order: its text, its
    odd splits as (index of the split, kappa), and n + 1 - len(eta)."""
    index = {eta: i for i, eta in enumerate(_partition_list(n))}
    refs = {eta: tuple((index[mu], kap) for mu, kap in _odd_refinements(eta)) for eta in index}
    return [(format_type_key(eta), refs[eta], n + 1 - len(eta)) for eta in index]


def _split_rows(n: int, tallies: list[dict], key: SeqKey, length: int, eta_rows: list) -> tuple[list, int]:
    """((split lhs, split rhs), (joint lhs, joint rhs)) at block types key of
    ``length`` parts, per eta of ``eta_rows``, and key's exceedances over all
    eta; ``tallies`` are one composition's plane tallies in that order.  The
    joint split clears the exceedances and splits the diagonal type too."""
    refs = _odd_refinements_seq(key)
    cells = [by_key.get(key, _NO_PLANES) for by_key in tallies]
    rows, total_exc = [], 0
    for (_text, eta_refs, free), by_key, (count, exc) in zip(eta_rows, tallies, cells):
        split_rhs = sum(kap * by_key.get(k2, _NO_PLANES)[0] for k2, kap in refs)
        joint_rhs = split_rhs + sum(kap * cells[i][0] for i, kap in eta_refs)
        rows.append((((n - length) * count - exc, split_rhs), ((free - length) * count, joint_rhs)))
        total_exc += exc
    return rows, total_exc


def _split_long(n: int, alpha_parts: tuple[int, ...], key: SeqKey) -> tuple[int, int]:
    """The split recurrence for a long-cycle diagonal, over pair counts; it
    needs n - len(key) even."""
    lhs = (n + 1 - _seq_len(key)) * _p_seq(n, alpha_parts, key)
    rhs = _p_refined(n, alpha_parts, key) + math.factorial(n - 1) * _z_seq(key)
    return lhs, rhs


# ---------------------------------------------------------------------------
# classic suite: the split recurrences in the one-block case alpha = (n),
# where the block types of the vertical are its cycle type


@_collector_paused()
def classic_reports(max_n: int = 6) -> list[IdentityReport]:
    oracle._require_scale("the classic suite", max_n, _SUITE_LIMITS["classic"])
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        etas = _partition_list(n)
        eta_rows = _eta_rows(n)
        by_eta = oracle._plane_tallies(n, (n,))
        tallies = [by_eta[eta] for eta in etas]
        rows = [_split_rows(n, tallies, (lam,), len(lam), eta_rows)[0] for lam in etas]
        lam_parts = [f" lam={lam_text}" for lam_text, _refs, _free in eta_rows]
        for i, (eta_text, _refs, _free) in enumerate(eta_rows):
            head = f"n={n} eta={eta_text}"
            for j, lam_part in enumerate(lam_parts):
                split, joint = rows[j][i]  # rows[j][i]: vertical type etas[j], diagonal type etas[i]
                reports.append(IdentityReport("split_exceedance", head, *split, lam_part))
                # the same recurrence with the roles of the two types swapped
                reports.append(IdentityReport("split_exceedance_dual", head, *rows[i][j][0], lam_part))
                reports.append(IdentityReport("split_joint", head, *joint, lam_part))
        # long-cycle diagonal specialization, under its parity hypothesis
        for lam in etas:
            if (len(lam) - n) % 2 == 0:
                inst = f"n={n} lam={format_type_key(lam)}"
                reports.append(IdentityReport("split_long", inst, *_split_long(n, (n,), (lam,))))
    return reports


# ---------------------------------------------------------------------------
# block-refined suite


@_collector_paused()
def section3_reports(max_n: int = 6) -> list[IdentityReport]:
    oracle._require_scale("the section3 suite", max_n, _SUITE_LIMITS["section3"])
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        eta_rows = _eta_rows(n)
        eta_parts = [f" eta={eta_text}" for eta_text, _refs, _free in eta_rows]
        fact_n1 = math.factorial(n - 1)
        # identities over block types of products on [n]
        for alpha_parts in _compositions(n):
            head = f"n={n} alpha={format_d_key(alpha_parts)} Lam="
            by_eta = oracle._plane_tallies(n, alpha_parts)
            tallies = [by_eta[eta] for eta in _partition_list(n)]
            pieces = [_block_pieces(p) for p in alpha_parts]
            for key in _partition_sequence_keys(alpha_parts):
                base = head + format_seq_key(key)
                z_key, length = _z_seq(key), _seq_len(key)
                rows, total_exc = _split_rows(n, tallies, key, length, eta_rows)
                # block-refined split with exceedance weights, per diagonal type
                for eta_part, (split, joint) in zip(eta_parts, rows):
                    reports.append(IdentityReport("split_exceedance_sep", base, *split, eta_part))
                    reports.append(IdentityReport("split_joint_sep", base, *joint, eta_part))
                # long-cycle diagonal specialization (parity hypothesis)
                if (length - n) % 2 == 0:
                    reports.append(IdentityReport("split_long_sep", base, *_split_long(n, alpha_parts, key)))
                # total exceedances over all diagonals, two evaluations
                blocks = [by_c[c] for by_c, c in zip(pieces, key)]
                balance = fact_n1 * ((n - length) * z_key - _odd_split_z(blocks, z_key))
                reports.append(IdentityReport("total_exceedance_balance", base, total_exc, balance))
                direct = (n - sum(c.count(1) for c in key)) * fact_n1 * z_key
                reports.append(IdentityReport("total_exceedance_count", base, total_exc, _half(direct)))
        # weighted part-shrinking identities: block types one element up; every
        # side below is doubled, so that it is an integer, and halved in the report.
        # Memos live for one call, as _p_seq may be replaced between calls.
        p_refined = cache(partial(_p_refined, n))
        # " i=... j=..." of block i0 + 1 and part size j + 1, shared by every key
        ij_parts = [[f" i={i0 + 1} j={j}" for j in range(n + 1)] for i0 in range(n + 1)]
        for alpha_parts in _compositions(n + 1):
            head = f"n={n} alpha={format_d_key(alpha_parts)} Lam="
            pieces = [_block_pieces(p) for p in alpha_parts]
            twice_sum = cache(partial(_T, n, alpha_parts))
            for key in _partition_sequence_keys(alpha_parts):
                base = head + format_seq_key(key)
                fz_key, length = fact_n1 * _z_seq(key), _seq_len(key)
                steps = tuple(_shrink_steps(alpha_parts, key))
                refined = [twice * p_refined(a2, key2) for _i, _p, twice, a2, key2 in steps]
                t_refined = sum(kap * twice_sum(k2) for k2, kap in _odd_refinements_seq(key))
                if (length - n) % 2 == 0:
                    t_key = 0
                    for (i0, part, twice, a2, key2), twice_refined in zip(steps, refined):
                        twice_p = twice * _p_seq(n, a2, key2)
                        t_key += twice_p
                        lhs = (n + 1 - length) * twice_p
                        rhs = twice_refined + part * key[i0].count(part) * fz_key
                        ij = ij_parts[i0][part - 1]
                        reports.append(IdentityReport("downarrow_step", base, _half(lhs), _half(rhs), ij))
                    weight = sum(by_c[c][3] for by_c, c in zip(pieces, key))
                    lhs_rec, rhs_rec = _half((n + 1 - length) * t_key), _half(t_refined + fz_key * weight)
                    reports.append(IdentityReport("weighted_sum_recurrence", base, lhs_rec, rhs_rec))
                    reports.append(IdentityReport("weighted_sum_value", base, _half(t_key), fz_key))
                # the exchange identity holds without the parity hypothesis
                lhs_ex = sum(refined)
                reports.append(IdentityReport("downarrow_exchange", base, _half(lhs_ex), _half(t_refined)))
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
    closed = cache(lambda b2, d: formulas.separating_by_d(Composition(b2), d))  # for this call only
    for beta in _compositions(n + 1):
        inst_total = f"n={n} beta={format_d_key(beta)}"
        # (binom(b, 2), beta with block b one element smaller) per block b >= 2
        shrinks = [
            (math.comb(b, 2), beta[:i] + (b - 1,) + beta[i + 1 :]) for i, b in enumerate(beta) if b >= 2
        ]
        if shrinks:
            lhs_tot = sum(coeff * oracle._pairs_alpha_tables(n, b2)[2] for coeff, b2 in shrinks)
            rhs_tot = Fraction(fact_n1 * math.prod(map(math.factorial, beta)), 2)
            reports.append(IdentityReport("block_deletion_total", inst_total, lhs_tot, rhs_tot))
        for d in itertools.product(*(range(1, b + 1) for b in beta)):
            if (sum(d) - n) % 2:
                continue
            inst = f"{inst_total} d={format_d_key(d)}"
            rhs = fact_n1 * math.prod(map(stirling_first, beta, d))
            lhs = sum(coeff * oracle._pairs_alpha_tables(n, b2)[0].get(d, 0) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[oracle]", inst, lhs, rhs))
            lhs = sum(coeff * closed(b2, d) for coeff, b2 in shrinks)
            reports.append(IdentityReport("block_deletion_d[formula]", inst, lhs, rhs))
    return reports


# ---------------------------------------------------------------------------
# pure partition algebra


def _leading_folds(rest: int, parts: tuple[int, ...], folded: list) -> Iterator[tuple[tuple[int, ...], list]]:
    """Each composition of sum(parts) + rest that begins with parts, in
    _compositions order, with its leading blocks folded, in itertools.product
    order, into (key text, z, sum_i S_i z / z_i, weight, length), from the
    fold of parts.  Only the folds on the current path of the walk are alive."""
    yield parts + (rest,), folded
    for b in range(rest - 1, 0, -1):
        yield from _leading_folds(rest - b, parts + (b,), [
            (text + piece + " | ", z * zp, s * zp + sp * z, w + wp, length + lp)
            for text, z, s, w, length in folded
            for piece, zp, sp, wp, lp in _block_pieces(b).values()
        ])


@_collector_paused()
def baserecur_reports(max_n: int = 12) -> list[IdentityReport]:
    """The length-weight recurrence over all block types of all compositions,
    oracle-free: each side is a product or a sum of per-block pieces."""
    oracle._require_scale("the baserecur suite", max_n, _SUITE_LIMITS["baserecur"])
    reports: list[IdentityReport] = []
    append = reports.append
    for total in range(1, max_n + 1):
        for alpha_parts, folded in _leading_folds(total, (), [("", 1, 0, 0, 0)]):
            head = f"N={total} alpha={format_d_key(alpha_parts)} Lam="
            last = tuple(_block_pieces(alpha_parts[-1]).values())
            for text, z, s, w, length in folded:
                for piece, zp, sp, wp, lp in last:
                    z_key = z * zp
                    twice = 2 * (s * zp + sp * z) + z_key * (w + wp)  # the right side, doubled
                    rhs = twice >> 1 if twice & 1 == 0 else Fraction(twice, 2)  # _half, inline
                    lhs = (total - length - lp) * z_key
                    append(IdentityReport("length_weight_base", head, lhs, rhs, text, piece))
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


def _fixed_target(lam: IntegerPartition) -> int:
    """The ordered factorizations of a fixed permutation of type lam."""
    return oracle.count_factorizations(canonical_of_type(lam))


# Every formula:* identity once: name -> (closed form, bare expression or None,
# oracle witness), each called with the args of one instance.  The formulas
# suite reports "formula:" + name; the parity audit runs the bare expression
# on the wrong-parity instances, under name.
_IDENTITIES = {
    "by_cycle_count": (formulas.zagier_stanley, formulas.zagier_stanley_raw, lambda n, k: _zagier_oracle(n).get(k, 0)),
    "expected_k_cycles": (formulas.hultman_expected, None, oracle.expected_k_cycles),
    "two_cycle_factorizations": (formulas.boccara, None, lambda n, k: _fixed_target(IntegerPartition((k, n - k)))),
    "factorization_of_type": (formulas.even_factorization_count, None, _fixed_target),
    "by_cycle_type": (formulas.pairs_by_type, None, lambda lam: _p_seq(lam.n, (lam.n,), (lam.parts,))),
    "separated_total": (
        formulas.separating_total, None, lambda alpha: oracle._pairs_alpha_tables(alpha.n, alpha.parts)[2]
    ),
    "separated_by_alpha_d": (
        formulas.separating_by_d,
        formulas.separating_by_d_raw,
        lambda alpha, d: oracle._pairs_alpha_tables(alpha.n, alpha.parts)[0].get(d, 0),
    ),
    "separated_by_m_and_count": (
        formulas.separated_pairs_by_count, formulas.separated_pairs_by_count_raw, oracle.pairs_separating_prefix
    ),
    "separation_probability": (
        formulas.separation_probability,
        None,
        lambda n, m: Fraction(
            sum(oracle.pairs_separating_prefix(n, m, k) for k in range(1, n + 1)), math.factorial(n - 1) ** 2
        ),
    ),
}


def _formula_instances(n: int) -> Iterator[tuple[str, str, tuple]]:
    """The formulas suite's instances at n, in its order: (name, text, args)."""
    for k in range(1, n + 1):
        yield "by_cycle_count", f"n={n} k={k}", (n, k)
    for k in range(1, n):
        yield "expected_k_cycles", f"n={n} k={k}", (n, k)
    if n % 2 == 0:
        for k in range(1, n):
            yield "two_cycle_factorizations", f"n={n} k={k}", (n, k)
    for lam_parts in _partition_list(n):
        if (n - len(lam_parts)) % 2 == 0:
            text, args = f"n={n} lam={format_type_key(lam_parts)}", (IntegerPartition(lam_parts),)
            yield "factorization_of_type", text, args
            yield "by_cycle_type", text, args
    for alpha_parts in _compositions(n):
        head, alpha = f"n={n} alpha={format_d_key(alpha_parts)}", Composition(alpha_parts)
        yield "separated_total", head, (alpha,)
        for d in itertools.product(*(range(1, p + 1) for p in alpha_parts)):
            yield "separated_by_alpha_d", f"{head} d={format_d_key(d)}", (alpha, d)
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            yield "separated_by_m_and_count", f"n={n} m={m} k={k}", (n, m, k)
    for m in range(2, n + 1):
        yield "separation_probability", f"n={n} m={m}", (n, m)


def _parity_instances(n: int) -> Iterator[tuple[str, str, tuple]]:
    """The wrong-parity instances of the identities with a bare expression at
    n, in the parity audit's order: k first."""
    for k in range(1, n + 1):
        if (n - k) % 2:
            yield "by_cycle_count", f"n={n} k={k}", (n, k)
            for m in range(1, n + 1):
                yield "separated_by_m_and_count", f"n={n} m={m} k={k}", (n, m, k)
    for alpha_parts in _compositions(n):
        head, alpha = f"n={n} alpha={format_d_key(alpha_parts)}", Composition(alpha_parts)
        for d in itertools.product(*(range(1, p + 1) for p in alpha_parts)):
            if (sum(d) - n) % 2:
                yield "separated_by_alpha_d", f"{head} d={format_d_key(d)}", (alpha, d)


@_collector_paused()
def formula_vs_oracle_reports(max_n: int = 7, workers: int = 1) -> list[IdentityReport]:
    oracle._require_scale("the formulas suite", max_n, _SUITE_LIMITS["formulas"])
    reports: list[IdentityReport] = []
    for n in range(1, max_n + 1):
        oracle.product_pair_counts(n, workers)  # the sweep the witnesses read, split over the workers
        for name, text, args in _formula_instances(n):
            closed, _raw, witness = _IDENTITIES[name]
            reports.append(IdentityReport(f"formula:{name}", text, closed(*args), witness(*args)))
    return reports


# ---------------------------------------------------------------------------
# parity audit: what the bare expressions produce on infeasible input


@_collector_paused()
def parity_audit(max_n: int = 6) -> list[ParityAuditRecord]:
    oracle._require_scale("the parity suite", max_n, _SUITE_LIMITS["parity"])
    records: list[ParityAuditRecord] = []
    for n in range(2, max_n + 1):
        for name, text, args in _parity_instances(n):
            _closed, raw, witness = _IDENTITIES[name]
            records.append(ParityAuditRecord(name, text, raw(*args), witness(*args)))
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


@_collector_paused()
def plane_structure_reports(max_n: int = 6, workers: int = 1) -> list[IdentityReport]:
    """Exhaustive structural checks on two-row arrays.

    Over every pair (long cycle word, arbitrary vertical): the diagonal read
    off the array equals the product s∘pi⁻¹; the non-trivial anti-exceedance
    count equals n − C(pi) − (exceedances); the reflected pair satisfies
    Ne(p) + Ne(p') = n + 1 − C(pi) − C(diagonal).  Over every pair of long
    cycles (s, D) and every legal block transposition: the diagonal is
    preserved, and the vertical's cycle count moves by −2, 0, or +2 (so its
    parity is preserved).  Each word is checked against all verticals, and
    against all diagonals times all transpositions, as one array.  The
    failure counts are summed over one chunk of words per worker
    (oracle._chunk_sum).
    """
    oracle._require_scale("the plane suite", max_n, _SUITE_LIMITS["plane"])
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        words = oracle._cycle_words(n)
        cycles = oracle._cycle_rows(n)
        rows = oracle._all_perm_rows(n)
        perms, perms_inv = rows.T.copy(), np.argsort(rows, axis=1).T.copy()
        cc = _cycle_counts_by_rank(n)  # the verticals are in lex order, so cc holds their counts
        # block transpositions over pairs of long cycles (s, D), vertical D⁻¹∘s
        hs = np.array(
            [(i, j, k) for i in range(1, n - 1) for j in range(i, n - 1) for k in range(j + 1, n)]
        )
        diags, diags_inv = cycles.T.copy(), np.argsort(cycles, axis=1).T.copy()

        def bad_counts(lo: int, hi: int) -> np.ndarray:
            # the failures of the three per-array checks, then of the transpositions
            bad = np.zeros(4, dtype=np.int64)
            for word, s_img in zip(words[lo:hi], cycles[lo:hi]):
                bad[:3] += _array_bad_counts(word, s_img, perms, perms_inv, cc, cc)
                if len(hs):
                    bad[3] += _transposition_bad_count(word, diags_inv[s_img], diags, hs, cc)
            return bad

        bad = oracle._chunk_sum(bad_counts, oracle._chunks(len(words), workers), workers).tolist()
        inst = f"n={n} over {len(words) * len(rows)} arrays"
        for name, count in zip(("diagonal_agreement", "ntae_count_formula", "reflection_identity"), bad):
            reports.append(IdentityReport(f"plane:{name}", inst, count, 0))
        if len(hs):
            inst = f"n={n} over {len(words) * len(cycles) * len(hs)} transpositions"
            reports.append(IdentityReport("plane:transposition_action", inst, bad[3], 0))
    return reports


# ---------------------------------------------------------------------------
# runner


# the largest n at which each suite can run: the plane tallies and the plane
# suite's n! permutation rows stop at PLANE_SWEEP_LIMIT, the pair sweep at
# HARD_LIMIT; baserecur's instances grow about 2.7x per N
# (264,499 at N = 13, 5.2M at N = 16)
_SUITE_LIMITS = {
    "classic": oracle.PLANE_SWEEP_LIMIT,
    "section3": oracle.PLANE_SWEEP_LIMIT,
    "baserecur": 14,
    "formulas": oracle.HARD_LIMIT,
    "plane": oracle.PLANE_SWEEP_LIMIT,
    "parity": oracle.HARD_LIMIT,
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


@_collector_paused()
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
        oracle._require_scale(f"the {suite} suite", sizes.get(suite, max_n), _SUITE_LIMITS[suite])
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
        reports += plane_structure_reports(plane_max_n or max_n, workers)
    if "parity" in suites:
        audit += parity_audit(max_n)
    return VerifyRun(reports=reports, audit=audit)
