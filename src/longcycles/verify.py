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

classic, section3 and baserecur compute their sides as int64 columns
(:mod:`longcycles._columns`), with no Python loop per instance, and keep
their reports in compact blocks (_ReportBlock).  The plane suite's kernels
are in :mod:`longcycles._plane_checks`.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import TextIO

import numpy as np

from . import formulas, oracle, plane
from ._suites import SUITES
from .formulas import _value_str
from .partitions import (
    Composition,
    IntegerPartition,
    _compositions,
    _partition_list,
    format_d_key,
    format_type_key,
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


@dataclass(slots=True)
class IdentityReport:
    """One instance of one identity: its two sides, which pass only on exact
    equality, and the instance's text.

    The classic, section3 and baserecur suites keep their reports as
    columns (``_ReportBlock``) and build one only when it is indexed or
    iterated: its sides are then Python ints, or a ``Fraction`` when one is
    a half.
    """

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


@dataclass(slots=True, eq=False)
class _ReportBlock:
    """The reports of one suite at one n (all of baserecur) as columns, in
    order: ``codes``, each report's identity as an index into ``names``;
    ``twice_lhs`` and ``twice_rhs``, its two sides doubled as int64, so that
    a half on either side is exact; and ``texts``, each instance's text.  A
    report passes on ``twice_lhs == twice_rhs``.  Counts and failures come
    from the columns; an IdentityReport is built only when one is indexed or
    iterated, and the JSON dicts of 1024 reports at a time straight from the
    columns."""

    names: tuple[str, ...]
    codes: np.ndarray
    twice_lhs: np.ndarray
    twice_rhs: np.ndarray
    texts: Sequence[str]

    def __len__(self) -> int:
        return len(self.codes)

    def failed(self) -> np.ndarray:
        """The indices of the reports that fail, in order."""
        return np.flatnonzero(self.twice_lhs != self.twice_rhs)

    def tallies(self) -> Iterator[tuple[str, int, int]]:
        """(identity, reports, failures) per name."""
        size = len(self.names)
        done, bad = np.bincount(self.codes, minlength=size), np.bincount(self.codes[self.failed()], minlength=size)
        return zip(self.names, done.tolist(), bad.tolist())

    def _report(self, code: int, text: str, twice_lhs: int, twice_rhs: int) -> IdentityReport:
        return IdentityReport(self.names[code], text, _half(twice_lhs), _half(twice_rhs))

    def __getitem__(self, i: int) -> IdentityReport:
        return self._report(int(self.codes[i]), self.texts[i], int(self.twice_lhs[i]), int(self.twice_rhs[i]))

    def _chunks(self, size: int) -> Iterator[tuple[list[int], Iterable, list[int], list[int]]]:
        """The codes, the texts and the sides as Python ints of ``size``
        reports at a time, so that no list over the whole column is held."""
        texts = iter(self.texts)
        for lo in range(0, len(self), size):
            hi = lo + size
            columns = self.codes[lo:hi], self.twice_lhs[lo:hi], self.twice_rhs[lo:hi]
            codes, lhs, rhs = (column.tolist() for column in columns)
            yield codes, itertools.islice(texts, size), lhs, rhs

    def __iter__(self) -> Iterator[IdentityReport]:
        for chunk in self._chunks(1024):
            yield from map(self._report, *chunk)

    def dicts(self, size: int) -> Iterator[list[dict]]:
        """``[r.to_dict() for r in chunk]`` of each chunk of ``size`` reports."""
        names = self.names
        for codes, texts, lhs, rhs in self._chunks(size):
            yield [
                {"identity": names[code], "instance": text, "lhs": _half_text(left),
                 "rhs": _half_text(right), "pass": left == right}
                for code, text, left, right in zip(codes, texts, lhs, rhs)
            ]


class _Reports(Sequence):
    """A read-only sequence of reports, kept as parts in order: tuples of
    records and _ReportBlocks.  ``+`` with a list or another _Reports joins
    the parts, copying no block; iterating or indexing a block builds its
    reports one at a time."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple | _ReportBlock] = ()) -> None:
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        for part in self.parts:
            if 0 <= i < len(part):
                return part[i]
            i -= len(part)
        raise IndexError("report index out of range")

    def __iter__(self) -> Iterator:
        return itertools.chain.from_iterable(self.parts)

    def __add__(self, other: object) -> _Reports:
        if isinstance(other, _Reports):
            return _Reports(self.parts + other.parts)
        if isinstance(other, list):
            return _Reports((*self.parts, tuple(other)))
        return NotImplemented

    def __radd__(self, other: object) -> _Reports:
        if isinstance(other, list):
            return _Reports((tuple(other), *self.parts))
        return NotImplemented


# ---------------------------------------------------------------------------
# exact halves


def _half(x: int) -> int | Fraction:
    """x / 2 exactly: an int when x is even, so doubled sides print as before."""
    return x // 2 if x % 2 == 0 else Fraction(x, 2)


def _half_text(x: int) -> str:
    """_value_str(_half(x)): x / 2 as text."""
    return str(x >> 1) if x & 1 == 0 else f"{x}/2"


# ---------------------------------------------------------------------------
# classic suite: the split recurrences in the one-block case alpha = (n),
# where the block types of the vertical are its cycle type; with section3 and
# baserecur computed as int64 columns by _columns, which the first of them
# to run imports, so that a process that never runs them does not load it


def classic_reports(max_n: int = 6, workers: int = 1) -> _Reports:
    """The classic suite at n = 2..max_n, one _ReportBlock per n."""
    oracle._require_scale("the classic suite", max_n, _SUITE_LIMITS["classic"])
    from . import _columns

    columns, _moves = _columns._suite_keys(max_n)
    blocks = []
    for n in range(2, max_n + 1):
        oracle._plane_totals(n, workers)  # the plane sweep the columns read, split over the workers
        blocks.append(_ReportBlock(*_columns._classic_block(n, columns)))
    return _Reports(blocks)


# ---------------------------------------------------------------------------
# block-refined suite


def section3_reports(max_n: int = 6, workers: int = 1) -> _Reports:
    """The section3 suite at n = 2..max_n: per n one _ReportBlock, then the
    block of the block-deletion reports at n."""
    oracle._require_scale("the section3 suite", max_n, _SUITE_LIMITS["section3"])
    from . import _columns

    columns, moves = _columns._suite_keys(max_n)
    parts: list = []
    for n in range(2, max_n + 1):
        oracle._plane_totals(n, workers)  # the plane sweep the columns read, split over the workers
        parts += (_ReportBlock(*_columns._section3_block(n, columns, moves)), block_deletion_reports(n))
    return _Reports(parts)


def block_deletion_reports(n: int) -> _ReportBlock:
    """The block-deletion identities at size n, the refined one certified from
    both the oracle's tables and the closed form, as one _ReportBlock
    (_columns._block_deletion_block)."""
    from . import _columns

    return _ReportBlock(*_columns._block_deletion_block(n))


# ---------------------------------------------------------------------------
# pure partition algebra


def baserecur_reports(max_n: int = 12) -> _Reports:
    """The length-weight recurrence over all block types of all compositions
    of every N up to max_n, oracle-free: each side is a product or a sum of
    per-block pieces, computed as int64 columns (_baserecur_columns) after a
    bound in Python ints shows that they are exact (_require_int64).

    A read-only sequence of reports (len, indexing, iteration, unpacking,
    ``+`` with a list), which holds one _ReportBlock: each IdentityReport
    is built only when it is read."""
    oracle._require_scale("the baserecur suite", max_n, _SUITE_LIMITS["baserecur"])
    from . import _columns

    _columns._require_int64(max_n)
    twice_lhs, twice_rhs, sizes = _columns._baserecur_columns(max_n)
    codes = np.zeros(len(twice_lhs), dtype=np.int8)
    texts = _columns._BlockTypeTexts(max_n, sizes)
    return _Reports((_ReportBlock(("length_weight_base",), codes, twice_lhs, twice_rhs, texts),))


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
    "by_cycle_type": (
        formulas.pairs_by_type, None, lambda lam: oracle._pairs_alpha_tables(lam.n, (lam.n,))[1].get((lam.parts,), 0)
    ),
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
    read off its length row (one nonzero entry per cycle)."""
    sig, rows = oracle._signatures(n)
    return (rows > 0).sum(axis=1)[sig]


# arrays (word x vertical columns) per call of the plane checks, in at most
# 16 words: 8 words at n = 7, 16 at n = 5 and 6, every word below.  A call
# keeps a few (words, n!) int64 terms and, over the 25,200 transpositions of
# each word at n = 7, about 25 bytes a transposition: 5 MB at 8 words.  16
# words at n = 7 were no faster, nor 56 words at n = 6, which held 2 MiB more
# than 16
_PLANE_ARRAYS = 8 * math.factorial(7)


def plane_structure_reports(max_n: int = 6, workers: int = 1) -> list[IdentityReport]:
    """Exhaustive structural checks on two-row arrays.

    Over every pair (long cycle word, arbitrary vertical): the diagonal read
    off the array equals the product s∘pi⁻¹; the non-trivial anti-exceedance
    count equals n − C(pi) − (exceedances); the reflected pair satisfies
    Ne(p) + Ne(p') = n + 1 − C(pi) − C(diagonal).  Over every pair of long
    cycles (s, D) and every legal block transposition: the diagonal is
    preserved, and the vertical's cycle count moves by −2, 0, or +2 (so its
    parity is preserved).  A batch of words (_PLANE_ARRAYS) is checked
    against all verticals, and against all diagonals times all
    transpositions, by the kernels of _plane_checks, as arrays with a
    leading word axis.  The failure counts are summed over one chunk of
    words per worker (oracle._chunk_sum); the batches lie inside a chunk.
    The tables of n come from oracle._shared, which a run shares.
    """
    oracle._require_scale("the plane suite", max_n, _SUITE_LIMITS["plane"])
    from . import _plane_checks as checks
    reports: list[IdentityReport] = []
    for n in range(2, max_n + 1):
        # every table that does not depend on the words, built before the fork
        words, cycles = oracle._shared(oracle._cycle_words, n), oracle._shared(oracle._long_cycles, n)
        rows = oracle._shared(oracle._all_perm_rows, n)
        batch = min(16, max(1, _PLANE_ARRAYS // len(rows)))  # words per call of the checks
        cc = _cycle_counts_by_rank(n)  # the verticals are in lex order, so cc holds their counts
        cycle_table = checks._cycle_table(rows.T)
        arrays = checks._array_tables(rows.T, np.argsort(rows, axis=1).T, cycle_table, cc, cycle_table, cc)
        # block transpositions over pairs of long cycles (s, D), vertical D⁻¹∘s
        moves = plane._moves(n)
        diags, diags_inv = cycles.T.copy(), np.argsort(cycles, axis=1).T.copy()
        transpositions = checks._transposition_tables(diags, moves, cc)

        def bad_counts(lo: int, hi: int) -> np.ndarray:
            # the failures of the three per-array checks, then of the transpositions
            bad = np.zeros(4, dtype=np.int64)
            for start in range(lo, hi, batch):
                part, s_img = words[start : min(start + batch, hi)], cycles[start : min(start + batch, hi)]
                bad[:3] += checks._array_bad_counts(part, s_img, arrays)
                if moves.src.size:
                    bad[3] += checks._transposition_bad_count(part, diags_inv.take(s_img, axis=0), transpositions)
            return bad

        bad = oracle._chunk_sum(bad_counts, oracle._chunks(len(words), workers), workers).tolist()
        inst = f"n={n} over {len(words) * len(rows)} arrays"
        for name, count in zip(("diagonal_agreement", "ntae_count_formula", "reflection_identity"), bad):
            reports.append(IdentityReport(f"plane:{name}", inst, count, 0))
        if moves.src.size:
            inst = f"n={n} over {len(words) * len(cycles) * moves.src.shape[1]} transpositions"
            reports.append(IdentityReport("plane:transposition_action", inst, bad[3], 0))
    return reports


# ---------------------------------------------------------------------------
# runner


# the largest n at which each suite can run: the plane tallies and the plane
# suite's n! permutation rows stop at PLANE_SWEEP_LIMIT, the pair sweep at
# HARD_LIMIT; baserecur's columns stay exact in int64 well past its limit
# (_require_int64), but its instances grow about 2.7x per N (713,709 up to
# N = 14, 5.2M at N = 16), and a JSON run writes each one
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
    """The reports and parity-audit records of one run.

    ``reports`` may be given as any sequence of IdentityReport, such as a
    list; it is kept as a read-only sequence of parts, in which the suites'
    lists are tuples, classic is a _ReportBlock per n, section3 two per n
    (its recurrences, then its block-deletion reports), and baserecur is
    one _ReportBlock.  ``ok``, ``summary_lines()`` (per identity, also inside a
    block) and ``failures()`` read a block's columns and build only its
    failed reports; ``write_json`` writes its dicts straight from the
    columns."""

    reports: Sequence[IdentityReport]
    audit: list[ParityAuditRecord]

    def __post_init__(self) -> None:
        if not isinstance(self.reports, _Reports):
            self.reports = _Reports((tuple(self.reports),))

    def _failed(self) -> Iterator[IdentityReport]:
        for part in self.reports.parts:
            if isinstance(part, _ReportBlock):
                yield from map(part.__getitem__, part.failed().tolist())
            else:
                yield from (r for r in part if not r.passed)

    @property
    def ok(self) -> bool:
        return next(self._failed(), None) is None and all(a.ok for a in self.audit)

    def failures(self) -> list[str]:
        out = [str(r) for r in self._failed()]
        out += [str(a) for a in self.audit if not a.ok]
        return out

    def summary_lines(self) -> list[str]:
        by_identity: dict[str, tuple[int, int]] = {}

        def tally(name: str, count: int, failed: int) -> None:
            done, bad = by_identity.get(name, (0, 0))
            by_identity[name] = (done + count, bad + failed)

        for part in self.reports.parts:
            if isinstance(part, _ReportBlock):
                for name, count, failed in part.tallies():
                    if count:
                        tally(name, count, failed)
            else:
                for r in part:
                    tally(r.identity, 1, 0 if r.passed else 1)
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

    def _dict_chunks(self, size: int) -> Iterator[list[dict]]:
        for part in self.reports.parts:
            if isinstance(part, _ReportBlock):
                yield from part.dicts(size)
            else:
                for lo in range(0, len(part), size):
                    yield [r.to_dict() for r in part[lo : lo + size]]

    def write_json(self, out: TextIO) -> None:
        """Write ``json.dumps(self.to_dict(), sort_keys=True)`` and a newline,
        holding the dicts of 1024 reports at a time, not all of them."""
        encode = json.JSONEncoder(sort_keys=True).encode
        audit = encode([a.to_dict() for a in self.audit])
        out.write(f'{{"audit": {audit}, "ok": {encode(self.ok)}, "reports": [')
        for i, dicts in enumerate(self._dict_chunks(1024)):
            out.write((", " if i else "") + encode(dicts)[1:-1])  # the items, without [ and ]
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
    plane_max_n = max_n if plane_max_n is None else plane_max_n
    sizes = {"baserecur": baserecur_max_n, "plane": plane_max_n}  # the n each suite runs at
    for suite in suites:
        oracle._require_scale(f"the {suite} suite", sizes.get(suite, max_n), _SUITE_LIMITS[suite])
    reports = _Reports()
    audit: list[ParityAuditRecord] = []
    # baserecur reads no word-walk table, so it runs before the run's tables
    # are built, and its peak does not carry them; its reports keep their place
    base = baserecur_reports(baserecur_max_n) if "baserecur" in suites else _Reports()
    with oracle._run_tables():  # one set of word-walk tables per n for every other suite
        if "classic" in suites:
            reports += classic_reports(max_n, workers)
        if "section3" in suites:
            reports += section3_reports(max_n, workers)
        reports += base
        if "formulas" in suites:
            reports += formula_vs_oracle_reports(max_n, workers)
        if "plane" in suites:
            reports += plane_structure_reports(plane_max_n, workers)
        if "parity" in suites:
            audit += parity_audit(max_n)
    return VerifyRun(reports=reports, audit=audit)
