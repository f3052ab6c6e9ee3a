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
import operator
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple, TextIO

import numpy as np

from . import formulas, oracle, plane
from ._suites import SUITES
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

    The baserecur suite keeps its reports as columns (``_ReportBlock``) and
    builds one only when it is indexed or iterated: its sides are then
    Python ints, the right side a ``Fraction`` when it is a half.
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


@dataclass(slots=True, eq=False)
class _ReportBlock:
    """The reports of one identity as two int64 columns, the left sides and
    twice the right sides, beside ``texts``, each instance's text as (head,
    mid, tail) in the same order: a report passes on ``2 * lhs == twice``.
    Counts and failures come from the columns; an IdentityReport is built
    only when one is indexed or iterated, and the JSON dicts of 1024 reports
    at a time straight from the columns."""

    identity: str
    lhs: np.ndarray
    twice: np.ndarray
    texts: Sequence[tuple[str, str, str]]

    def __len__(self) -> int:
        return len(self.lhs)

    def failed(self) -> np.ndarray:
        """The indices of the reports that fail, in order."""
        return np.flatnonzero(2 * self.lhs != self.twice)

    def _report(self, text: tuple[str, str, str], lhs: int, twice: int) -> IdentityReport:
        head, mid, tail = text
        return IdentityReport(self.identity, head, lhs, _half(twice), mid, tail)

    def __getitem__(self, i: int) -> IdentityReport:
        return self._report(self.texts[i], int(self.lhs[i]), int(self.twice[i]))

    def _chunks(self, size: int) -> Iterator[tuple[Iterable, list[int], list[int]]]:
        """The texts and the sides as Python ints of ``size`` reports at a
        time, so that no list over the whole column is held."""
        texts = iter(self.texts)
        for lo in range(0, len(self), size):
            hi = lo + size
            yield itertools.islice(texts, size), self.lhs[lo:hi].tolist(), self.twice[lo:hi].tolist()

    def __iter__(self) -> Iterator[IdentityReport]:
        for chunk in self._chunks(1024):
            yield from map(self._report, *chunk)

    def dicts(self, size: int) -> Iterator[list[dict]]:
        """``[r.to_dict() for r in chunk]`` of each chunk of ``size`` reports."""
        name = self.identity
        for texts, lhs, twice in self._chunks(size):
            yield [
                {"identity": name, "instance": head + mid + tail, "lhs": str(left),
                 "rhs": _value_str(_half(right)), "pass": 2 * left == right}
                for (head, mid, tail), left, right in zip(texts, lhs, twice)
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


def _require_int64(max_n: int) -> None:
    """Raise ResourceLimitError unless every value of _baserecur_columns at
    totals up to max_n stays below 2**62, so that it and its double are
    exact in int64: a bound on z, S, the weight and twice either side, in
    Python ints, from each block size's largest pieces, folded over the
    compositions as the columns fold them."""
    largest = [[max(column) for column in list(zip(*_block_pieces(p).values()))[1:4]] for p in range(max_n + 1)]
    tops = [(1, 0, 0)]  # per total: bounds on z, S and the weight over its block types
    for total in range(1, max_n + 1):
        z = s = w = 0
        for first in range(1, total + 1):
            (zp, sp, wp), (zr, sr, wr) = largest[first], tops[total - first]
            z, s, w = max(z, zp * zr), max(s, sp * zr + zp * sr), max(w, wp + wr)
        tops.append((z, s, w))
        if max(2 * s + z * w, 2 * total * z) >= 2**62:  # twice the rhs, twice the lhs (N - length) z
            raise ResourceLimitError(f"the baserecur suite at n={max_n} would overflow int64 at N={total}")


def _grouped(copies: int, sizes: np.ndarray) -> np.ndarray:
    """Where each entry of a (copies, sum(sizes)) array goes when its
    columns are cut into segments of ``sizes`` and each segment's rows are
    laid out together, segment by segment."""
    ends = np.cumsum(sizes)
    start, size = np.repeat(ends - sizes, sizes), np.repeat(sizes, sizes)
    return np.arange(copies)[:, None] * size + ((copies - 1) * start + np.arange(ends[-1]))


def _baserecur_columns(max_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The left sides and twice the right sides of baserecur at every total
    N = 1..max_n, in its order, as int64 columns, and the instance count of
    each composition of each N in turn.

    The block types of the compositions of m, first block ``first`` = m..1
    and the rest a composition of m - first, are the outer products of the
    pieces of ``first`` with the folded columns (z, S, weight, length) of
    m - first: z multiplies, S = sum_i S_i z / z_i folds as S' z + z' S, and
    the weight and the length add.  Each product is laid out so that every
    composition's block types stay together, last block fastest."""
    pieces = [np.array([piece[1:] for piece in _block_pieces(p).values()], dtype=np.int64).T for p in range(max_n + 1)]
    counts = [1]  # per total: its instances
    for total in range(1, max_n + 1):
        counts.append(sum(pieces[first].shape[1] * counts[total - first] for first in range(1, total + 1)))
    lhs, twice = np.empty((2, sum(counts) - 1), dtype=np.int64)
    folded = [np.array([[1], [0], [0], [0]], dtype=np.int64)]  # per total: z, S, weight, length
    sizes = [np.ones(1, dtype=np.int64)]  # per total: the instances of each composition
    done = 0
    for total in range(1, max_n + 1):
        out, lo, segments = np.empty((4, counts[total]), dtype=np.int64), 0, []
        for first in range(total, 0, -1):
            z, s, w, length = pieces[first][:, :, None]
            rz, rs, rw, rlength = folded[total - first][:, None, :]
            at = lo + _grouped(len(z), sizes[total - first])
            out[0, at] = z * rz
            out[1, at] = s * rz + z * rs
            out[2, at] = w + rw
            out[3, at] = length + rlength
            lo += at.size
            segments.append(len(z) * sizes[total - first])
        folded.append(out)
        sizes.append(np.concatenate(segments))
        z, s, w, length = out
        rows = slice(done, done + counts[total])
        np.multiply(total - length, z, out=lhs[rows])
        np.add(2 * s, z * w, out=twice[rows])
        done += counts[total]
    return lhs, twice, np.concatenate(sizes[1:])


class _BlockTypeTexts(Sequence):
    """The instance texts of baserecur in its order, each as (head, the
    leading blocks' text, the last block's piece): "N=3 alpha=(2,1) Lam=",
    "1+1 | ", "1".  Only the instance count of each composition is held;
    iteration builds a head per composition and a leading text per leading
    key, and indexing decodes the composition from its place."""

    __slots__ = ("max_n", "ends")

    def __init__(self, max_n: int, sizes: np.ndarray) -> None:
        self.max_n = max_n
        self.ends = np.cumsum(sizes)

    def __len__(self) -> int:
        return int(self.ends[-1])

    @staticmethod
    def _texts(p: int) -> list[str]:
        return [piece[0] for piece in _block_pieces(p).values()]

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        texts = [self._texts(p) for p in range(self.max_n + 1)]
        leads = [[text + " | " for text in by_p] for by_p in texts]
        for total in range(1, self.max_n + 1):
            for alpha in _compositions(total):
                head, mids = f"N={total} alpha={format_d_key(alpha)} Lam=", [""]
                for p in alpha[:-1]:
                    mids = [mid + lead for mid in mids for lead in leads[p]]
                for mid in mids:
                    for tail in texts[alpha[-1]]:
                        yield head, mid, tail

    def __getitem__(self, i: int) -> tuple[str, str, str]:
        # the compositions of N are the 2^(N-1) after those of smaller totals,
        # each at its cut pattern read as a binary number
        g = int(np.searchsorted(self.ends, i, side="right"))
        k = i - (int(self.ends[g - 1]) if g else 0)  # the key's place among its composition's
        total = (g + 1).bit_length()
        cuts = g + 1 - (1 << (total - 1))
        bounds = [0, *(j for j in range(1, total) if cuts >> (total - 1 - j) & 1), total]
        alpha = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        texts = []
        for p in reversed(alpha):  # the last block's partition changes fastest
            k, d = divmod(k, len(_block_pieces(p)))
            texts.append(self._texts(p)[d])
        *leading, tail = reversed(texts)
        return f"N={total} alpha={format_d_key(alpha)} Lam=", "".join(text + " | " for text in leading), tail


@_collector_paused()
def baserecur_reports(max_n: int = 12) -> _Reports:
    """The length-weight recurrence over all block types of all compositions
    of every N up to max_n, oracle-free: each side is a product or a sum of
    per-block pieces, computed as int64 columns (_baserecur_columns) after a
    bound in Python ints shows that they are exact (_require_int64).

    A read-only sequence of reports (len, indexing, iteration, unpacking,
    ``+`` with a list), which holds one _ReportBlock: each IdentityReport
    is built only when it is read."""
    oracle._require_scale("the baserecur suite", max_n, _SUITE_LIMITS["baserecur"])
    _require_int64(max_n)
    lhs, twice, sizes = _baserecur_columns(max_n)
    return _Reports((_ReportBlock("length_weight_base", lhs, twice, _BlockTypeTexts(max_n, sizes)),))


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


class _ArrayTables(NamedTuple):
    """What the per-array checks at one n read besides the word, and the
    buffers they write: every vertical pi (plane._verticals), the inverses
    and cycle counts of the verticals, the table of _cycle_counts_by_rank,
    the reflected arrays' verticals pi∘s⁻¹ (refilled for each word), and
    (n, n!) buffers for the diagonal check."""

    verts: plane._Verticals
    perms_inv: np.ndarray
    c_pi: np.ndarray
    cc: np.ndarray
    reflected: plane._Verticals
    diag: np.ndarray
    bottoms: np.ndarray
    vals: np.ndarray
    miss: np.ndarray


def _array_tables(perms: np.ndarray, perms_inv: np.ndarray, c_pi: np.ndarray, cc: np.ndarray) -> _ArrayTables:
    """The _ArrayTables of the verticals ``perms`` (n, n!), stored element first."""
    buffers = (np.empty_like(perms) for _ in range(3))
    return _ArrayTables(
        plane._verticals(perms), perms_inv, c_pi, cc, plane._verticals(perms.copy()),
        *buffers, np.empty(perms.shape, dtype=bool),
    )


def _array_bad_counts(word: np.ndarray, s_img: np.ndarray, tables: _ArrayTables) -> tuple[int, int, int]:
    """Failures of the three per-array checks over the arrays (word, pi) for
    every vertical pi of ``tables``; ``s_img`` is the word's one-line image."""
    n = len(word)
    t = tables
    after, reflected = plane._shifts(n)
    diag = plane._take(s_img, t.perms_inv, t.diag)  # s∘pi⁻¹ by composition
    bottoms = plane._take(t.verts.flat, word, t.bottoms, axis=0)  # pi(w[i]), as flat indices
    diag_bad = plane._diagonal_misses(bottoms, diag, word[after], t.vals, t.miss).sum()
    a, ne = plane._exceedance_counts(word, t.verts)
    ne_bad = (ne != n - t.c_pi - a).sum()
    # the reflected array (s⁻¹, D⁻¹), with D⁻¹ = pi∘s⁻¹
    plane._refill(t.reflected, t.verts.perms, np.argsort(s_img))
    _, ne_refl = plane._exceedance_counts(word[reflected], t.reflected)
    refl_bad = (ne + ne_refl != n + 1 - t.c_pi - t.cc[oracle._lex_rank(n, diag)]).sum()
    return int(diag_bad), int(ne_bad), int(refl_bad)


class _TranspositionTables(NamedTuple):
    """What the transposition checks at one n read besides the word and the
    verticals, and the buffers they write: the diagonals D, the block
    transpositions (plane._moves), the place values of the rank codes
    (oracle._code_places), the table of _cycle_counts_by_rank, and buffers
    (n, H, (n-1)!) for the diagonal check, (3, H, (n-1)!) for the moved
    images, (2, H, (n-1)!) for the codes and (H, (n-1)!) for the ranks."""

    diags: np.ndarray
    moves: plane._Moves
    places: np.ndarray
    cc: np.ndarray
    bottoms: np.ndarray
    vals: np.ndarray
    miss: np.ndarray
    old: np.ndarray
    new: np.ndarray
    codes: np.ndarray
    ranks: np.ndarray
    spare: np.ndarray


def _transposition_tables(
    diags: np.ndarray, moves: plane._Moves, places: np.ndarray, cc: np.ndarray
) -> _TranspositionTables:
    """The _TranspositionTables of the diagonals ``diags`` (n, (n-1)!), stored element first."""
    n, m = diags.shape
    hs = moves.src.shape[1]

    def ints(*rows: int) -> np.ndarray:
        return np.empty((*rows, hs, m), dtype=np.int64)

    bools = np.empty((n, hs, m), dtype=bool)
    return _TranspositionTables(diags, moves, places, cc, ints(n), ints(n), bools, ints(3), ints(3), ints(2), ints(), ints())


def _transposed_ranks(word: np.ndarray, verticals: np.ndarray, tables: _TranspositionTables) -> tuple[np.ndarray, np.ndarray]:
    """The lex ranks of pi' (H, (n-1)!) and of pi ((n-1)!,) over every block
    transposition of every array (word, pi = verticals[:, r]).  pi' is pi
    with the images of s_{i-1}, s_j, s_k turned, and each of the three moves
    pi's head or tail code by (new - old) times its place value."""
    t = tables
    changed = word[t.moves.moved]  # s_{i-1}, s_j, s_k
    old = plane._take(verticals, changed, t.old, axis=0)
    change = plane._take(verticals, word[t.moves.turned], t.new, axis=0)
    change -= old
    codes = t.places @ verticals  # pi's head and tail codes
    new_codes = np.einsum("pqh,qhr->phr", t.places[:, changed], change, out=t.codes)
    new_codes += codes[:, None]
    prefix, suffix = oracle._rank_tables(len(word))
    ranks = plane._take(prefix, new_codes[0], t.ranks)
    ranks += plane._take(suffix, new_codes[1], t.spare)
    return ranks, prefix[codes[0]] + suffix[codes[1]]


def _transposition_bad_count(word: np.ndarray, verticals: np.ndarray, tables: _TranspositionTables) -> int:
    """Failures over every block transposition of every array (word,
    verticals[:, r]) whose diagonal is diags[:, r], in ``tables``: the
    transposed array (w', pi') must keep that diagonal, checked in the gather
    form at pi'(w'[t]), and the cycle count of pi', read from the table of
    _cycle_counts_by_rank at the _transposed_ranks, moves by -2, 0 or 2."""
    t = tables
    bottoms = plane._take(plane._flat(verticals), word[t.moves.image_src], t.bottoms, axis=0)
    moved = plane._diagonal_misses(bottoms, t.diags, word[t.moves.next_src], t.vals, t.miss)
    ranks, source_ranks = _transposed_ranks(word, verticals, tables)
    delta = plane._take(t.cc, ranks, t.spare)
    delta -= t.cc[source_ranks]
    delta = np.abs(delta, out=delta)  # even and at most 2: 0 or 2
    return int(np.count_nonzero(moved | (delta == 1) | (delta > 2)))


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
        # every table that does not depend on the word, built before the fork
        words = oracle._cycle_words(n)
        cycles = oracle._cycle_rows(n)
        rows = oracle._all_perm_rows(n)
        cc = _cycle_counts_by_rank(n)  # the verticals are in lex order, so cc holds their counts
        arrays = _array_tables(rows.T.copy(), np.argsort(rows, axis=1).T.copy(), cc, cc)
        # block transpositions over pairs of long cycles (s, D), vertical D⁻¹∘s
        moves = plane._moves(n)
        diags, diags_inv = cycles.T.copy(), np.argsort(cycles, axis=1).T.copy()
        transpositions = _transposition_tables(diags, moves, oracle._code_places(n), cc)

        def bad_counts(lo: int, hi: int) -> np.ndarray:
            # the failures of the three per-array checks, then of the transpositions
            bad = np.zeros(4, dtype=np.int64)
            for word, s_img in zip(words[lo:hi], cycles[lo:hi]):
                bad[:3] += _array_bad_counts(word, s_img, arrays)
                if moves.src.size:
                    bad[3] += _transposition_bad_count(word, diags_inv[s_img], transpositions)
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
    lists are tuples and baserecur is a _ReportBlock.  ``ok``,
    ``summary_lines()`` and ``failures()`` read a block's columns and build
    only its failed reports; ``write_json`` writes its dicts straight from
    the columns."""

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
                tally(part.identity, len(part), len(part.failed()))
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
    reports = _Reports()
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
