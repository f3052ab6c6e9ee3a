"""Integer partitions, compositions, partition sequences, and the exact
counting primitives built on them.

Partitions are stored with parts sorted non-increasing; the multiplicity view
(how many parts equal i) is derived on demand.  Everything here is exact:
counts are Python integers, ratios are ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .errors import NoSuchPartError

__all__ = [
    "IntegerPartition",
    "Composition",
    "PartitionSequence",
    "partitions",
    "compositions",
    "partition_sequences",
    "z_of",
    "z_of_seq",
    "kappa",
    "refinement_targets",
    "refinement_targets_seq",
    "odd_refinements",
    "lambda_coeff",
    "stirling_first",
    "separated_stirling",
    "falling_factorial",
    "binomial",
]


# ---------------------------------------------------------------------------
# tuple-level helpers (everything hot works on plain sorted tuples)


def _mults(parts: tuple[int, ...]) -> dict[int, int]:
    m: dict[int, int] = {}
    for p in parts:
        m[p] = m.get(p, 0) + 1
    return m


def _merge_sorted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b, reverse=True))


def _remove_part(parts: tuple[int, ...], value: int) -> tuple[int, ...]:
    idx = parts.index(value)
    return parts[:idx] + parts[idx + 1 :]


def _down_arrow(parts: tuple[int, ...], part_size: int) -> tuple[int, ...]:
    """The partition with one part of the given size shrunk by one."""
    return _merge_sorted(_remove_part(parts, part_size), (part_size - 1,))


def _int_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts as ints: anything ``operator.index`` accepts except bool."""
    parts = tuple(parts)
    if not {int}.issuperset(map(type, parts)):  # checks the exact type, so bool fails
        if any(isinstance(p, bool) or not hasattr(p, "__index__") for p in parts):
            raise TypeError(f"parts must be integers: {parts!r}")
        parts = tuple(map(operator.index, parts))
    return parts


@cache
def _partition_list(n: int, maxpart: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with no part above maxpart (default n), as
    non-increasing tuples, reverse-lexicographic."""
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(remaining: int, maxpart: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p)
            prefix.pop()

    rec(n, n if maxpart is None else maxpart)
    return tuple(out)


def _compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """Compositions of n, ordered by their cut patterns read as binary numbers."""
    out = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        bounds = [0, *(i for i, cut in enumerate(cuts, 1) if cut), n]
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return tuple(out)


@cache
def _z(parts: tuple[int, ...]) -> int:
    denom = 1
    for i, m in _mults(parts).items():
        denom *= i**m * math.factorial(m)
    return math.factorial(sum(parts)) // denom


def _z_seq(key: tuple[tuple[int, ...], ...]) -> int:
    """Number of block-separated permutations with these per-block cycle types."""
    return math.prod(map(_z, key))


def format_type_key(parts: tuple[int, ...]) -> str:
    """The key of a partition: "3+2+1", or "0" when it is empty."""
    return "+".join(map(str, parts)) if parts else "0"


def format_seq_key(key: tuple[tuple[int, ...], ...]) -> str:
    """The key of a partition sequence's block types: "2+1 | 3"."""
    return " | ".join(map(format_type_key, key))


def format_d_key(d: tuple[int, ...]) -> str:
    """The key of a composition or a d-vector: "(2,1,3)"."""
    return "(" + ",".join(map(str, d)) + ")"


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class IntegerPartition:
    """A partition of a non-negative integer; parts kept non-increasing."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(sorted(_int_parts(self.parts), reverse=True))
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {self.parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return self.parts.count(i)

    def multiplicities(self) -> dict[int, int]:
        return _mults(self.parts)

    def down_arrow(self, part_size: int) -> "IntegerPartition":
        """Shrink one part of the given size (>= 2) by one."""
        if part_size < 2:
            raise ValueError("only parts of size >= 2 can shrink")
        if part_size not in self.parts:
            raise NoSuchPartError(f"no part of size {part_size} in {self}")
        return IntegerPartition(_down_arrow(self.parts, part_size))

    @classmethod
    def parse(cls, text: str) -> "IntegerPartition":
        """Accepts "3+2+1+1", "1^2 2^1 3^1", or "0" for the empty partition."""
        text = text.strip()
        if text == "0" or text == "":
            return cls(())
        if "^" in text:
            parts: list[int] = []
            for token in text.split():
                base, _, exp = token.partition("^")
                parts.extend([int(base)] * int(exp))
            return cls(tuple(parts))
        return cls(tuple(int(tok) for tok in text.split("+")))

    def exponent_form(self) -> str:
        m = self.multiplicities()
        return " ".join(f"{i}^{m[i]}" for i in sorted(m)) if m else "0"

    def __str__(self) -> str:
        return format_type_key(self.parts)


@dataclass(frozen=True)
class Composition:
    """A composition of n: an ordered tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = _int_parts(self.parts)
        if not parts or any(p <= 0 for p in parts):
            raise ValueError(f"composition parts must be positive: {self.parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The induced consecutive blocks of [n] as 1-based (start, end) pairs."""
        out = []
        start = 1
        for p in self.parts:
            out.append((start, start + p - 1))
            start += p
        return tuple(out)

    def boundaries(self) -> tuple[int, ...]:
        """Proper prefix sums (excluding n): the cut points between blocks."""
        cuts = []
        acc = 0
        for p in self.parts[:-1]:
            acc += p
            cuts.append(acc)
        return tuple(cuts)

    def decremented(self, i: int) -> "Composition":
        """Shrink block i (1-based) by one element; the block must have >= 2."""
        if not 1 <= i <= self.length:
            raise IndexError(f"block index {i} out of range")
        if self.parts[i - 1] < 2:
            raise ValueError(f"block {i} of {self} cannot shrink below one element")
        return Composition(self.parts[: i - 1] + (self.parts[i - 1] - 1,) + self.parts[i:])

    @classmethod
    def parse(cls, text: str) -> "Composition":
        text = text.strip().lstrip("(").rstrip(")")
        return cls(tuple(int(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return format_d_key(self.parts)


@dataclass(frozen=True)
class PartitionSequence:
    """One integer partition per block of a composition."""

    alpha: Composition
    components: tuple[IntegerPartition, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.alpha.length:
            raise ValueError("one partition per composition part is required")
        for lam, size in zip(comps, self.alpha.parts):
            if lam.n != size:
                raise ValueError(f"{lam} is not a partition of block size {size}")

    @property
    def n(self) -> int:
        return self.alpha.n

    @property
    def length(self) -> int:
        return sum(c.length for c in self.components)

    def multiplicity(self, i: int) -> int:
        return sum(c.multiplicity(i) for c in self.components)

    def d_vector(self) -> tuple[int, ...]:
        """Component lengths: how many cycles each block is split into."""
        return tuple(c.length for c in self.components)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.parts for c in self.components)

    def down_arrow(self, i: int, part_size: int) -> "PartitionSequence":
        """Shrink one part of the given size inside component i (1-based)."""
        if not 1 <= i <= len(self.components):
            raise IndexError(f"component index {i} out of range")
        shrunk = self.components[i - 1].down_arrow(part_size)
        comps = self.components[: i - 1] + (shrunk,) + self.components[i:]
        return PartitionSequence(self.alpha.decremented(i), comps)

    @classmethod
    def parse(cls, text: str) -> "PartitionSequence":
        comps = tuple(IntegerPartition.parse(tok) for tok in text.split("|"))
        return cls(Composition(tuple(c.n for c in comps)), comps)

    def __str__(self) -> str:
        return format_seq_key(self.key())


# ---------------------------------------------------------------------------
# enumeration


def partitions(n: int) -> Iterator[IntegerPartition]:
    """All partitions of n, reverse-lexicographic: n^1 first, 1^n last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for parts in _partition_list(n):
        yield IntegerPartition(parts)


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of n, from (n) to (1,...,1), cut patterns in binary order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for parts in _compositions(n):
        yield Composition(parts)


def _partition_sequence_keys(alpha_parts: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The keys of all partition sequences over alpha, the last block's
    partition changing fastest."""
    return itertools.product(*(_partition_list(p) for p in alpha_parts))


def partition_sequences(alpha: Composition) -> Iterator[PartitionSequence]:
    """All partition sequences over alpha, component orders reverse-lex."""
    for key in _partition_sequence_keys(alpha.parts):
        yield PartitionSequence(alpha, tuple(IntegerPartition(parts) for parts in key))


# ---------------------------------------------------------------------------
# conjugacy-class sizes


def z_of(lam: IntegerPartition) -> int:
    """Number of permutations whose cycle lengths are exactly this partition."""
    return _z(lam.parts)


def z_of_seq(seq: PartitionSequence) -> int:
    """Number of block-separated permutations with these per-block cycle types."""
    return _z_seq(seq.key())


# ---------------------------------------------------------------------------
# merging counts and refinements
#
# kappa(mu, lam, k) counts the k-subsets of the parts of mu whose merger into
# a single part (their sum) turns mu into lam.  Parts are individually
# distinguished: two equal parts count as different choices.


def kappa(mu: IntegerPartition, lam: IntegerPartition, k: int) -> int:
    if mu.n != lam.n:
        raise ValueError("partitions must have the same size")
    if k < 2:
        raise ValueError("merging needs k >= 2")
    return dict(_refinements(lam.parts, k)).get(mu.parts, 0)


@cache
def _refinements(lam_parts: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (mu, kappa) with mu obtained by splitting one part of lam into k."""
    acc: dict[tuple[int, ...], int] = {}
    for v in sorted(set(lam_parts), reverse=True):
        if v < k:
            continue
        base = _remove_part(lam_parts, v)
        for rest in _partition_list(v - k, k):
            # the conjugate of (k, *rest): a partition of v into k parts
            sigma = tuple(1 + sum(p > i for p in rest) for i in range(k))
            mu = _merge_sorted(base, sigma)
            mu_m = _mults(mu)
            ways = 1
            for i, cnt in _mults(sigma).items():
                ways *= math.comb(mu_m.get(i, 0), cnt)
            acc[mu] = acc.get(mu, 0) + ways
    return tuple(sorted(acc.items(), reverse=True))


def refinement_targets(lam: IntegerPartition, k: int) -> Iterator[tuple[IntegerPartition, int]]:
    """Stream of (mu, kappa) over every mu obtained by splitting one part of
    lam into k parts, reverse-lexicographic in mu."""
    if k < 2:
        raise ValueError("splitting needs k >= 2")
    for mu, kap in _refinements(lam.parts, k):
        yield IntegerPartition(mu), kap


@cache
def _odd_refinements(lam_parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Union of _refinements over odd split sizes k = 3, 5, ... (k > 1)."""
    acc: dict[tuple[int, ...], int] = {}
    maxp = lam_parts[0] if lam_parts else 0
    for k in range(3, maxp + 1, 2):
        for mu, kap in _refinements(lam_parts, k):
            acc[mu] = acc.get(mu, 0) + kap
    return tuple(sorted(acc.items(), reverse=True))


@cache
def _block_pieces(p: int) -> dict[tuple[int, ...], tuple[str, int, int, int, int]]:
    """Per partition c of p, in _partition_list order: (its key text, z(c), S(c) =
    sum of kappa * z(mu) over its odd splits mu, the size of its parts >= 2, len(c))."""
    return {
        c: (format_type_key(c), _z(c), sum(kap * _z(mu) for mu, kap in _odd_refinements(c)),
            sum(c) - c.count(1), len(c))
        for c in _partition_list(p)
    }


def _odd_split_z(blocks: Iterable[tuple[str, int, int, int, int]], z_key: int) -> int:
    """sum of kappa * z(Lam') over the odd splits Lam' of one block of Lam,
    from Lam's block pieces and z(Lam): sum_i S(c_i) z(Lam) / z(c_i)."""
    return sum(s * (z_key // z) for _text, z, s, _w, _len in blocks)


def odd_refinements(lam: IntegerPartition) -> Iterator[tuple[IntegerPartition, int]]:
    """All (mu, kappa) with mu a split of one part of lam into an odd number
    (at least 3) of parts."""
    for mu, kap in _odd_refinements(lam.parts):
        yield IntegerPartition(mu), kap


@cache
def _odd_refinements_seq(
    seq_key: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """Component-wise odd splits of a partition sequence.

    Yields (new sequence key, kappa); the merging count of a sequence pair
    equals that of the one component they differ in.
    """
    out = []
    for i, comp in enumerate(seq_key):
        for mu, kap in _odd_refinements(comp):
            out.append((seq_key[:i] + (mu,) + seq_key[i + 1 :], kap))
    return tuple(out)


def refinement_targets_seq(seq: PartitionSequence, k: int) -> Iterator[tuple[PartitionSequence, int]]:
    """Sequence analogue of refinement_targets: the split happens inside a
    single component; all other components are carried over unchanged."""
    if k < 2:
        raise ValueError("splitting needs k >= 2")
    for i, comp in enumerate(seq.components):
        for mu, kap in _refinements(comp.parts, k):
            comps = seq.components[:i] + (IntegerPartition(mu),) + seq.components[i + 1 :]
            yield PartitionSequence(seq.alpha, comps), kap


# ---------------------------------------------------------------------------
# the down-arrow step


def _shrink_steps(
    alpha_parts: tuple[int, ...], key: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[int, int, Fraction, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """The down-arrow steps of block types ``key`` over ``alpha_parts``: for
    each block i0 and each distinct part size >= 2 in it, largest first,
    (i0, part, coeff, a2, key2) with coeff = (alpha_i0 / 2) (part-1) times the
    number of (part-1)-parts after one part shrinks, and a2, key2 the
    composition and block types one element smaller."""
    for i0, comp in enumerate(key):
        a2 = alpha_parts[:i0] + (alpha_parts[i0] - 1,) + alpha_parts[i0 + 1 :]
        for part in sorted(set(comp), reverse=True):
            if part < 2:
                continue
            shrunk = _down_arrow(comp, part)
            coeff = Fraction(alpha_parts[i0], 2) * (part - 1) * shrunk.count(part - 1)
            yield i0, part, coeff, a2, key[:i0] + (shrunk,) + key[i0 + 1 :]


def lambda_coeff(seq: PartitionSequence, i: int, j: int) -> Fraction:
    """Weight attached to shrinking a (j+1)-part of component i (1-based):
    (alpha_i / 2) * j * m_j of the shrunk component."""
    seq.down_arrow(i, j + 1)  # raises as down_arrow does for a bad i or j
    steps = _shrink_steps(seq.alpha.parts, seq.key())
    return next(coeff for i0, part, coeff, _a2, _key2 in steps if (i0, part) == (i - 1, j + 1))


# ---------------------------------------------------------------------------
# Stirling-type numbers and factorial helpers


# The last requested row of C(i+1, k) = C(i, k-1) + i C(i, k), from
# [0]*m + [1] at i = m, as (i, row) by m (m = 0: Stirling numbers).  A higher
# row steps up from it and a lower one from row m, so a sweep over rising n
# costs O(n^2).
_INSERTION_ROWS: dict[int, tuple[int, tuple[int, ...]]] = {}


def _insertion_row(n: int, m: int) -> tuple[int, ...]:
    start, row = _INSERTION_ROWS.get(m, (m, (0,) * m + (1,)))
    if start > n:
        start, row = m, (0,) * m + (1,)
    if start < n:
        row = list(row)
        for i in range(start, n):
            row = [a + i * b for a, b in zip([0] + row, row + [0])]
        _INSERTION_ROWS[m] = (n, row := tuple(row))
    return row


def stirling_first(n: int, k: int) -> int:
    """Signless Stirling number of the first kind: permutations of [n] with
    k cycles.  C(n,k) = C(n-1,k-1) + (n-1) C(n-1,k), C(0,0) = 1."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    return _insertion_row(n, 0)[k] if k <= n else 0


def separated_stirling(n: int, m: int, k: int) -> int:
    """Permutations of [n] with k cycles and 1..m in pairwise distinct cycles.

    Insertion recurrence (certified against brute force in the tests):
    C_m(n,k) = C_m(n-1,k-1) + (n-1) C_m(n-1,k) for n > m, C_m(m,k) = [k == m].
    """
    if not 0 <= m <= n:
        raise ValueError("need n >= m >= 0")
    return _insertion_row(n, m)[k] if 0 <= k <= n else 0


def falling_factorial(x: int, m: int) -> int:
    """(x)_m = x (x-1) ... (x-m+1), with (x)_0 = 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for t in range(m):
        out *= x - t
    return out


def binomial(a: int, b: int) -> int:
    """Binomial coefficient; zero when b > a >= 0."""
    if b < 0 or a < 0:
        raise ValueError("binomial arguments must be >= 0")
    return math.comb(a, b)
