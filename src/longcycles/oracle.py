"""Exhaustive ground truth by brute-force enumeration.

The pair sweep enumerates every ordered pair of long cycles on [n] (there are
((n-1)!)^2 of them) and counts the products by one exact statistic, their
length row: entry x is the length of the cycle of x when x is the least
element of that cycle, else 0.  The nonzero entries are the cycle type,
1..m lie in distinct cycles iff the first m entries are nonzero, and 1..b is
a union of cycles iff the first b entries sum to b.  Every table is an exact
integer sum of those counts, its keys read from the rows — no symmetry
shortcut is applied to any tally, and block-separation tallies are sums over
honestly enumerated pairs.  The cycle type is the block type for the one
block alpha = (n).

The fixed-diagonal sweep enumerates, for a fixed permutation D, all plane
permutations with diagonal D (one per long cycle s, with vertical D⁻¹∘s) and
tallies the verticals by (block types, exceedance count), the cycle type
again being the one-block case.  The factorizations c1∘c2 = D into long
cycles are its arrays with s = c1 whose vertical, c2⁻¹, is a long cycle.

Every kernel splits a permutation after its first h images, its head, in
one way per n, _split(n), the only place that h is worked out: each lex
rank, head, tail and place value is read from it.

A per-n table is memoized only where another call re-reads it at a measured
cost, and the memo's docstring names that call and the cost of a rebuild
(warm, two shared cores; re-reads over verify --max-n 7 --plane-max-n 6).
Tables with n! or (n-1)! rows, _cycle_words, _long_cycles and
_all_perm_rows, are held for the run (_shared), with two small tables the
run re-reads, _pattern_sources and _signature_keys.  Other tables are held
for the process; the n! index of _signatures says why it is one of them.

Sweeps with a worker count cut their index range into contiguous chunks,
one per worker, and _chunk_sum adds up the chunks' counts: the full plane
sweep and the plane suite of verify over cycle words, and the pair sweep
over the head groups of the second factors in pattern-class order
(_pair_tables), so that no group is counted twice and a chunk boundary cuts
at most one class.  The shared tables are built first.  Then the process
forks a child for every worker beyond the first, up to one process per CPU;
each child counts its share of the chunks and sends the raw int64 sum back
through a pipe, while the process counts the first share itself.  Counts
are sums, so results are identical for any worker count.

The tables over all permutations or cycle words of one n are built in
passes of _PASS rows, so that no temporary is as large as a table: a pass
of _signatures or of the fixed-diagonal sweep keeps only the codes of its
length rows (_length_codes, into buffers every pass reuses), and
the distinct rows are decoded from the distinct codes at the end.

The tallies by block types sum the pair counts (_pair_array), the plane
sweep's totals (_plane_array) or a fixed diagonal's counts (_diag_tallies)
into dense arrays by key (_keys): the index of a separated row's block types
in _partition_sequence_keys order, each block's partition found by its code,
_partition_codes, which verify's block tables read too.

The full plane sweep, _plane_codes(n), walks the verticals by their
inverses q in lex order: per word, a term per head of q plus a term per
tail (_split_sums), fused as rank * (n + 1) + exceedances and binned
through one per-n table, tbx.  The plane suite of verify
(_plane_checks) splits its per-array quantities on the same split.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import signal
import tempfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TypeVar

import numpy as np

from ._version import __version__
from .errors import DomainError, ResourceLimitError
from .partitions import Composition, _partition_list, _partition_sequence_keys, format_d_key, format_seq_key, format_type_key
from .permutations import Permutation

__all__ = [
    "CountTable",
    "OracleResult",
    "sweep_pairs",
    "sweep_fixed_diagonal",
    "count_factorizations",
    "expected_k_cycles",
    "pairs_separating_prefix",
    "default_cache_dir",
    "HARD_LIMIT",
]

HARD_LIMIT = 9  # the pair sweep runs to this and never past it
DIAG_SWEEP_HARD_LIMIT = 10  # the fixed-diagonal sweep never runs past this: 0.5 s and 113 MB at n=10, x n per step
PLANE_SWEEP_LIMIT = 7  # (n-1)! * n! plane permutations; 3.6M at n=7

_ENV_CACHE_DIR = "LONGCYCLES_CACHE_DIR"

_SeqKey = tuple[tuple[int, ...], ...]  # block types: one cycle type per block of alpha
_T = TypeVar("_T")

_log = logging.getLogger("longcycles")


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "longcycles"


def _require_scale(what: str, n: int, limit: int) -> None:
    """The size guard of every sweep and suite: the one named ``what`` runs
    up to n = limit and never past it."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > limit:
        raise ResourceLimitError(f"{what} at n={n} is past its limit, n={limit}")


# ---------------------------------------------------------------------------
# the permutation universe at size n (0-based arrays, lex order = rank order)


def _perm_level(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The k! permutations of range(k) as rows of ``out``, in lexicographic
    order, from ``rows``, those of range(k - 1): for each first entry f in
    turn, f followed by ``rows`` with every entry >= f raised by one."""
    for f, block in enumerate(np.split(out, out.shape[1])):
        block[:, 0] = f
        np.add(rows, rows >= f, out=block[:, 1:])
    return out


def _all_perm_rows(n: int, tail: int = 0) -> np.ndarray:
    """Every tail!-th of the n! permutations of range(n) as rows, in
    lexicographic order: all of them when tail <= 1, and otherwise the
    lex-least permutation of each head of n - tail images."""
    if n <= tail:
        return np.arange(n)[None]
    rows = np.empty((math.factorial(n) // math.factorial(tail), n), dtype=np.int64)
    return _perm_level(_all_perm_rows(n - 1, tail), rows)


# rows of every per-n table per pass: permutations, their length rows, or
# cycle words.  Every n <= 7 table is one pass.  At n <= 10
# each temporary of a pass, (_PASS, n) int64, is at most 403 KB, so a pass
# works inside a 2 MB L2 cache, and the buffers of _length_codes are reused
# by every pass instead of being page-faulted in again
_PASS = math.factorial(7)


def _cycle_words(n: int) -> np.ndarray:
    """0-based words of all long cycles, each starting at 0, in lex order:
    the first (n-1)! rows of _all_perm_rows(n), 0 followed by the
    permutations of 1..n-1, built without the permutations of range(n - 1)."""
    if n < 2:
        return np.zeros((1, 1), dtype=np.int64)
    words = np.zeros((math.factorial(n - 1), n), dtype=np.int64)
    _perm_level(_all_perm_rows(n - 2), words[:, 1:])
    words[:, 1:] += 1
    return words


def _cycle_rows(words: np.ndarray) -> np.ndarray:
    """0-based one-line images of the long cycles with cycle words
    ``words``, rows of _cycle_words, in their order: each word maps every
    entry to the next one, cyclically."""
    rows = np.empty_like(words)
    for lo in range(0, len(words), _PASS):
        part = words[lo : lo + _PASS]
        np.put_along_axis(rows[lo : lo + _PASS], part, np.roll(part, -1, axis=1), axis=1)
    return rows


def _code(base: int, digits):
    """Base-``base`` code of a digit sequence, most significant digit first;
    the digits may be ints or equal-shape integer arrays (one digit position
    per array).  The empty sequence has code 0."""
    digits = iter(digits)
    code = next(digits, 0)
    for d in digits:
        code = code * base + d
    return code


# a permutation's last k = min(_TAIL, n) images are its tail, read as a
# pattern of S_k, and the first h = n - k its head.  Every lex rank is split
# there.  With k = 4 each head group of a whole pair sweep holds six of the 24
# patterns, and from n = 7 on the groups fall into 24 classes by them
_TAIL = 4


class _Split(NamedTuple):
    """The split of the permutations of range(n) after their first h
    images, their head; the last k = n - h are their tail:
    - ``places[j]``: the place value of image j in the base-n code of its
      part, the head or the tail;
    - ``prefix[code of a head]``: its lex index among the h-arrangements of
      range(n), times k!; ``suffix[code of a tail]``: the lex rank of its
      pattern; a lex rank is the sum of the two;
    - ``tail_of[code of a tail]``: its index among the k-arrangements of
      range(n) in lex order;
    - ``heads``, ``tails``: the columns of _split_sums for every head and
      every tail in lex order: row i holds the flat index of (position,
      image) of the i-th position of the part into an (n, n) digit table."""

    h: int
    places: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    tail_of: np.ndarray
    heads: np.ndarray
    tails: np.ndarray


@cache
def _split(n: int) -> _Split:
    """The _Split of n, after the first h = n - min(_TAIL, n) images: 1.3 MB
    at n = 9, and no table of n! or (n-1)! rows.  Memo: every kernel's
    chunks re-read it, 43 times; 1.1 ms a build at n = 7, 12 ms at 9."""
    h = n - min(_TAIL, n)
    k = n - h
    places = n ** np.r_[np.arange(h - 1, -1, -1), np.arange(k - 1, -1, -1)]
    heads, tails = (np.array(list(itertools.permutations(range(n), m)), dtype=np.int64) for m in (h, k))
    prefix = np.zeros(n**h, dtype=np.int64)
    prefix[heads @ places[:h]] = np.arange(len(heads)) * math.factorial(k)
    suffix, tail_of = np.zeros((2, n**k), dtype=np.int64)
    tail_of[tails @ places[h:]] = np.arange(len(tails))
    for values in itertools.combinations(range(n), k):
        for j, order in enumerate(itertools.permutations(values)):
            suffix[_code(n, order)] = j
    columns = ((part + np.arange(lo, lo + part.shape[1]) * n).T.copy() for part, lo in ((heads, 0), (tails, h)))
    return _Split(h, places, prefix, suffix, tail_of, *columns)


def _split_sums(digits: np.ndarray, split: _Split) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails) for ``digits`` (b, n, n), one table per word of a value
    for each position and image: ``heads[w, a]``, the sum over the first h
    positions i of digits[w, i, t(i)], t the a-th head of ``split``, and
    ``tails`` the same over the other positions and every tail."""
    flat = digits.reshape(len(digits), -1)
    heads, tails = (np.zeros((len(digits), part.shape[1]), dtype=np.int64) for part in (split.heads, split.tails))
    for sums, part in ((heads, split.heads), (tails, split.tails)):
        for column in part:
            sums += flat.take(column, axis=1)
    return heads, tails


def _lex_rank(n: int, columns):
    """Lex rank among all n! permutations of range(n).  ``columns[j]`` holds
    the image of j: an int, or an integer array ranking many permutations
    at once."""
    split = _split(n)
    return split.prefix[_code(n, columns[: split.h])] + split.suffix[_code(n, columns[split.h :])]


# the tables of the open run (_run_tables) by builder and arguments, else
# None.  Module state, not an object passed down, since the readers sit
# under calls that take only n and alpha, some memoized (_signatures,
# _diag_tallies, _pairs_alpha_tables)
_held: dict[tuple, object] | None = None


@contextmanager
def _run_tables() -> Iterator[None]:
    """Inside the block, _shared builds each table of n <= PLANE_SWEEP_LIMIT
    once, for every sweep, suite and tally; they are dropped when the block
    exits."""
    global _held
    _held = {}
    try:
        yield
    finally:
        _held = None


def _shared(build: Callable[..., _T], n: int, *args: object) -> _T:
    """``build(n, *args)``: the run's table (_run_tables), or a new one, which
    lives as long as its caller holds it.  A run holds only n <=
    PLANE_SWEEP_LIMIT, 473 KB at max_n = 7, while the n! rows of n = 9 alone
    take 26 MB.  Every suite and tally re-reads them: without them verify
    --max-n 7 --plane-max-n 6 took about 12% longer."""
    if _held is None or n > PLANE_SWEEP_LIMIT:
        return build(n, *args)
    key = (build, n, *args)
    if key not in _held:
        _held[key] = build(n, *args)
    return _held[key]


def _long_cycles(n: int) -> np.ndarray:
    """_cycle_rows of the cycle words of n."""
    return _cycle_rows(_shared(_cycle_words, n))


def _take(a: np.ndarray, indices: np.ndarray, out: np.ndarray | None, axis: int | None = None) -> np.ndarray:
    """a.take(indices), into ``out`` when given.  mode="clip" writes ``out``
    in place, where the default mode writes a copy first; every index the
    kernels take is in range by construction."""
    return a.take(indices, axis=axis, out=out, mode="clip")


def _length_codes(perms: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """``out[r]`` = the base-(n + 1) code of the length row of the column
    perms[:, r], for an (n, w) batch stored element first.  Entry x
    of the row counts the y whose cycle has least element x, so the code is
    the sum over y of (n + 1)^(n - 1 - low[y]): one gather of place values
    and one column sum.  low[y], the least element of y's cycle, is a
    running minimum over 2, 4, 8, ... consecutive elements of the cycle by
    pointer doubling.  ``work`` holds four buffers of at least n * w
    entries, which every pass of a table reuses."""
    n, w = perms.shape
    step, low, spare, other = (buf[: n * w].reshape(n, w) for buf in work)
    np.minimum(perms, np.arange(n)[:, None], out=low)  # the least of x and pi(x)
    np.multiply(perms, w, out=step)
    step += np.arange(w)  # the flat index of (pi(x), r)
    span = 2
    while span < n:
        step, other = _take(step.ravel(), step, other), step  # pi^span from pi^(span/2)
        np.minimum(low, _take(low.ravel(), step, spare), out=low)
        span *= 2
    places = (n + 1) ** np.arange(n - 1, -1, -1)
    np.sum(_take(places, low, spare), axis=0, out=out)


def _pass_buffers(n: int, m: int) -> np.ndarray:
    """The ``work`` of _length_codes for passes over m columns of n entries."""
    return np.empty((4, n * min(m, _PASS)), dtype=np.int64)


def _unique_rows(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows) for the _length_codes of n-entry length rows:
    ``rows`` holds the distinct rows in the order of their codes, decoded
    from the distinct codes, and ``ids[r]`` indexes the row of code r."""
    distinct, ids = np.unique(codes, return_inverse=True)
    rows = np.empty((len(distinct), n), dtype=np.int64)
    for x in range(n - 1, -1, -1):
        distinct, rows[:, x] = np.divmod(distinct, n + 1)
    return ids, rows


def _distinct_rows(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows) for an (n, m) batch stored element first: ``rows`` holds
    the distinct length rows, one per line, and ``ids[r]`` indexes
    the row of the column perms[:, r].  Only the codes outlive a pass."""
    n, m = perms.shape
    codes = np.empty(m, dtype=np.int64)
    work = _pass_buffers(n, m)
    for lo in range(0, m, _PASS):
        _length_codes(perms[:, lo : lo + _PASS], codes[lo : lo + _PASS], work)
    return _unique_rows(codes, n)


def _sep_prefixes(rows: np.ndarray) -> np.ndarray:
    """For each length row, one per line, the largest m with 1..m in
    pairwise distinct cycles: the number of its nonzero entries before its
    first 0."""
    return np.logical_and.accumulate(rows != 0, axis=1).sum(axis=1)


@cache
def _signatures(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sig, rows): ``rows`` holds the distinct length rows over all
    n! permutations, one per line, and ``sig[r]`` indexes the row of lex rank r.
    Memo, with n! entries (2.9 MB at n = 9): sweep chunks and key assignments
    re-read it, 131 times in sweep_pairs(8, alpha) for every alpha; 5.4 ms."""
    return _distinct_rows(_shared(_all_perm_rows, n).T)


@cache
def _signature_sums(n: int) -> np.ndarray:
    """The prefix sums of the rows of _signatures(n), which _keys reads.
    Memo: each key assignment re-reads it, 44 µs x 128 alphas at n = 8."""
    return np.cumsum(_signatures(n)[1], axis=1)


@cache
def _partition_codes(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(place, codes): a partition with m_i parts i has the code sum_i m_i
    place[i], mixed radix with m_i <= p // i; place[0] = 0, so that the empty
    entries of a length row add nothing, and ``codes`` holds the codes of
    _partition_list(p), negated so that they rise.  Memo: every key
    assignment re-reads it per block; about 50 µs a build at p = 8."""
    place = np.cumprod([1, 1, *(p // i + 1 for i in range(1, p + 1))])
    place[0] = 0
    parts = _partition_list(p)
    rows = np.array([c + (0,) * (p - len(c)) for c in parts], dtype=np.int64).reshape(len(parts), p)
    codes = -place[rows].sum(axis=1)
    place.flags.writeable = codes.flags.writeable = False
    return place, codes


def _partition_index(p: int, lengths: np.ndarray) -> np.ndarray:
    """The index in _partition_list(p) of each row of ``lengths`` (R, p), read
    as the partition of its nonzero entries: the block type of a block of p
    entries of length rows, and with p = n the cycle type."""
    place, codes = _partition_codes(p)
    return np.searchsorted(codes, -place[lengths].sum(axis=1))


class _Keys(NamedTuple):
    """The key assignment of a row set under a composition alpha: ``ids``,
    the alpha-separated rows; ``key_of[j]``, the key of row ids[j], the
    index of its block types in _partition_sequence_keys order (mixed
    radix, the last block fastest); and ``size``, the number of keys.  With
    alpha = (n) the keys are the cycle types, (lam,)."""

    ids: np.ndarray
    key_of: np.ndarray
    size: int


def _keys(rows: np.ndarray, sums: np.ndarray, alpha_parts: Sequence[int]) -> _Keys:
    """The _Keys of ``rows`` under alpha, folded block by block; ``sums``
    holds the prefix sums of the rows, np.cumsum(rows, axis=1)."""
    cuts = np.cumsum(alpha_parts)
    ids = np.flatnonzero((sums[:, cuts - 1] == cuts).all(axis=1))
    key_of, size = np.zeros(len(ids), dtype=np.int64), 1
    for part, cut in zip(alpha_parts, cuts):
        radix = len(_partition_list(part))
        key_of = key_of * radix + _partition_index(part, rows[ids, cut - part : cut])
        size *= radix
    return _Keys(ids, key_of, size)


def _key_sums(keys: _Keys, counts: np.ndarray) -> np.ndarray:
    """Entry k: the sum of ``counts[i]`` over the rows i of the assignment
    with key k, zero at a key that no row has."""
    totals = np.zeros((keys.size, *counts.shape[1:]), dtype=counts.dtype)
    np.add.at(totals, keys.key_of, counts[keys.ids])
    return totals


def _signature_keys(n: int, alpha_parts: tuple[int, ...]) -> _Keys:
    """The _Keys of the rows of _signatures(n) under alpha, which the pair
    counts and the plane tallies of (n, alpha) both read."""
    return _keys(_signatures(n)[1], _signature_sums(n), alpha_parts)


# ---------------------------------------------------------------------------
# the pair sweep: pair counts by product signature


def _pair_tables(n: int) -> tuple[np.ndarray, ...]:
    """(cyc_t, pairs, high, head_of, pattern_of, sources, least, head,
    masks): every table _fact_chunk reads besides _signatures(n), built anew
    by each sweep.  Over every long cycle c1, in _cycle_rows order, row x of
    ``cyc_t`` holds c1(x), and row x*n + y of ``pairs`` holds c1(x)*n +
    c1(y): two base-n digits of the code of every product at once.  ``high``
    is pairs times n^2, so that the code of images a, b, c, d is one add,
    high[ab] + pairs[cd].

    With the head and the tail of _split(n), of h and k = n - h images,
    ``head_of`` and ``pattern_of`` are its prefix over k! and its suffix
    times n!/k!, the number of heads: the lex index of the head and the lex
    rank of the tail's pattern times n!/k!.  Their sum is the pattern-major
    index, pattern * n!/k! + head, of the permutation of lex rank head * k!
    + pattern; ``sources`` is _pattern_sources(k), and row i of ``least``
    the lex-least permutation with head index i.

    The long cycles fall into head groups by their head: group g holds the
    long cycles with head index head[g], one for each pattern tau set in the
    bit mask masks[g].  The groups are in pattern-class order: by mask, and
    by head index within a class, so that a range of groups cuts at most
    the classes at its two ends."""
    cyc_t = _shared(_long_cycles, n).T.copy()
    pairs = (cyc_t[:, None, :] * n + cyc_t[None, :, :]).reshape(n * n, -1)
    split = _split(n)
    k = n - split.h
    block = math.factorial(k)
    heads = math.factorial(n) // block
    head_of, pattern_of = split.prefix // block, split.suffix * heads
    index = head_of[_code(n, cyc_t[: split.h])] + pattern_of[_code(n, cyc_t[split.h :])]
    masks = np.zeros(heads, dtype=np.int64)
    np.bitwise_or.at(masks, index % heads, 1 << index // heads)
    head = np.flatnonzero(masks)
    head = head[np.argsort(masks[head], kind="stable")]
    least = _shared(_all_perm_rows, n, k)
    sources = _shared(_pattern_sources, k)
    return cyc_t, pairs, pairs * (n * n), head_of, pattern_of, sources, least, head, masks[head]


def _pattern_sources(k: int) -> np.ndarray:
    """``sources[t, tau]`` = the lex rank s of the pattern with sigma_s∘tau =
    sigma_t, over the patterns of S_k in lex order: a permutation whose last
    k images have pattern s has pattern t there once composed with tau on
    those positions, and the same head."""
    perms = list(itertools.permutations(range(k)))
    rank = {sigma: s for s, sigma in enumerate(perms)}
    sources = np.empty((len(perms), len(perms)), dtype=np.int64)
    for s, sigma in enumerate(perms):
        for tau, t in enumerate(perms):
            sources[rank[tuple(sigma[x] for x in t)], tau] = s
    return sources


def _fact_chunk(n: int, tables: tuple[np.ndarray, ...], lo: int, hi: int) -> np.ndarray:
    """Entry i counts the pairs (c1, c2) whose product c1∘c2 has row i of
    _signatures(n), c1 any long cycle and c2 a long cycle of the head groups
    lo..hi-1 of ``tables``, _pair_tables(n).  Every product is composed and
    counted once, as (c1∘q)∘tau, with no symmetry of the counts.

    A head group holds the second factors with one head, their first h
    images in _split(n): c2 = q∘tau, q the lex-least permutation with that
    head (the head, then the other values in order) and tau the pattern of
    c2's last k = n - h images, acting on those positions.  Lex rank obeys
    rank(pi∘tau) = rank(pi) - rank(pi) mod k! + rank(sigma∘tau), sigma the
    pattern of pi's tail.  So the products c1∘q are ranked once per group, and
    the groups whose sets of patterns agree form a class, a run of the
    groups' order: one accumulator counts the products of all its groups by
    (pattern, head), and each pattern tau of the class adds it onto the
    counts with its pattern rows permuted by tau.  Those counts are added
    onto the signature rows once, at the end."""
    sig, rows = _signatures(n)
    cyc_t, pairs, high, head_of, pattern_of, sources, least, head, masks = tables
    h = _split(n).h
    block = math.factorial(n - h)
    heads = len(sig) // block

    def code(images):
        # column j of all products c1∘q is c1(q(j)): row q(j) of cyc_t, and
        # columns j, j+1 together are row q(j)*n + q(j+1) of the pair codes;
        # each four images are one add, and the one to three images before
        # the fours are a lone first image's row and a pair's row
        lead = len(images) % 4
        out = cyc_t[images[0]] if lead % 2 else 0
        if lead > 1:
            x, y = images[lead - 2 : lead]
            out = out * (n * n) + pairs[x * n + y] if lead == 3 else pairs[x * n + y]
        for j in range(lead, len(images), 4):
            a, b, c, d = images[j : j + 4]
            low = high[a * n + b] + pairs[c * n + d]
            out = out * n**4 + low if j else low
        return out

    acc = np.empty(len(sig), dtype=np.int64)  # counts by pattern-major index, one class at a time
    by_pattern = np.zeros((block, heads), dtype=np.int64)
    qs = least[head[lo:hi]]
    for mask, members in itertools.groupby(range(hi - lo), key=masks[lo:hi].tolist().__getitem__):
        acc[:] = 0
        for g in members:
            q = qs[g].tolist()
            np.add.at(acc, head_of[code(q[:h])] + pattern_of[code(q[h:])], 1)
        for tau in range(block):
            if mask >> tau & 1:
                by_pattern += acc.reshape(block, heads)[sources[:, tau]]
    out = np.zeros(len(rows), dtype=np.int64)
    np.add.at(out, sig.reshape(heads, block).T, by_pattern)
    return out


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(m: int, parts: int) -> list[tuple[int, int]]:
    """range(m) cut into min(parts, m) contiguous (lo, hi) ranges, at least
    one, whose lengths differ by at most one, the longer first."""
    p = max(1, min(parts, m))
    return [(-(-m * i // p), -(-m * (i + 1) // p)) for i in range(p)]


# the exit status of a child that ran out of memory
_MEMORY_EXIT = 3


def _share_sum(count: Callable[[int, int], np.ndarray], share: Sequence[tuple[int, int]]) -> np.ndarray:
    """The sum of count(lo, hi) over the chunks of a share, as a new int64 array."""
    total = np.array(count(*share[0]), dtype=np.int64)
    for lo, hi in share[1:]:
        total += count(lo, hi)
    return total


def _child(count: Callable[[int, int], np.ndarray], share: Sequence[tuple[int, int]], pipe: int) -> NoReturn:
    """Count a share of the chunks in a forked child, write the raw bytes of
    the sum to ``pipe`` and exit: it never returns into the parent's frames."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # an interrupt is the parent's to handle
        with open(pipe, "wb") as out:
            out.write(_share_sum(count, share).tobytes())
        status = 0
    except MemoryError:
        status = _MEMORY_EXIT
    except BaseException:
        import traceback

        # to the descriptor: sys.stderr may still hold text the parent wrote before the fork
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _chunk_sum(count: Callable[[int, int], np.ndarray], chunks: Sequence[tuple[int, int]], workers: int) -> np.ndarray:
    """The sum of count(lo, hi), int64 arrays of one shape, over the (lo, hi)
    in ``chunks``, counted by at most min(workers, _cpus()) processes.

    With P processes, process p counts chunks p, p + P, ...  This process
    forks the other P - 1, which inherit every table built before the call,
    counts its own share, then adds the raw sums the children write to their
    pipes.  A child that fails prints its traceback and exits; a child killed
    by a signal or out of memory raises ResourceLimitError here, any other
    failure RuntimeError naming its chunks.  Whatever is raised, here or by
    ``count`` in this process, every child is killed and reaped first.
    Without os.fork every chunk is counted here."""
    procs = max(1, min(workers, _cpus(), len(chunks))) if hasattr(os, "fork") else 1
    shares = [chunks[p::procs] for p in range(procs)]
    children = {}  # pid -> (read end of its pipe, its share), until it is reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(count, share, write)
            os.close(write)
            children[pid] = (open(read, "rb"), share)
        total = _share_sum(count, shares[0])
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            what = "the process counting chunks " + ", ".join(f"{lo}..{hi - 1}" for lo, hi in share)
            if code < 0:
                raise ResourceLimitError(f"{what} was killed by signal {-code}")
            if code == _MEMORY_EXIT:
                raise ResourceLimitError(f"{what} ran out of memory")
            if code != 0 or len(data) != total.nbytes:
                raise RuntimeError(f"{what} failed: exit status {code}, {len(data)} of {total.nbytes} bytes")
            total += np.frombuffer(data, dtype=np.int64).reshape(total.shape)
        return total
    finally:
        for pid, (pipe, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


_pair_counts_cache: dict[int, np.ndarray] = {}


def product_pair_counts(n: int, workers: int = 1) -> np.ndarray:
    """Entry i counts the ordered pairs of long cycles whose product has row
    i of _signatures(n): _fact_chunk over the head groups of the second
    factors, cut into one chunk per worker and summed by _chunk_sum.  Memo
    per n: every aggregation re-reads it; 37 ms a sweep at n = 8, 2.5 s at 9."""
    if n not in _pair_counts_cache:
        _require_scale("pair sweep", n, HARD_LIMIT)
        # built before any fork, so that the children inherit the tables
        # instead of each building its own.  The signatures first: their
        # build has the sweep's largest transients, so it holds nothing else
        _signatures(n)
        tables = _pair_tables(n)  # 55 MB at n = 9, freed when this returns
        chunks = _chunks(len(tables[-1]), workers)
        _pair_counts_cache[n] = _chunk_sum(partial(_fact_chunk, n, tables), chunks, workers)
    return _pair_counts_cache[n]


# ---------------------------------------------------------------------------
# aggregations over the pair counts


@cache
def _pair_array(n: int, alpha_parts: tuple[int, ...]) -> np.ndarray:
    """The ordered pairs whose product is alpha-separated, by block-type key
    (_Keys): the pair counts summed over the signatures' key assignment.
    Memo: _pairs_alpha_tables and the classic suite both read it; 0.07 ms a
    build at n = 8."""
    counts = product_pair_counts(n)  # first: the sweep's guard, before any signature is built
    table = _key_sums(_shared(_signature_keys, n, alpha_parts), counts)
    table.flags.writeable = False
    return table


@cache
def _pairs_alpha_tables(
    n: int, alpha_parts: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], int], dict[_SeqKey, int], int]:
    """(d-vector table, block-type table, separated total) over all pairs, without zero keys.
    Memo: the formulas suite re-reads it, 1,649 calls for 127 alphas; 0.1
    ms a build at n = 8."""
    d_table: dict[tuple[int, ...], int] = {}
    lam_table: dict[_SeqKey, int] = {}
    for key, cnt in zip(_partition_sequence_keys(alpha_parts), _pair_array(n, alpha_parts).tolist()):
        if cnt:
            d = tuple(len(c) for c in key)
            d_table[d] = d_table.get(d, 0) + cnt
            lam_table[key] = cnt
    return d_table, lam_table, sum(lam_table.values())


@cache
def _pairs_type_rows(n: int) -> dict[str, int]:
    """The rows of sweep_pairs' cycle_type table: every cycle type of n, zero
    counts included, keyed by its text form.  Memo: each sweep_pairs
    re-reads it, 6 µs x 129 calls over the alphas of 8."""
    return dict(zip(map(format_type_key, _partition_list(n)), _pair_array(n, (n,)).tolist()))


@cache
def _pairs_sep_prefix(n: int) -> dict[tuple[int, int], int]:
    """table[(m, k)] = pairs whose product has k cycles and 1..m separated.

    A row of _signatures(n) with k nonzero entries has 1..m separated for
    every m up to its _sep_prefixes entry p: by_k[k, p] sums the counts of
    the rows with that k and p, and the table sums by_k[k, p] over p >= m.
    Memo: pairs_separating_prefix re-reads it, 0.13 ms x n^2 at n = 8."""
    counts, rows = product_pair_counts(n), _signatures(n)[1]  # the counts first: the sweep's guard
    by_k = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.add.at(by_k, (np.count_nonzero(rows, axis=1), _sep_prefixes(rows)), counts)
    at_least = np.cumsum(by_k[:, ::-1], axis=1)[:, ::-1].tolist()  # at_least[k][m]: the sum over p >= m
    return {(m, k): at_least[k][m] for m in range(1, n + 1) for k in range(1, n + 1)}


def pairs_separating_prefix(n: int, m: int, k: int) -> int:
    """Ordered pairs of long cycles whose product has k cycles and keeps
    1..m in pairwise distinct cycles — by enumeration."""
    if not 1 <= m <= n or not 1 <= k <= n:
        raise DomainError("need 1 <= m <= n and 1 <= k <= n")
    return _pairs_sep_prefix(n)[(m, k)]


def expected_k_cycles(n: int, k: int) -> Fraction:
    """Average number of k-cycles in the product over all ordered pairs."""
    if k < 1:
        raise DomainError("need k >= 1")
    by_type = _pairs_alpha_tables(n, (n,))[1]
    hits = sum(cnt * lam.count(k) for (lam,), cnt in by_type.items())
    return Fraction(hits, math.factorial(n - 1) ** 2)


# ---------------------------------------------------------------------------
# fixed-diagonal sweep


def _diag_rows(n: int, d_image: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts) over the (n-1)! plane permutations with fixed diagonal,
    one per long cycle s, with vertical D⁻¹∘s: ``rows`` holds the distinct
    length rows of the verticals, and ``counts[i, a]`` counts those
    with row i and a exceedances."""
    d_inv = np.argsort([x - 1 for x in d_image])
    words = _shared(_cycle_words, n)
    cycles = _shared(_long_cycles, n)
    codes = np.empty(len(words), dtype=np.int64)  # of the verticals' length rows
    exceedances = np.empty(len(words), dtype=np.int64)
    work = _pass_buffers(n, len(words))
    for lo in range(0, len(words), _PASS):
        verticals = d_inv[cycles[lo : lo + _PASS]]  # row i: D⁻¹∘s for the i-th long cycle s
        pos = np.argsort(words[lo : lo + _PASS], axis=1)  # pos[i, x]: index of x in the word of s
        # each vertical has its own word, so the positions are gathered row by row
        np.sum(np.take_along_axis(pos, verticals, axis=1) > pos, axis=1, out=exceedances[lo : lo + _PASS])
        _length_codes(verticals.T, codes[lo : lo + _PASS], work)
    ids, rows = _unique_rows(codes, n)
    counts = np.bincount(ids * (n + 1) + exceedances, minlength=len(rows) * (n + 1))
    return rows, counts.reshape(len(rows), n + 1)


@cache
def _diag_tallies(n: int, d_image: tuple[int, ...], *alphas: tuple[int, ...]) -> tuple[dict[_SeqKey, list[int]], ...]:
    """Per alpha of ``alphas``, block types -> [count for a = 0..n]: plane
    permutations with fixed diagonal whose vertical is alpha-separated with
    those block types and has a exceedances, from one walk, _diag_rows.
    Memo of the tallies alone: the formulas suite re-reads a target's, 43
    times; 0.8 ms a build at n = 7, 180 ms at 10."""
    rows, counts = _diag_rows(n, d_image)
    tallies = []
    for alpha_parts in alphas:
        sums = _key_sums(_keys(rows, np.cumsum(rows, axis=1), alpha_parts), counts).tolist()
        tallies.append({key: by_a for key, by_a in zip(_partition_sequence_keys(alpha_parts), sums) if any(by_a)})
    return tuple(tallies)


def count_factorizations(target: Permutation) -> int:
    """Ordered pairs (c1, c2) of long cycles with c1∘c2 equal to the fixed
    target: the plane permutations with diagonal target whose vertical,
    target⁻¹∘c1 = c2⁻¹, is a long cycle — one per pair, none by conjugacy."""
    n = target.n
    _require_scale("fixed-diagonal sweep", n, DIAG_SWEEP_HARD_LIMIT)
    return sum(_diag_tallies(n, target.image, (n,))[0].get(((n,),), ()))


# ---------------------------------------------------------------------------
# full plane-permutation tallies, keyed by the diagonal's cycle type
#
# Unlike cycle-type tallies, block-type tallies are not invariant under
# conjugating the diagonal (conjugation scrambles the interval blocks), so
# counts refined by block type must enumerate every diagonal of a type, not
# one representative.  These sweeps walk all (n-1)! * n! pairs (s, pi).


# cycle words per numpy call of _plane_chunk: their part tables are built at
# once, and their bins share one buffer and one bincount.  At most
# _PLANE_WORDS, and at most _PLANE_COLUMNS word x q columns, so that each of
# the two per-batch buffers takes at most 11.6 MB: 16 words up to n = 8, and
# 4 at n = 9, where 16 took 46 MB each
_PLANE_WORDS = 16
_PLANE_COLUMNS = 4 * math.factorial(9)


def _plane_batch(n: int) -> int:
    """Cycle words per numpy call of _plane_chunk at n."""
    return max(1, min(_PLANE_WORDS, _PLANE_COLUMNS // math.factorial(n)))


def _plane_tables(n: int) -> tuple:
    """(words, cycles, tbx, sig_off, tail_of, places, luts): the tables of
    _plane_chunk.  Over q = pi⁻¹ in lex order: ``tail_of[q]``, the index of
    q's tail in _split(n), and ``sig_off[q]`` = sig[rank(q⁻¹)] * (n + 1).
    ``tbx[x]`` = type_base[x // (n + 1)] + x % (n + 1).  ``places[y]``: the
    split's place value of position y times one more than the size m of its
    part, so that a part's digits, s(q(y)) * places[y] + [y after q(y)],
    sum to code * (m + 1) + e; the head's and the tail's ``luts`` map that
    to the part's rank term * (n + 1) + e."""
    split = _split(n)
    h, k = split.h, n - split.h
    qs = _shared(_all_perm_rows, n)
    sig, rows = _signatures(n)
    type_of = _partition_index(n, rows)  # signature id -> type index
    tbx = ((type_of * (len(rows) * (n + 1)))[sig][:, None] + np.arange(n + 1)).ravel()
    sig_off = sig[_lex_rank(n, np.argsort(qs, axis=1).T)] * (n + 1)
    tail_of = split.tail_of[_code(n, qs[:, h:].T)]
    places = split.places * np.repeat([h + 1, k + 1], [h, k])
    parts = ((split.prefix, h), (split.suffix, k))
    luts = [(ranks[:, None] * (n + 1) + np.arange(m + 1)).ravel() for ranks, m in parts]
    return _shared(_cycle_words, n), _shared(_long_cycles, n), tbx, sig_off, tail_of, places, luts


def _plane_chunk(n: int, tables: tuple, lo: int, hi: int) -> np.ndarray:
    """The flat counts of _plane_codes(n) over cycle words lo..hi-1, from
    ``tables``, _plane_tables(n).  Per batch of words, one digit table per
    word gives the fused codes of every head and every tail (_split_sums,
    then the luts); per word, one gather and one broadcast add give every
    code, one gather from ``tbx`` and one add its bin."""
    words, cycles, tbx, sig_off, tail_of, places, (head_lut, tail_lut) = tables
    split = _split(n)
    groups = split.heads.shape[1]
    acc = np.zeros(len(_partition_list(n)) * len(_signatures(n)[1]) * (n + 1), dtype=np.int64)
    batch = _plane_batch(n)
    codes = np.empty((batch, len(sig_off)), dtype=np.int64)
    bins = np.empty_like(codes)
    for start in range(lo, hi, batch):
        s_img = cycles[start : min(start + batch, hi)]  # one word per line
        m = len(s_img)
        pos = np.argsort(words[start : start + m], axis=1)  # pos[w, x]: index of x in word w
        after = pos[:, :, None] > pos[:, None, :]  # after[w, y, x]: y after x in word w
        head, tail = _split_sums(s_img[:, None, :] * places[:, None] + after, split)
        x = _take(tail_lut.take(tail), tail_of, codes[:m], axis=1)
        grouped = x.reshape(m, groups, -1)  # a view: the q's of head group g are row g
        grouped += head_lut.take(head)[:, :, None]
        np.add(_take(tbx, x, bins[:m]), sig_off, out=bins[:m])
        acc += np.bincount(bins[:m].ravel(), minlength=acc.size)
    return acc


def _plane_codes(n: int, workers: int = 1) -> np.ndarray:
    """Counts over all plane permutations (s, pi), indexed by
    (diagonal type index, signature id of the vertical, exceedance count):
    _plane_chunk over the cycle words, one chunk per worker, summed by
    _chunk_sum.  With q = pi⁻¹ in lex order, the lex rank of s∘q and the
    exceedances, #{y : y after q(y) in the word}, are each a head term plus
    a tail term, fused as x = rank * (n + 1) + a; the bin is tbx[x] plus
    the vertical's signature offset."""
    _require_scale("full plane-permutation sweep", n, PLANE_SWEEP_LIMIT)
    tables = _plane_tables(n)
    acc = _chunk_sum(partial(_plane_chunk, n, tables), _chunks(math.factorial(n - 1), workers), workers)
    return acc.reshape(len(_partition_list(n)), len(_signatures(n)[1]), n + 1)


_plane_totals_cache: dict[int, np.ndarray] = {}


def _plane_totals(n: int, workers: int = 1) -> np.ndarray:
    """``totals[i, t]`` = (count, exceedances): the plane permutations whose
    vertical has signature id i and whose diagonal has type index t, and the
    sum of their exceedance counts; the same for every composition.  Only
    these totals are kept, not the sweep's (n + 1) times larger codes.  Memo
    per n, for the process: classic_reports and section3_reports re-read it
    outside a run too (the benchmark's traced verify job, the scalar-reference
    tests, where run-scoped totals took 12.4 s instead of 0.3 s)."""
    if n not in _plane_totals_cache:
        acc = _plane_codes(n, workers).swapaxes(0, 1)  # indexed by (signature id, type index, a)
        _plane_totals_cache[n] = np.stack((acc.sum(axis=2), acc @ np.arange(n + 1)), axis=2)
    return _plane_totals_cache[n]


def _plane_array(n: int, alpha_parts: tuple[int, ...]) -> np.ndarray:
    """``planes[k, t]`` = (count, exceedances): the plane permutations whose
    vertical is alpha-separated with block-type key k (_Keys) and whose
    diagonal has type index t, and the sum of their exceedance counts.
    With alpha = (n) the keys are the vertical's cycle types, (lam,)."""
    totals = _plane_totals(n)  # first: _plane_codes checks the sweep limit before any signature is built
    return _key_sums(_shared(_signature_keys, n, alpha_parts), totals)


# ---------------------------------------------------------------------------
# result objects, serialization, disk cache


class CountTable:
    """An ordered string-keyed table of exact integer counts."""

    def __init__(self, data: dict[str, int] | None = None):
        self._data: dict[str, int] = dict(data or {})

    def __getitem__(self, key: str) -> int:
        return self._data[key]

    def get(self, key: str, default: int = 0) -> int:
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._data))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountTable) and self._data == other._data

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._data.items())

    def total(self) -> int:
        return sum(self._data.values())

    def rows(self) -> list[list[str]]:
        """Counts as decimal strings, sorted by key — the JSON wire form."""
        return [[k, str(v)] for k, v in self.items()]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[str]]) -> "CountTable":
        return cls({k: int(v) for k, v in rows})

    def __repr__(self) -> str:
        return f"CountTable({self._data!r})"


@dataclass
class OracleResult:
    """One sweep's exact tallies, serializable with counts as strings."""

    n: int
    query: dict
    tables: dict[str, CountTable]
    total: int
    version: str = __version__

    def separated_total(self) -> int | None:
        if "d_vector" not in self.tables:
            return None
        return self.tables["d_vector"].total()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "query": self.query,
            "tables": {name: tab.rows() for name, tab in sorted(self.tables.items())},
            "total": str(self.total),
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "OracleResult":
        return cls(
            n=doc["n"],
            query=doc["query"],
            tables={name: CountTable.from_rows(rows) for name, rows in doc["tables"].items()},
            total=int(doc["total"]),
            version=doc["version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "OracleResult":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        lines = ["table,key,value"]
        for name, tab in sorted(self.tables.items()):
            for key, value in tab.items():
                lines.append(f'{name},"{key}",{value}')
        return "\n".join(lines) + "\n"


def _cache_path(cache_dir: Path, query: dict) -> Path:
    blob = json.dumps({"query": query, "version": __version__}, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"{query['kind']}-n{query['n']}-{digest}.json"


def _sha256(result: OracleResult) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def _load_cached(cache_dir: Path | None, query: dict, total: int) -> OracleResult | None:
    """The cached result of the query, or None.  A file that cannot be read
    or parsed, or whose sha256, query, version or totals disagree, is a miss;
    it is logged and will be overwritten."""
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, query)
    try:
        entry = json.loads(path.read_text())
        result, sha = OracleResult.from_dict(entry["result"]), entry["sha256"]
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _log.warning("cache miss: cannot read %s (%s: %s)", path, type(exc).__name__, exc)
        return None
    if (
        sha != _sha256(result)
        or result.query != query
        or result.version != __version__
        or result.total != total
        or "cycle_type" not in result.tables
        or result.tables["cycle_type"].total() != total
    ):
        _log.warning("cache miss: %s does not match its sha256, query, version or total", path)
        return None
    return result


def _store_cached(cache_dir: Path | None, result: OracleResult) -> None:
    """Write through a temporary file and ``os.replace``, so that a reader
    sees either the old file or the whole new one.  A cache that cannot be
    written is logged and skipped; the result stands without it."""
    if cache_dir is None:
        return
    path = _cache_path(cache_dir, result.query)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                entry = {"result": result.to_dict(), "sha256": _sha256(result)}
                fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        _log.warning("cache not written: cannot store %s (%s: %s)", path, type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# public sweeps


def sweep_pairs(
    n: int,
    alpha: Composition | None = None,
    *,
    workers: int = 1,
    cache_dir: Path | None = None,
) -> OracleResult:
    """Enumerate all ordered pairs of long cycles on [n].

    Tallies the product's cycle type always; with alpha, additionally tallies
    block-separated products by their d-vector and by their per-block cycle
    types.  The grand total is ((n-1)!)^2.
    """
    _require_scale("pair sweep", n, HARD_LIMIT)
    if alpha is not None and alpha.n != n:
        raise DomainError(f"composition {alpha} is not a composition of {n}")
    query = {"kind": "pairs", "n": n, "alpha": str(alpha) if alpha else None}
    total = math.factorial(n - 1) ** 2
    cached = _load_cached(cache_dir, query, total)
    if cached is not None:
        return cached
    product_pair_counts(n, workers)
    tables = {"cycle_type": CountTable(_pairs_type_rows(n))}  # its own copy of the rows
    if alpha is not None:
        d_table, lam_table, _ = _pairs_alpha_tables(n, alpha.parts)
        tables["d_vector"] = CountTable({format_d_key(d): c for d, c in d_table.items()})
        tables["alpha_type"] = CountTable({format_seq_key(k): c for k, c in lam_table.items()})
    result = OracleResult(n=n, query=query, tables=tables, total=total)
    _store_cached(cache_dir, result)
    return result


def sweep_fixed_diagonal(
    D: Permutation,
    alpha: Composition | None = None,
    *,
    cache_dir: Path | None = None,
) -> OracleResult:
    """Enumerate all plane permutations with the fixed diagonal D: one per
    long cycle s, with vertical D⁻¹∘s.

    Tallies verticals by cycle type, by (cycle type, exceedance count), and by
    non-trivial anti-exceedance count; with alpha, also by block type and
    (block type, exceedance count).  The grand total is (n-1)!.
    """
    n = D.n
    _require_scale("fixed-diagonal sweep", n, DIAG_SWEEP_HARD_LIMIT)
    if alpha is not None and alpha.n != n:
        raise DomainError(f"composition {alpha} is not a composition of {n}")
    query = {
        "kind": "fixed_diagonal",
        "n": n,
        "diagonal": D.one_line(),
        "alpha": str(alpha) if alpha else None,
    }
    total = math.factorial(n - 1)
    cached = _load_cached(cache_dir, query, total)
    if cached is not None:
        return cached
    alphas = [(n,)] if alpha is None else [(n,), alpha.parts]
    tallies = dict(zip(("cycle_type", "alpha_type"), _diag_tallies(n, D.image, *alphas)))
    counts: dict[str, Counter[str]] = {"ne": Counter()}
    for (lam,), by_a in tallies["cycle_type"].items():
        for a, cnt in enumerate(by_a):
            counts["ne"][f"ne={n - len(lam) - a}"] += cnt
    for name, tally in tallies.items():
        counts[name], counts[f"{name}_a"] = Counter(), Counter()
        for key, by_a in tally.items():
            for a, cnt in enumerate(by_a):
                counts[name][format_seq_key(key)] += cnt
                counts[f"{name}_a"][f"{format_seq_key(key)} a={a}"] = cnt
    tables = {name: CountTable(+table) for name, table in counts.items()}  # +: leaves out the zero cells
    result = OracleResult(n=n, query=query, tables=tables, total=total)
    _store_cached(cache_dir, result)
    return result
