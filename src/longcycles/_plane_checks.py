"""The kernels of the plane suite of :mod:`longcycles.verify`: its checks
over a batch of cycle words, each word against all n! verticals and against
all (n-1)! diagonals times every legal block transposition.

Each per-array quantity is a sum over positions, so it is a head term plus a
tail term, as in the oracle's plane sweep: per word, one digit table of a
value per position and image, summed over every head and tail arrangement
(plane._part_sums); per array, one gather from each (_array_terms).  A
transposed vertical is coded by one matrix product per word and reads its
cycle count by code (_transposed_codes).  Every check compares two
independent routes; the tables shared with the sweeps come from
oracle._shared.

The plane suite imports this module when it first runs, so that a process
that never runs it does not load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import oracle, plane


class _CycleTable(NamedTuple):
    """The cycles of M permutations of range(n), as distinct cyclic
    sequences c: ``masks[c]``, the set of c's elements as bits;
    ``before[c n + x]`` and ``after[c n + x]``, the elements before and
    after x on c; ``ids``, the sequence of every cycle, the cycles of each
    permutation in one run; ``starts``, where the run of each permutation
    begins; and ``counts``, the number of cycles of each."""

    masks: np.ndarray
    before: np.ndarray
    after: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


def _cycle_table(perms: np.ndarray) -> _CycleTable:
    """The _CycleTable of the permutations ``perms`` (n, M), stored element
    first.  Each cycle is read from its least element x as x, pi(x),
    pi²(x), ..., and coded by its entries x + 1 as digits in base n + 1."""
    n, m = perms.shape
    orbit = np.empty((n + 1, n, m), dtype=np.int64)  # orbit[i, x, r]: pi_r^i(x)
    orbit[0] = np.arange(n)[:, None]
    for i in range(1, n + 1):
        orbit[i] = np.take_along_axis(perms, orbit[i - 1], axis=0)
    r, x = np.nonzero((orbit.min(axis=0) == orbit[0]).T)  # each cycle's least element, by permutation
    cycles = orbit[:, x, r]  # one cycle per column, from its least element, which step n reaches again
    inside = np.ones((n, len(r)), dtype=bool)  # step i is on the cycle before it returns
    inside[1:] = np.logical_and.accumulate(cycles[1:n] != cycles[0], axis=0)
    codes = (inside * (cycles[:n] + 1) * (n + 1) ** np.arange(n)[:, None]).sum(axis=0)
    _, first, ids = np.unique(codes, return_index=True, return_inverse=True)
    seqs, inside = cycles[:, first], inside[:, first]
    at = n * np.arange(len(first))  # the row of each distinct sequence in before and after
    before, after = np.zeros((2, n * len(first)), dtype=np.int64)
    after[(seqs[:n] + at)[inside]] = seqs[1:][inside]
    before[(seqs[1:] + at)[inside]] = seqs[:n][inside]
    masks = np.bitwise_or.reduce(np.where(inside, 1 << seqs[:n], 0), axis=0)
    counts = np.bincount(r, minlength=m)
    return _CycleTable(masks, before, after, ids, np.cumsum(counts) - counts, counts)


def _cycle_sums(keys: np.ndarray, table: _CycleTable, neighbour: np.ndarray) -> np.ndarray:
    """``sums[w, r]``: over the cycles of permutation r of ``table``, the
    number on which the element e of least key[w] has no larger key than
    neighbour(e), table.before or table.after, for keys[w] a permutation of
    range(n).  With the positions in the word as keys and ``before``,
    _classify's trivial anti-exceedances that are anti-exceedances: the
    preimage of each cycle's word-order minimum.  The least key of every
    set of elements is built up bit by bit, then one flag per word and
    distinct sequence; where a batch sets every flag, each sum is the number
    of cycles, read from the table."""
    b, n = keys.shape
    least = np.empty((b, 1 << n), dtype=np.int64)  # least[w, set]: the least key of the set's elements
    least[:, 0] = n
    for x in range(n):
        np.minimum(least[:, : 1 << x], keys[:, x, None], out=least[:, 1 << x : 2 << x])
    low = plane._take(least, table.masks, None, axis=1)
    rows = np.arange(0, b * n, n)[:, None]
    lowest = plane._take(np.argsort(keys, axis=1).ravel(), low + rows, None)  # the element of the least key
    neighbours = plane._take(neighbour, lowest + n * np.arange(len(low[0])), None)
    flags = low <= plane._take(keys.ravel(), neighbours + rows, None)
    if flags.all():
        return np.broadcast_to(table.counts, (b, len(table.counts)))
    return np.add.reduceat(flags[:, table.ids], table.starts, axis=1, dtype=np.int64)


class _ArrayTables(NamedTuple):
    """What the per-array checks at one n read besides the words, for the
    verticals pi (n, M), stored element first:
    - ``head``, ``tail``: the _part_sums columns of the k-arrangements of
      the last k = min(_TAIL, n) positions, and of the h = n - k first;
    - ``pi_parts``, ``inv_parts``: (2, M), the indices of the head and the
      tail arrangement of each pi, and of each pi⁻¹;
    - ``pi_cycles``: the _CycleTable of the verticals; ``lex_cycles``: that
      of the n! permutations in lex order, which the diagonals read by rank;
    - ``c_pi``: the cycle counts of the verticals; ``cc``: the table of
      _cycle_counts_by_rank."""

    head: np.ndarray
    tail: np.ndarray
    pi_parts: np.ndarray
    inv_parts: np.ndarray
    pi_cycles: _CycleTable
    lex_cycles: _CycleTable
    c_pi: np.ndarray
    cc: np.ndarray


def _array_tables(
    perms: np.ndarray,
    perms_inv: np.ndarray,
    pi_cycles: _CycleTable,
    c_pi: np.ndarray,
    lex_cycles: _CycleTable,
    cc: np.ndarray,
) -> _ArrayTables:
    """The _ArrayTables of the verticals ``perms`` (n, M) and their inverses
    ``perms_inv``, stored element first, with the verticals' _CycleTable
    and cycle counts, and those of the n! permutations in lex order; the
    rest is read from the tables of n."""
    n = len(perms)
    k = min(oracle._TAIL, n)
    h = n - k
    lex = oracle._shared(oracle._all_perm_rows, n)
    arrangements = lex[:: math.factorial(n - k), :k].copy()  # the heads of k images, in lex order
    index = np.zeros(n**k, dtype=np.int64)  # of each arrangement, by its base-n code
    index[oracle._code(n, arrangements.T)] = np.arange(len(arrangements))
    prefix = oracle._rank_tables(n)[0]

    def parts(columns: np.ndarray) -> np.ndarray:
        # the lex index of each head, its prefix rank over k!, and the index of each tail
        head = prefix[oracle._code(n, columns[:h])] // math.factorial(n - h)
        return np.stack(np.broadcast_arrays(head, index[oracle._code(n, columns[h:])]))

    return _ArrayTables(
        plane._part_columns(lex[:: math.factorial(k), :h], n), plane._part_columns(arrangements, n),
        parts(perms), parts(perms_inv), pi_cycles, lex_cycles, c_pi, cc,
    )


class _ArrayTerms(NamedTuple):
    """Per array (w, pi) of a batch of words, each (b, M): ``exc``, its
    exceedances, and ``trivial``, its trivial anti-exceedances that are
    anti-exceedances (_cycle_sums), so that Ne = n - exc - trivial;
    ``read``, the base-n code of the diagonal read off the array, column by
    column; ``diag`` and ``rank``, the code and the lex rank of s∘pi⁻¹;
    ``exc_refl``, the exceedances of the reflected array (s⁻¹, D⁻¹), D =
    s∘pi⁻¹.  And ``trivial_refl`` (b, n!), the trivial anti-exceedances of
    each reflected vertical that are anti-exceedances, by the rank of D."""

    exc: np.ndarray
    trivial: np.ndarray
    read: np.ndarray
    diag: np.ndarray
    rank: np.ndarray
    exc_refl: np.ndarray
    trivial_refl: np.ndarray


def _array_terms(words: np.ndarray, s_img: np.ndarray, tables: _ArrayTables) -> _ArrayTerms:
    """The _ArrayTerms of the arrays (word, pi) for every word of the batch
    ``words`` (b, n) and every vertical pi of ``tables``; ``s_img`` holds the
    words' one-line images.  Each count and code is a sum over positions, so
    it is a head term plus a tail term: per word, a digit table of a value
    per position and image, summed over every head and tail arrangement
    (plane._part_sums); per array, one gather from each.  pi's head and
    tail give the exceedances, x before pi(x), and the diagonal read off
    the array, which sends pi(x) to the top after x; pi⁻¹'s give s∘pi⁻¹,
    whose image of y is s(pi⁻¹(y)), and the reflected exceedances, y after
    s(pi⁻¹(y)) in the reflected word."""
    b, n = words.shape
    t = tables
    h = n - min(oracle._TAIL, n)
    pos = np.argsort(words, axis=1)  # pos[w, x]: the index of x in word w
    after = np.empty_like(words)  # the top after x in word w
    np.put_along_axis(after, words, np.roll(words, -1, axis=1), axis=1)
    refl = (n - pos) % n  # the index of x in the reflected word, w[0], w[n-1], ..., w[1]

    def terms(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # digits (q, b, n, n), by position and image: the (q, b, A) terms of every head and every tail arrangement
        q = len(digits) * b
        head = plane._part_sums(digits[:, :, :h].reshape(q, h, n), t.head)
        tail = plane._part_sums(digits[:, :, h:].reshape(q, n - h, n), t.tail)
        return head.reshape(len(digits), b, -1), tail.reshape(len(digits), b, -1)

    # by pi's images: [x before v], and the top after x times the place of v
    full = n ** np.arange(n - 1, -1, -1)
    head, tail = terms(np.stack((pos[:, None, :] > pos[:, :, None], after[:, :, None] * full)))
    exc, read = plane._take(head, t.pi_parts[0], None, axis=2) + plane._take(tail, t.pi_parts[1], None, axis=2)
    # by pi⁻¹'s images: the rank code digit of s(v) at y, and [y after s(v) in the reflected word]
    places = oracle._code_places(n).sum(axis=0)
    s_refl = np.take_along_axis(refl, s_img, axis=1)
    head, tail = terms(np.stack((s_img[:, None, :] * places[:, None], refl[:, :, None] > s_refl[:, None, :])))
    prefix, suffix = oracle._rank_tables(n)
    hd, tl = t.inv_parts
    diag = plane._take(head[0] * n ** (n - h), hd, None, axis=1) + plane._take(tail[0], tl, None, axis=1)
    rank = plane._take(prefix[head[0]], hd, None, axis=1) + plane._take(suffix[tail[0]], tl, None, axis=1)
    exc_refl = plane._take(head[1], hd, None, axis=1) + plane._take(tail[1], tl, None, axis=1)
    trivial = _cycle_sums(pos, t.pi_cycles, t.pi_cycles.before)
    trivial_refl = _cycle_sums(refl, t.lex_cycles, t.lex_cycles.after)
    return _ArrayTerms(exc, trivial, read, diag, rank, exc_refl, trivial_refl)


def _array_bad_counts(words: np.ndarray, s_img: np.ndarray, tables: _ArrayTables) -> tuple[int, int, int]:
    """Failures of the three per-array checks over the arrays (word, pi) for
    every word of the batch ``words`` (b, n) and every vertical pi of
    ``tables``, from their _array_terms: the diagonal read off the array is
    s∘pi⁻¹; Ne = n - exc - trivial is n - C(pi) - exc; and Ne + Ne' =
    n + 1 - C(pi) - C(s∘pi⁻¹), with Ne' = n - exc_refl - trivial', which
    is exc + exc_refl + (trivial - C(pi)) + (trivial' - C(s∘pi⁻¹)) = n - 1."""
    n = words.shape[1]
    t = _array_terms(words, s_img, tables)
    diag_bad = np.count_nonzero(t.read != t.diag)
    ne_bad = np.count_nonzero(t.trivial != tables.c_pi)
    refl = np.take_along_axis(t.trivial_refl - tables.cc, t.rank, axis=1)  # trivial' - C(s∘pi⁻¹)
    refl += t.exc + t.exc_refl + (t.trivial - tables.c_pi)
    return diag_bad, ne_bad, np.count_nonzero(refl != n - 1)


class _TranspositionTables(NamedTuple):
    """What the transposition checks at one n read besides the words and
    the verticals: the diagonals D; the block transpositions
    (plane._moves); ``places``, the place value of each image in the
    base-n code, from the rank code places (oracle._code_places);
    and ``counts``, the cycle count of the permutation of each base-n code
    (from the table of _cycle_counts_by_rank), and -n at a code of no
    permutation."""

    diags: np.ndarray
    moves: plane._Moves
    places: np.ndarray
    counts: np.ndarray


def _transposition_tables(
    diags: np.ndarray, moves: plane._Moves, places: np.ndarray, cc: np.ndarray
) -> _TranspositionTables:
    """The _TranspositionTables of the diagonals ``diags`` (n, (n-1)!),
    stored element first, with the rank code places ``places`` and the
    cycle counts ``cc`` by lex rank."""
    n = len(diags)
    counts = np.full(n**n, -n, dtype=np.int8)
    counts[oracle._code(n, oracle._shared(oracle._all_perm_rows, n).T)] = cc
    return _TranspositionTables(diags, moves, places[0] * n ** min(oracle._TAIL, n) + places[1], counts)


def _transposed_codes(
    words: np.ndarray, verticals: np.ndarray, tables: _TranspositionTables
) -> tuple[np.ndarray, np.ndarray]:
    """The base-n codes of pi' (b, H, (n-1)!) and of pi (b, (n-1)!) over
    every block transposition of every array (words[w], pi =
    verticals[w, :, r]).  pi' takes at s_{i-1}, s_j, s_k the images of the
    elements turned onto them, so pi'(y) = pi(rho(y)), and its code is the
    sum over x of pi(x) times the place value of rho⁻¹(x): one product of
    an (H, n) matrix per word with the word's verticals (n, (n-1)!), in
    float32, which is exact below 2^24 >= n^n."""
    b, n = words.shape
    t = tables
    hs = t.moves.moved.shape[1]
    source = np.broadcast_to(np.arange(n), (b, hs, n)).copy()  # source[w, h, x] = rho⁻¹(x)
    turned, moved = (words[:, rows].transpose(0, 2, 1) for rows in (t.moves.turned, t.moves.moved))
    np.put_along_axis(source, turned, moved, axis=2)
    codes = np.matmul(t.places[source].astype(np.float32), verticals.astype(np.float32))
    return codes.astype(np.int64), t.places @ verticals


def _transposition_bad_count(words: np.ndarray, verticals: np.ndarray, tables: _TranspositionTables) -> int:
    """Failures over every block transposition of every array (words[w],
    verticals[w, :, r]) whose diagonal is diags[:, r], in ``tables``, for
    the batch ``words`` (b, n).  The transposed array (w', pi') must keep
    that diagonal: D(pi'(w'[t])) = w'[t + 1] at every t.  As pi'(w'[t]) is
    pi(w[image_src[t]]), that says f = D∘pi, one function per array, sends
    each w[image_src[t]] to w[next_src[t]], one function per h, as
    image_src[:, h] reads every position once; the check compares their
    base-n codes.  And the cycle count of pi', read by its
    _transposed_codes, moves by -2, 0 or 2."""
    b, n = words.shape
    t = tables
    m = verticals.shape[2]
    full = n ** np.arange(n - 1, -1, -1)
    sends = np.matmul(full, plane._take(t.diags, verticals * m + np.arange(m), None))  # the code of D∘pi, (b, m)
    tops = words[:, t.moves.next_src] * full[words[:, t.moves.image_src]]
    moved = tops.sum(axis=1)  # the code of each h's function, (b, H)
    codes, source_codes = _transposed_codes(words, verticals, tables)
    delta = plane._take(t.counts, codes, None) - plane._take(t.counts, source_codes, None)[:, None]
    bad = (sends[:, None] != moved[:, :, None]) | (delta & 1 != 0) | (np.abs(delta) > 2)
    return int(np.count_nonzero(bad))
