"""The plane suite of :mod:`longcycles.verify`: its tables of each n
(_suite_counts) and its checks over a batch of cycle words, each word
against all n! verticals and against all (n-1)! diagonals times every legal
block transposition (_moves).

Each per-array quantity is a sum over positions, so it is a head term plus a
tail term, as in the oracle's plane sweep: per word, one digit table of a
value per position and image, summed over every head and every tail of the
one lex split of n (oracle._split_sums); per array, one gather from each
(_array_terms).  A transposed vertical is coded by one matrix product per
word and reads its cycle count by code (_transposed_codes), from the one
table of cycle counts by code of n, which the reflection identity reads as
well.  Every check compares two independent routes, and none reads the
numbers it checks from oracle._plane_codes; the split is oracle._split(n),
and the tables shared with the sweeps come from oracle._shared.

The plane suite imports this module when it first runs, so that a process
that never runs it does not load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import oracle


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
    low = oracle._take(least, table.masks, None, axis=1)
    rows = np.arange(0, b * n, n)[:, None]
    lowest = oracle._take(np.argsort(keys, axis=1).ravel(), low + rows, None)  # the element of the least key
    neighbours = oracle._take(neighbour, lowest + n * np.arange(len(low[0])), None)
    flags = low <= oracle._take(keys.ravel(), neighbours + rows, None)
    if flags.all():
        return np.broadcast_to(table.counts, (b, len(table.counts)))
    return np.add.reduceat(flags[:, table.ids], table.starts, axis=1, dtype=np.int64)


class _ArrayTables(NamedTuple):
    """What the per-array checks at one n read besides the words and the
    split, oracle._split(n), for the verticals pi (n, n!), the n!
    permutations in lex order, stored element first:
    - ``pi_parts``, ``inv_parts``: (2, n!), the lex index of the head and
      the index of the tail of each pi, and of each pi⁻¹;
    - ``cycles``: the _CycleTable of the verticals, which the diagonals
      read by rank as well;
    - ``c_pi``: the cycle counts of the verticals; ``counts``: the table of
      _counts_by_code."""

    pi_parts: np.ndarray
    inv_parts: np.ndarray
    cycles: _CycleTable
    c_pi: np.ndarray
    counts: np.ndarray


def _array_tables(
    perms: np.ndarray, perms_inv: np.ndarray, cycles: _CycleTable, c_pi: np.ndarray, counts: np.ndarray
) -> _ArrayTables:
    """The _ArrayTables of the verticals ``perms`` (n, n!), in lex order, and
    their inverses ``perms_inv``, stored element first, with the verticals'
    _CycleTable and cycle counts, and the cycle counts by code."""
    n = len(perms)
    split = oracle._split(n)
    block = math.factorial(n - split.h)

    def parts(columns: np.ndarray) -> np.ndarray:
        head = split.prefix[oracle._code(n, columns[: split.h])] // block
        return np.stack(np.broadcast_arrays(head, split.tail_of[oracle._code(n, columns[split.h :])]))

    return _ArrayTables(parts(perms), parts(perms_inv), cycles, c_pi, counts)


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
    per position and image, summed over every head and every tail
    (oracle._split_sums); per array, one gather from each.  pi's head and
    tail give the exceedances, x before pi(x), and the diagonal read off
    the array, which sends pi(x) to the top after x; pi⁻¹'s give s∘pi⁻¹,
    whose image of y is s(pi⁻¹(y)), and the reflected exceedances, y after
    s(pi⁻¹(y)) in the reflected word."""
    b, n = words.shape
    t = tables
    split = oracle._split(n)
    h = split.h
    pos = np.argsort(words, axis=1)  # pos[w, x]: the index of x in word w
    after = np.empty_like(words)  # the top after x in word w
    np.put_along_axis(after, words, np.roll(words, -1, axis=1), axis=1)
    refl = (n - pos) % n  # the index of x in the reflected word, w[0], w[n-1], ..., w[1]

    def terms(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # digits (q, b, n, n), by position and image: the (q, b, A) terms of every head and every tail
        head, tail = oracle._split_sums(digits.reshape(-1, n, n), split)
        return head.reshape(len(digits), b, -1), tail.reshape(len(digits), b, -1)

    # by pi's images: [x before v], and the top after x times the place of v
    full = n ** np.arange(n - 1, -1, -1)
    head, tail = terms(np.stack((pos[:, None, :] > pos[:, :, None], after[:, :, None] * full)))
    exc, read = oracle._take(head, t.pi_parts[0], None, axis=2) + oracle._take(tail, t.pi_parts[1], None, axis=2)
    # by pi⁻¹'s images: the rank code digit of s(v) at y, and [y after s(v) in the reflected word]
    s_refl = np.take_along_axis(refl, s_img, axis=1)
    head, tail = terms(np.stack((s_img[:, None, :] * split.places[:, None], refl[:, :, None] > s_refl[:, None, :])))
    hd, tl = t.inv_parts
    diag = oracle._take(head[0] * n ** (n - h), hd, None, axis=1) + oracle._take(tail[0], tl, None, axis=1)
    rank = oracle._take(split.prefix[head[0]], hd, None, axis=1) + oracle._take(split.suffix[tail[0]], tl, None, axis=1)
    exc_refl = oracle._take(head[1], hd, None, axis=1) + oracle._take(tail[1], tl, None, axis=1)
    trivial = _cycle_sums(pos, t.cycles, t.cycles.before)
    trivial_refl = _cycle_sums(refl, t.cycles, t.cycles.after)
    return _ArrayTerms(exc, trivial, read, diag, rank, exc_refl, trivial_refl)


def _array_bad_counts(words: np.ndarray, s_img: np.ndarray, tables: _ArrayTables) -> tuple[int, int, int]:
    """Failures of the three per-array checks over the arrays (word, pi) for
    every word of the batch ``words`` (b, n) and every vertical pi of
    ``tables``, from their _array_terms: the diagonal read off the array is
    s∘pi⁻¹; Ne = n - exc - trivial is n - C(pi) - exc; and Ne + Ne' =
    n + 1 - C(pi) - C(s∘pi⁻¹), with Ne' = n - exc_refl - trivial', which
    is exc + exc_refl + (trivial - C(pi)) + (trivial' - C(s∘pi⁻¹)) = n - 1.
    trivial' is read at the lex rank of s∘pi⁻¹ and C(s∘pi⁻¹) at its base-n
    code, so that a wrong rank shows."""
    n = words.shape[1]
    t = _array_terms(words, s_img, tables)
    diag_bad = np.count_nonzero(t.read != t.diag)
    ne_bad = np.count_nonzero(t.trivial != tables.c_pi)
    refl = np.take_along_axis(t.trivial_refl, t.rank, axis=1) - oracle._take(tables.counts, t.diag, None)
    refl += t.exc + t.exc_refl + (t.trivial - tables.c_pi)
    return diag_bad, ne_bad, np.count_nonzero(refl != n - 1)


# a block transposition hands pi(s_j), pi(s_k), pi(s_{i-1}) to s_{i-1}, s_j,
# s_k: the images by their index in (s_{i-1}, s_j, s_k), in turn
_TURN = (1, 2, 0)


class _Moves(NamedTuple):
    """The legal block transpositions h = (i, j, k) of a word of n entries,
    one per column, as positions in the word (0-based; a cycle word starts
    at 0):
    - ``src[t, h]``, the entry that sits at position t of the new word w';
    - ``next_src``, the same for position t + 1, cyclically;
    - ``image_src``, ``src`` with the positions of s_{i-1}, s_j, s_k
      overwritten by those whose images they take: the bottom of column t
      of the transposed array (w', pi') is pi(w[image_src[t, h]]);
    - ``moved``, (3, H): the positions i - 1, j, k of s_{i-1}, s_j, s_k, and
      ``turned`` = moved[_TURN], whose images they take."""

    src: np.ndarray
    next_src: np.ndarray
    image_src: np.ndarray
    moved: np.ndarray
    turned: np.ndarray


def _moves(n: int) -> _Moves:
    """The _Moves of n: every h with 1 <= i <= j < k <= n - 1."""
    hs = [(i, j, k) for i in range(1, n - 1) for j in range(i, n - 1) for k in range(j + 1, n)]
    i, j, k = np.array(hs, dtype=np.int64).reshape(-1, 3).T
    t = np.arange(n)[:, None]
    # position t of the new word reads word[t], shifted inside the two blocks
    src = np.where((t < i) | (t > k), t, np.where(t < i + k - j, t + j + 1 - i, t + j - k))
    moved = np.stack((i - 1, j, k))
    turned = moved[list(_TURN)]
    image_src = src.copy()
    # s_{i-1} stays at i - 1; s_j ends the moved block at k, s_k the other at i + k - j - 1
    image_src[np.stack((i - 1, k, i + k - j - 1)), np.arange(len(hs))] = turned
    return _Moves(src, src[(np.arange(n) + 1) % n], image_src, moved, turned)


class _TranspositionTables(NamedTuple):
    """What the transposition checks at one n read besides the words, the
    verticals and the cycle counts by code: the diagonals D (n, (n-1)!),
    stored element first, and the block transpositions (_moves)."""

    diags: np.ndarray
    moves: _Moves


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
    places = n ** np.arange(n - 1, -1, -1)  # of each image in the base-n code
    codes = np.matmul(places[source].astype(np.float32), verticals.astype(np.float32))
    return codes.astype(np.int64), places @ verticals


def _transposition_bad_count(
    words: np.ndarray, verticals: np.ndarray, tables: _TranspositionTables, counts: np.ndarray
) -> int:
    """Failures over every block transposition of every array (words[w],
    verticals[w, :, r]) whose diagonal is diags[:, r], in ``tables``, for
    the batch ``words`` (b, n), with ``counts`` the table of
    _counts_by_code.  The transposed array (w', pi') must keep
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
    sends = np.matmul(full, oracle._take(t.diags, verticals * m + np.arange(m), None))  # the code of D∘pi, (b, m)
    tops = words[:, t.moves.next_src] * full[words[:, t.moves.image_src]]
    moved = tops.sum(axis=1)  # the code of each h's function, (b, H)
    codes, source_codes = _transposed_codes(words, verticals, tables)
    delta = oracle._take(counts, codes, None) - oracle._take(counts, source_codes, None)[:, None]
    bad = (sends[:, None] != moved[:, :, None]) | (delta & 1 != 0) | (np.abs(delta) > 2)
    return int(np.count_nonzero(bad))


def _cycle_counts_by_rank(n: int) -> np.ndarray:
    """``cc[r]``: the number of cycles of the permutation of lex rank r,
    read off its length row (one nonzero entry per cycle)."""
    sig, rows = oracle._signatures(n)
    return (rows > 0).sum(axis=1)[sig]


def _counts_by_code(n: int, cc: np.ndarray) -> np.ndarray:
    """``counts[code]``: the cycle count of the permutation of each base-n
    code, from ``cc`` by lex rank, and -n at a code of no permutation."""
    counts = np.full(n**n, -n, dtype=np.int8)
    counts[oracle._code(n, oracle._shared(oracle._all_perm_rows, n).T)] = cc
    return counts


# arrays (word x vertical columns) per call of the checks, in at most 16
# words: 8 words at n = 7, 16 at n = 5 and 6, every word below.  A call
# keeps a few (words, n!) int64 terms and, over the 25,200 transpositions of
# each word at n = 7, about 25 bytes a transposition: 5 MB at 8 words.  16
# words at n = 7 were no faster, nor 56 words at n = 6, which held 2 MiB more
# than 16
_PLANE_ARRAYS = 8 * math.factorial(7)


def _suite_counts(n: int, workers: int) -> tuple[int, int, list[int]]:
    """(arrays, transpositions, bad) of the plane suite at n: the number of
    arrays (word, vertical) and of block transpositions of arrays (word,
    D⁻¹∘s) over every long cycle D, and the failures of the three per-array
    checks, then of the transpositions.  The failures are summed over one
    chunk of words per worker (oracle._chunk_sum), in batches of words
    (_PLANE_ARRAYS) inside a chunk; every table that does not depend on the
    words is built before the fork, the word-walk tables through
    oracle._shared."""
    words, cycles = oracle._shared(oracle._cycle_words, n), oracle._shared(oracle._long_cycles, n)
    rows = oracle._shared(oracle._all_perm_rows, n)
    batch = min(16, max(1, _PLANE_ARRAYS // len(rows)))  # words per call of the checks
    cc = _cycle_counts_by_rank(n)  # the verticals are in lex order, so cc holds their counts
    arrays = _array_tables(rows.T, np.argsort(rows, axis=1).T, _cycle_table(rows.T), cc, _counts_by_code(n, cc))
    moves = _moves(n)
    diags_inv = np.argsort(cycles, axis=1).T.copy()
    transpositions = _TranspositionTables(cycles.T.copy(), moves)

    def bad_counts(lo: int, hi: int) -> np.ndarray:
        bad = np.zeros(4, dtype=np.int64)
        for start in range(lo, hi, batch):
            part, s_img = words[start : min(start + batch, hi)], cycles[start : min(start + batch, hi)]
            bad[:3] += _array_bad_counts(part, s_img, arrays)
            if moves.src.size:
                bad[3] += _transposition_bad_count(part, diags_inv.take(s_img, axis=0), transpositions, arrays.counts)
        return bad

    bad = oracle._chunk_sum(bad_counts, oracle._chunks(len(words), workers), workers).tolist()
    return len(words) * len(rows), len(words) * len(cycles) * moves.src.shape[1], bad
