"""Block-type key spaces and the int64 columns of the classic, section3 and
baserecur identity suites of :mod:`longcycles.verify`.

The block types (keys) of every composition of a total are laid out one
composition after another, and their z, odd-split sum, weight and length,
their odd splits and their down-arrow steps are folded block by block into
index arrays (_key_columns, _key_moves).  Each block's own tables come from
one int64 pass per block size over the multiplicity vectors of its
partitions (_block_tables); the scalar routines of
:mod:`longcycles.partitions` are the public API and the tests' reference,
and verify never calls them.  The oracle's plane tallies and pair
counts are dense arrays in the same key order (oracle._plane_array,
oracle._pair_array), so each side of an identity is a sum over split or step
rows, with no Python loop per instance, taken exactly once a bound in Python
ints shows that every column stays below 2**62 (_require_exact,
_require_int64).  The suites build their _ReportBlocks from what this module
returns: identity names, codes, both sides doubled, and the texts.

The suites import this module when they first run, so that a process that
never runs them does not load it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Sequence
from functools import cache, partial

import numpy as np

from . import formulas, oracle
from .errors import ResourceLimitError
from .partitions import _compositions, _partition_list, format_d_key, format_type_key


# ---------------------------------------------------------------------------
# key spaces: the block types of every composition of a total m, each
# composition's keys in _partition_sequence_keys order (mixed radix, the last
# block fastest), one composition after another in _compositions order, with
# the per-key columns and moves that the suites read, all as int64 arrays


def _grouped(copies: int, sizes: np.ndarray) -> np.ndarray:
    """Where each entry of a (copies, sum(sizes)) array goes when its
    columns are cut into segments of ``sizes`` and each segment's rows are
    laid out together, segment by segment."""
    ends = np.cumsum(sizes)
    start, size = np.repeat(ends - sizes, sizes), np.repeat(sizes, sizes)
    return np.arange(copies)[:, None] * size + ((copies - 1) * start + np.arange(ends[-1]))


def _rows(groups: list[tuple]) -> np.ndarray:
    """The groups, each a tuple of k columns that broadcast to one shape, as
    the rows of one (k, total) int64 array, one group after another, each
    column written once, straight into its place."""
    shapes = [np.broadcast(*group).shape for group in groups]
    out, lo = np.empty((len(groups[0]), sum(map(math.prod, shapes))), dtype=np.int64), 0
    for group, shape in zip(groups, shapes):
        for row, column in zip(out[:, lo : lo + math.prod(shape)], group):
            row.reshape(shape)[...] = column
        lo += math.prod(shape)
    return out


@cache
def _block_tables(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the partitions c of a block size p, by index in
    _partition_list order, in one int64 pass over their multiplicity matrix
    (row c, column i: the parts of c equal to i): the columns (z, S, weight,
    length), (4, P); the odd splits (3, R), rows (c, mu, kappa); and the
    down-arrow steps of a block of size p (5, T), rows (c, its shrunk
    partition of p - 1, twice the coefficient, the part times its
    multiplicity, part), each c's largest part first.

    An odd split cuts a part v of c into sigma, a partition of v into an odd
    number >= 3 of parts: mu = c - e_v + sigma, kappa = prod_i C(mu_i,
    sigma_i), and S = sum kappa z(mu).  v exceeds every part of sigma, so
    each (c, mu) comes from one (v, sigma).  A step shrinks a part j >= 2,
    and twice its coefficient is p (j - 1) times the (j - 1)-parts after it.
    Exact to p = 20, as 20! < 2**63.  Memo: the key columns and moves,
    baserecur's columns, the classic blocks, _split_sides and _require_int64
    re-read it, 168 of 181 reads in verify --max-n 7, whose 13 builds (p <=
    12) take about 3 ms."""
    parts = _partition_list(p)
    length = np.fromiter(map(len, parts), np.int64, len(parts))
    mults = np.zeros((len(parts), p + 2), dtype=np.int64)  # columns 0..p + 1: column 1 exists at p = 0
    np.add.at(mults, (np.repeat(np.arange(len(parts)), length), np.fromiter(itertools.chain(*parts), np.int64)), 1)
    # m_i <= p // i: these place values code each partition, m_p the top digit, so codes fall along _partition_list
    radix = np.cumprod([1, 1, *(p // i + 1 for i in range(1, p + 1))])
    codes = mults @ radix
    # sigma, a partition of v = p - t, as the partition of p with t more ones
    t = np.arange(p + 1)
    odd = length[:, None] - t
    s, t = np.nonzero((t <= mults[:, 1:2]) & (odd % 2 == 1) & (odd >= 3))
    sigma = mults[s]
    sigma[:, 1] -= t
    c, q = np.nonzero(mults[:, p - t] > 0)
    sigma = sigma[q]
    mu = mults[c] + sigma - (np.arange(p + 2) == p - t[q, None])  # less e_v, v = p - t
    fact = np.array([math.factorial(k) for k in range(p + 1)], dtype=np.int64)
    kap = (fact[mu] // (fact[sigma] * fact[mu - sigma])).prod(axis=1)
    mu = np.searchsorted(-codes, -(mu @ radix))
    z = math.factorial(p) // (np.arange(p + 2) ** mults * fact[mults]).prod(axis=1)
    columns = np.stack([z, _sums_by(c, kap * z[mu], len(parts)), p - mults[:, 1], length])
    splits = np.stack([c, mu, kap])
    c, j = np.nonzero(mults[:, p:1:-1] > 0)
    j = p - j
    # the partitions of p - 1 are those of p with a 1, less one 1
    shrunk = np.searchsorted(1 - codes[mults[:, 1] > 0], radix[j] - radix[j - 1] - codes[c])
    steps = np.stack([c, shrunk, p * (j - 1) * (mults[c, j - 1] + 1), j * mults[c, j], j])
    for table in (columns, splits, steps):
        table.flags.writeable = False
    return columns, splits, steps


def _first_blocks(total: int, folded: list[np.ndarray]) -> list[tuple[int, int]]:
    """(first, width) per first block of the keys of ``total``, from total
    down to 1, with ``folded`` the columns of every smaller total: the keys
    with that first block are the next ``width`` in key order."""
    return [(first, len(_partition_list(first)) * folded[total - first].shape[1]) for first in range(total, 0, -1)]


def _fold_first(piece: np.ndarray, rest: np.ndarray, rest_sizes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out``, (4, P * R), the columns (z, S, weight, length) of
    the keys whose first block is one of the P pieces ``piece`` (the columns
    of _block_tables) and whose other blocks are one of the R keys ``rest``
    (4, R) of a smaller total, whose compositions have ``rest_sizes`` keys
    each; return the key count of each composition of the segment.

    z multiplies, S = sum_i S_i z / z_i, the odd splits' z, folds as S' z +
    z' S, and the weight and the length add.  The outer product is laid out
    by _grouped, so that every composition's keys stay together, the last
    block fastest."""
    z, s, w, length = piece[:, :, None]
    rz, rs, rw, rlength = rest[:, None, :]
    at = _grouped(len(z), rest_sizes)
    out[0, at] = z * rz
    out[1, at] = s * rz + z * rs
    out[2, at] = w + rw
    out[3, at] = length + rlength
    return len(z) * rest_sizes


def _key_columns(max_n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per total m = 0..max_n: the columns (z, S, weight, length) of every key
    of the key space of m, and the key count of each of its compositions.

    The keys of the compositions of m with first block ``first`` = m..1 are
    the outer products of the pieces of ``first`` with the keys of m -
    first, one segment each (_fold_first)."""
    folded = [np.array([[1], [0], [0], [0]], dtype=np.int64)]
    sizes = [np.ones(1, dtype=np.int64)]
    for total in range(1, max_n + 1):
        blocks = _first_blocks(total, folded)
        out, lo, segments = np.empty((4, sum(width for _first, width in blocks)), dtype=np.int64), 0, []
        for first, width in blocks:
            rest, rest_sizes = folded[total - first], sizes[total - first]
            segments.append(_fold_first(_block_tables(first)[0], rest, rest_sizes, out[:, lo : lo + width]))
            lo += width
        folded.append(out)
        sizes.append(np.concatenate(segments))
    return folded, sizes


def _key_moves(max_m: int, sizes: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per total m = 0..max_m, the odd splits and the down-arrow steps of the
    keys of m, with ``sizes`` from _key_columns: splits (3, R), rows (key,
    split key, kappa), one per odd split of one block; steps (6, T), rows
    (key, the shrunk key among those of m - 1, twice the coefficient, the
    part times its multiplicity, block index, part), each key's steps in
    _shrink_steps order.

    Folded as _key_columns folds: a move of the first block moves its piece
    and keeps the rest, and a move of the rest keeps the piece and moves the
    rest as the moves of m - first do."""
    moves = [(np.empty((3, 0), dtype=np.int64), np.empty((6, 0), dtype=np.int64))]
    below: dict[int, np.ndarray] = {}  # the places of m - 1
    for m in range(1, max_m + 1):
        splits, steps, places, lo = [], [], {}, 0
        for first in range(m, 0, -1):
            # at[d, j]: the key with piece d of ``first`` and key j of m - first
            at = places[first] = lo + _grouped(len(_partition_list(first)), sizes[m - first])
            lo += at.size
            _pieces, (c, mu, kap), own_steps = _block_tables(first)
            splits.append((at[c], at[mu], kap[:, None]))
            key, split, kap = moves[m - first][0]
            splits.append((at[:, key], at[:, split], kap))
            c, shrunk, *columns = own_steps
            if c.size:  # a step of the first block leaves m - 1 with first block ``first - 1``
                twice, mult, part = (column[:, None] for column in columns)
                steps.append((at[c], below[first - 1][shrunk], twice, mult, 0, part))
            key, shrunk, twice, mult, block, part = moves[m - first][1]
            if key.size:
                steps.append((at[:, key], below[first][:, shrunk], twice, mult, block + 1, part))
        steps = _rows(steps) if steps else moves[0][1]
        moves.append((_rows(splits), steps[:, np.lexsort((-steps[5], steps[4], steps[0]))]))
        below = places
    return moves


def _seq_texts(total: int, prefix: str) -> Iterator[str]:
    """The text of every key of total, in key order: ``prefix``, the
    composition and its blocks' texts, "N=3 alpha=(2,1) Lam=1+1 | 1" for
    the prefix "N=3 ".  Each leading text is built once per composition and
    shared by every partition of the last block."""
    texts = [list(map(format_type_key, _partition_list(p))) for p in range(total + 1)]
    leads = [[text + " | " for text in by_p] for by_p in texts]
    for alpha in _compositions(total):
        mids = [f"{prefix}alpha={format_d_key(alpha)} Lam="]
        for p in alpha[:-1]:
            mids = [mid + lead for mid in mids for lead in leads[p]]
        for mid in mids:
            for last in texts[alpha[-1]]:
                yield mid + last


def _sums_by(rows: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """out[i] = the sum of the ``terms`` whose row is i, for i < size."""
    out = np.zeros((size, *terms.shape[1:]), dtype=np.int64)
    np.add.at(out, rows, terms)
    return out


def _odd_split_sums(splits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per key, the sum of kappa times ``values`` (indexed by key first) over
    its odd splits, from splits (3, R) as _key_moves gives them."""
    key, split, kap = splits
    return _sums_by(key, kap.reshape(-1, *[1] * (values.ndim - 1)) * values[split], len(values))


def _largest_row_sum(rows: np.ndarray, weights: np.ndarray) -> int:
    """The largest sum of ``weights`` over one row, 0 with no rows."""
    return int(_sums_by(rows, weights, int(rows.max(initial=-1)) + 1).max(initial=0))


def _require_exact(n: int, moves: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """Raise ResourceLimitError unless every side of classic and section3 at
    n, doubled, stays below 2**62, so that their int64 columns are exact: a
    bound in Python ints on the sum of every term that any side adds, from
    the largest count each term can read ((n-1)! n! plane permutations, n
    times as many exceedances, ((n-1)!)^2 pairs, z <= (n+1)!) and the
    largest row sums of the split and step matrices (_key_moves).  Block
    deletion's left sides add C(b, 2) times a pair count over the blocks b
    of a composition of n + 1, at most C(n + 1, 2) counts, and its right
    sides are (n-1)! times a product of Stirling numbers or factorials of
    the blocks, at most (n-1)! (n+1)!.  Returns the bound on the doubled
    sides."""
    fact = math.factorial(n - 1)
    planes, pairs, closed = fact * math.factorial(n), fact * fact, fact * math.factorial(n + 1)
    split, split_up = (_largest_row_sum(splits[0], splits[2]) for splits, _steps in moves[n : n + 2])
    steps = moves[n + 1][1]
    step, coefficient = _largest_row_sum(steps[0], steps[2]), int(steps[2].max(initial=0))
    pair_terms = (n + 1 + split) * (1 + coefficient + step) + split_up * step
    bound = (3 * n + 2 * split) * planes + pair_terms * pairs + 2 * (n + 1 + split) * closed
    bound = max(bound, math.comb(n + 1, 2) * pairs, closed)  # and block deletion's
    if 2 * bound >= 2**62:
        raise ResourceLimitError(f"the classic and section3 suites at n={n} would overflow int64")
    return 2 * bound


@cache
def _key_spaces(max_m: int) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """The columns (_key_columns) and the moves (_key_moves) of the keys of
    every total up to max_m: partition algebra only, which classic and
    section3 share, read-only since every caller gets the same arrays.
    Memo: section3 re-reads classic's, 4.5 ms a build at max_m = 8."""
    columns, sizes = _key_columns(max_m)
    moves = _key_moves(max_m, sizes)
    for array in (*columns, *itertools.chain.from_iterable(moves)):
        array.flags.writeable = False
    return columns, moves


def _suite_keys(max_n: int) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """_key_spaces(max_n + 1), for classic and section3 at n = 2..max_n,
    once _require_exact has shown that each n is exact in int64."""
    columns, moves = _key_spaces(max_n + 1)
    for n in range(2, max_n + 1):
        _require_exact(n, moves)
    return columns, moves


class _KeyTexts(Sequence):
    """The instance texts of a block of classic or section3, each a head per
    key (or diagonal type) followed by a part per diagonal type or step.
    Only the index of each report's head and part is held; ``build()``
    gives the two lists of texts, on the first read, and they are kept."""

    __slots__ = ("build", "head_of", "part_of", "_texts")

    def __init__(self, build: Callable[[], tuple[list[str], list[str]]], head_of: np.ndarray, part_of: np.ndarray):
        self.build, self.head_of, self.part_of, self._texts = build, head_of, part_of, None

    def __len__(self) -> int:
        return len(self.head_of)

    def texts(self) -> tuple[list[str], list[str]]:
        if self._texts is None:
            self._texts = self.build()
        return self._texts

    def __getitem__(self, i: int) -> str:
        heads, parts = self.texts()
        return heads[self.head_of[i]] + parts[self.part_of[i]]

    def __iter__(self) -> Iterator[str]:
        heads, parts = self.texts()
        for head, part in zip(self.head_of.tolist(), self.part_of.tolist()):
            yield heads[head] + parts[part]


def _ordered_block(names: tuple[str, ...], segments: list[tuple], build: Callable) -> tuple:
    """The fields of a _ReportBlock (names, codes, twice lhs, twice rhs,
    texts) from ``segments``, one per identity: (code, order, head, part,
    twice lhs, twice rhs), whose arrays broadcast to one shape, put in the
    suite's order by a stable sort on ``order``, so that reports of equal
    order keep the order of their segments."""
    code, order, head, part, lhs, rhs = _rows(segments)
    at = np.argsort(order, kind="stable")
    return names, code[at].astype(np.int8), lhs[at], rhs[at], _KeyTexts(build, head[at], part[at])


# ---------------------------------------------------------------------------
# the split recurrences: twice both sides at every key and diagonal type, with
# plane-permutation counts read from the oracle


def _split_sides(
    n: int, planes: np.ndarray, length: np.ndarray, splits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(split lhs, split rhs, joint lhs, joint rhs), doubled, each (keys,
    diagonal types), from the keys' plane tallies (oracle._plane_array), their
    lengths and their odd splits.  The joint split clears the exceedances
    and splits the diagonal type too, by the odd splits of the partitions of
    n, whose lengths lead ``length``: the keys of alpha = (n) come first."""
    count, exceedances = 2 * planes[..., 0], 2 * planes[..., 1]
    etas = count.shape[1]
    split_rhs = _odd_split_sums(splits, count)
    joint_rhs = split_rhs + _odd_split_sums(_block_tables(n)[1], count.T).T
    split_lhs = (n - length)[:, None] * count - exceedances
    joint_lhs = (n + 1 - length[:etas] - length[:, None]) * count
    return split_lhs, split_rhs, joint_lhs, joint_rhs


def _long_sides(n: int, pairs: np.ndarray, split_pairs: np.ndarray, z: np.ndarray, length: np.ndarray):
    """The split recurrence for a long-cycle diagonal over pair counts, which
    needs n - length even: the keys where it does, and twice both sides there."""
    keep = np.flatnonzero((length - n) % 2 == 0)
    lhs = 2 * (n + 1 - length[keep]) * pairs[keep]
    return keep, lhs, 2 * (split_pairs[keep] + math.factorial(n - 1) * z[keep])


# ---------------------------------------------------------------------------
# classic suite: the split recurrences in the one-block case alpha = (n),
# where the block types of the vertical are its cycle type

_CLASSIC = ("split_exceedance", "split_exceedance_dual", "split_joint", "split_long")


def _classic_texts(n: int) -> tuple[list[str], list[str]]:
    texts = [format_type_key(eta) for eta in _partition_list(n)]
    heads = [f"n={n} eta={text}" for text in texts] + [f"n={n} lam={text}" for text in texts]
    return heads, ["", *(f" lam={text}" for text in texts)]


def _classic_block(n: int, columns: list[np.ndarray]) -> tuple:
    """The block of classic at n (_ordered_block): per diagonal type eta and
    vertical type lam, the split at (lam, eta), the same recurrence with the
    roles of the two types swapped, and the joint split; then the long-cycle
    split per lam."""
    etas = len(_partition_list(n))
    z, _s, _w, length = columns[n][:, :etas]  # the keys of alpha = (n), (lam,), lead
    splits = _block_tables(n)[1]
    split_lhs, split_rhs, joint_lhs, joint_rhs = _split_sides(n, oracle._plane_array(n, (n,)), length, splits)
    pairs = oracle._pair_array(n, (n,))
    keep, long_lhs, long_rhs = _long_sides(n, pairs, _odd_split_sums(splits, pairs), z, length)
    eta, lam = np.indices((etas, etas))
    order = eta * etas + lam
    segments = [
        (0, order, eta, 1 + lam, split_lhs.T, split_rhs.T),
        (1, order, eta, 1 + lam, split_lhs, split_rhs),
        (2, order, eta, 1 + lam, joint_lhs.T, joint_rhs.T),
        (3, etas * etas + keep, etas + keep, 0, long_lhs, long_rhs),
    ]
    return _ordered_block(_CLASSIC, segments, partial(_classic_texts, n))


# ---------------------------------------------------------------------------
# block-refined suite

_SECTION3 = (
    "split_exceedance_sep",
    "split_joint_sep",
    "split_long_sep",
    "total_exceedance_balance",
    "total_exceedance_count",
    "downarrow_step",
    "weighted_sum_recurrence",
    "weighted_sum_value",
    "downarrow_exchange",
)


def _section3_texts(n: int) -> tuple[list[str], list[str]]:
    heads = [*_seq_texts(n, f"n={n} "), *_seq_texts(n + 1, f"n={n} ")]
    etas = (f" eta={format_type_key(eta)}" for eta in _partition_list(n))
    steps = (f" i={i0 + 1} j={j}" for i0 in range(n + 1) for j in range(n + 1))
    return heads, ["", *etas, *steps]


def _section3_block(n: int, columns: list[np.ndarray], moves: list) -> tuple:
    """The block of section3 at n (_ordered_block): over the keys of n, per
    key, the split and the joint split per diagonal type, the long-cycle
    split, and the total exceedances two ways.  Then over the keys of n + 1,
    the weighted part-shrinking identities, per key: its down-arrow steps,
    the weighted sum's recurrence and value (under the parity hypothesis),
    and the exchange identity."""
    fact = math.factorial(n - 1)
    etas = len(_partition_list(n))
    z, s, w, length = columns[n]
    splits = moves[n][0]
    keys = np.arange(len(z))
    planes = np.concatenate([oracle._plane_array(n, alpha) for alpha in _compositions(n)])
    pairs = np.concatenate([oracle._pair_array(n, alpha) for alpha in _compositions(n)])
    split_pairs = _odd_split_sums(splits, pairs)
    split_lhs, split_rhs, joint_lhs, joint_rhs = _split_sides(n, planes, length, splits)
    keep, long_lhs, long_rhs = _long_sides(n, pairs, split_pairs, z, length)
    twice_exceedances = 2 * planes[..., 1].sum(axis=1)
    slots = etas + 1  # per key: one per diagonal type, then one for the rest
    key, eta = np.indices((len(keys), etas))
    last = keys * slots + etas
    segments = [
        (0, key * slots + eta, key, 1 + eta, split_lhs, split_rhs),
        (1, key * slots + eta, key, 1 + eta, joint_lhs, joint_rhs),
        (2, last[keep], keep, 0, long_lhs, long_rhs),
        (3, last, keys, 0, twice_exceedances, 2 * fact * ((n - length) * z - s)),
        (4, last, keys, 0, twice_exceedances, fact * w * z),
    ]
    # one element up: the steps shrink a part of a key of n + 1 to a key of n
    z, _s, w, length = columns[n + 1]
    splits, (key, shrunk, twice, mult, block, part) = moves[n + 1]
    up = len(z)
    head = len(keys) + np.arange(up)  # after every key of n
    twice_terms = twice * pairs[shrunk]
    twice_sums = _sums_by(key, twice_terms, up)  # twice the weighted sums
    refined = twice * split_pairs[shrunk]
    refined_sums = _odd_split_sums(splits, twice_sums)
    fz = fact * z
    parity = (length - n) % 2 == 0
    on = parity[key]  # the steps of the keys under the parity hypothesis
    at, ij = head[key[on]], 1 + etas + block[on] * (n + 1) + part[on] - 1  # ij: the part " i=... j=..."
    segments += [
        (5, at * slots, at, ij, (n + 1 - length[key[on]]) * twice_terms[on], refined[on] + mult[on] * fz[key[on]]),
        (6, head[parity] * slots + 1, head[parity], 0, (n + 1 - length[parity]) * twice_sums[parity],
         refined_sums[parity] + fz[parity] * w[parity]),
        (7, head[parity] * slots + 1, head[parity], 0, twice_sums[parity], 2 * fz[parity]),
        (8, head * slots + 1, head, 0, _sums_by(key, refined, up), refined_sums),  # holds without the parity
    ]
    return _ordered_block(_SECTION3, segments, partial(_section3_texts, n))


# ---------------------------------------------------------------------------
# block deletion: the refined separation counts against Stirling products

_BLOCK_DELETION = ("block_deletion_total", "block_deletion_d[oracle]", "block_deletion_d[formula]")


def _deletion_instances(n: int) -> Iterator[tuple[int, tuple[int, ...], list[tuple[int, ...]]]]:
    """(index, beta, its d of the parity of n) per composition beta of n + 1,
    in order: d runs over every vector with 1 <= d_j <= beta_j."""
    for g, beta in enumerate(_compositions(n + 1)):
        ds = itertools.product(*(range(1, b + 1) for b in beta))
        yield g, beta, [d for d in ds if (sum(d) - n) % 2 == 0]


def _deletion_texts(n: int) -> tuple[list[str], list[str]]:
    heads, parts = [], [""]
    for _g, beta, ds in _deletion_instances(n):
        heads.append(f"n={n} beta={format_d_key(beta)}")
        parts += (f" d={format_d_key(d)}" for d in ds)
    return heads, parts


def _block_deletion_block(n: int) -> tuple:
    """The block of the block-deletion identities at n (the fields of a
    _ReportBlock), the refined one certified from both the oracle's tables
    and the closed form.  Per composition beta of n + 1: the total, then per
    d of the parity of n the oracle's and the closed form's report.

    Each left side sums, over the blocks b >= 2 of beta, C(b, 2) times an
    entry of the composition with block b one element smaller: the oracle's
    separated total or d-vector count (oracle._pairs_alpha_tables), or the
    closed form's (formulas._separating_by_d_table, one per shrunk
    composition and call), 0 where a table has no entry.  The sides are
    summed in Python ints and doubled into int64, exact by _require_exact.

    The d-summed form needs a block of size >= 2: with every block a
    singleton there is no d of the right parity, and the closed right side
    no longer applies."""
    fact = math.factorial(n - 1)
    stirling = formulas._stirling_cut(n, tuple(range(1, n + 2)))
    closed: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    rows, part = [], 0  # rows: (code, beta's index, part, twice lhs, twice rhs) per report
    for g, beta, ds in _deletion_instances(n):
        # (C(b, 2), the oracle's and the closed form's tables of the shrunk
        # composition) per block b >= 2
        shrinks = []
        for i, b in enumerate(beta):
            if b >= 2:
                b2 = beta[:i] + (b - 1,) + beta[i + 1 :]
                if b2 not in closed:
                    closed[b2] = formulas._separating_by_d_table(b2)
                shrinks.append((math.comb(b, 2), oracle._pairs_alpha_tables(n, b2), closed[b2]))
        if shrinks:
            lhs = 2 * sum(coeff * pairs[2] for coeff, pairs, _ in shrinks)
            rows.append((0, g, 0, lhs, fact * math.prod(map(math.factorial, beta))))
        for d in ds:
            part += 1
            rhs = 2 * fact * math.prod(stirling[b][k] for b, k in zip(beta, d))
            rows.append((1, g, part, 2 * sum(coeff * pairs[0].get(d, 0) for coeff, pairs, _ in shrinks), rhs))
            rows.append((2, g, part, 2 * sum(coeff * table.get(d, 0) for coeff, _, table in shrinks), rhs))
    codes, heads, parts, lhs, rhs = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return _BLOCK_DELETION, codes.astype(np.int8), lhs, rhs, _KeyTexts(partial(_deletion_texts, n), heads, parts)


# ---------------------------------------------------------------------------
# pure partition algebra: baserecur


def _require_int64(max_n: int) -> None:
    """Raise ResourceLimitError unless every value of _baserecur_columns at
    totals up to max_n stays below 2**62, so that it and its double are
    exact in int64: a bound on z, S, the weight and twice either side, in
    Python ints, from each block size's largest pieces, folded over the
    compositions as the columns fold them."""
    largest = [_block_tables(p)[0][:3].max(axis=1).tolist() for p in range(max_n + 1)]
    tops = [(1, 0, 0)]  # per total: bounds on z, S and the weight over its block types
    for total in range(1, max_n + 1):
        z = s = w = 0
        for first in range(1, total + 1):
            (zp, sp, wp), (zr, sr, wr) = largest[first], tops[total - first]
            z, s, w = max(z, zp * zr), max(s, sp * zr + zp * sr), max(w, wp + wr)
        tops.append((z, s, w))
        if max(2 * s + z * w, 2 * total * z) >= 2**62:  # twice the rhs, twice the lhs (N - length) z
            raise ResourceLimitError(f"the baserecur suite at n={max_n} would overflow int64 at N={total}")


def _sides(total: int, columns: np.ndarray, twice_lhs: np.ndarray, twice_rhs: np.ndarray) -> None:
    """Write twice both sides of baserecur at the keys of ``total`` with
    ``columns`` (z, S, weight, length): (N - length) z and S + z weight."""
    z, s, w, length = columns
    np.multiply(2 * (total - length), z, out=twice_lhs)
    np.add(2 * s, z * w, out=twice_rhs)


def _baserecur_columns(max_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Twice the left and twice the right sides of baserecur at every total
    N = 1..max_n, in its order, as int64 columns, and the instance count of
    each composition of each N in turn.

    The keys of the totals below max_n are folded whole (_key_columns).  The
    keys of max_n itself, the most of any total (61,697 of 98,023 instances
    at max_n = 12), are read only for their two sides, so they are folded
    one first block at a time (_fold_first) into one buffer, and each
    segment's sides are written straight into the output."""
    folded, sizes = _key_columns(max_n - 1)
    blocks = _first_blocks(max_n, folded)
    count = sum(columns.shape[1] for columns in folded[1:]) + sum(width for _first, width in blocks)
    twice_lhs, twice_rhs = np.empty((2, count), dtype=np.int64)
    done = 0
    for total, columns in enumerate(folded[1:], 1):
        rows = slice(done, done + columns.shape[1])
        _sides(total, columns, twice_lhs[rows], twice_rhs[rows])
        done = rows.stop
    buffer = np.empty((4, max(width for _first, width in blocks)), dtype=np.int64)
    for first, width in blocks:
        rows, rest = slice(done, done + width), folded[max_n - first]
        folded[max_n - first] = None  # no later segment reads it
        sizes.append(_fold_first(_block_tables(first)[0], rest, sizes[max_n - first], buffer[:, :width]))
        _sides(max_n, buffer[:, :width], twice_lhs[rows], twice_rhs[rows])
        done = rows.stop
    return twice_lhs, twice_rhs, np.concatenate(sizes[1:])


class _BlockTypeTexts(Sequence):
    """The instance texts of baserecur in its order: "N=3 alpha=(2,1)
    Lam=1+1 | 1".  Only the instance count of each composition is held;
    iteration builds the texts of each total in turn (_seq_texts), and
    indexing decodes the composition from its place."""

    __slots__ = ("max_n", "ends")

    def __init__(self, max_n: int, sizes: np.ndarray) -> None:
        self.max_n = max_n
        self.ends = np.cumsum(sizes)

    def __len__(self) -> int:
        return int(self.ends[-1])

    def __iter__(self) -> Iterator[str]:
        for total in range(1, self.max_n + 1):
            yield from _seq_texts(total, f"N={total} ")

    def __getitem__(self, i: int) -> str:
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
            k, d = divmod(k, len(_partition_list(p)))
            texts.append(format_type_key(_partition_list(p)[d]))
        return f"N={total} alpha={format_d_key(alpha)} Lam=" + " | ".join(reversed(texts))
