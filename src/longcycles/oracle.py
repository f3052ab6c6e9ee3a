"""Exhaustive ground truth by brute-force enumeration.

The pair sweep enumerates every ordered pair of long cycles on [n] (there are
((n-1)!)^2 of them) and counts the products by one exact statistic, their
row of _min_lengths.  Every table is an exact integer sum of those counts,
its keys read from the rows — no symmetry shortcut is applied to any tally,
and block-separation tallies are sums over honestly enumerated pairs.  The
cycle type is the block type for the one block alpha = (n).

The fixed-diagonal sweep enumerates, for a fixed permutation D, all plane
permutations with diagonal D (one per long cycle s, with vertical D⁻¹∘s) and
tallies the verticals by (block types, exceedance count), the cycle type
again being the one-block case.  The factorizations c1∘c2 = D into long
cycles are its arrays with s = c1 whose vertical, c2⁻¹, is a long cycle.

Sweeps are partitioned into contiguous chunks of the first factor's index
range; chunk tallies are merged by addition, so results are identical for any
worker count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import os
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._version import __version__
from .errors import ResourceLimitError
from .partitions import Composition, _partition_list, format_d_key, format_seq_key, format_type_key
from .permutations import Permutation
from .plane import _cycle_minima, _exceedances

__all__ = [
    "CountTable",
    "OracleResult",
    "sweep_pairs",
    "sweep_fixed_diagonal",
    "count_factorizations",
    "expected_k_cycles",
    "pairs_separating_prefix",
    "default_cache_dir",
    "PAIR_SWEEP_FREE_LIMIT",
    "HARD_LIMIT",
]

PAIR_SWEEP_FREE_LIMIT = 8  # beyond this, sweep_pairs requires force=True
HARD_LIMIT = 9  # the pair sweep never runs past this; the fixed-diagonal sweep needs force past it
DIAG_SWEEP_HARD_LIMIT = 10  # the fixed-diagonal sweep never runs past this: ~300 MB at n=10, x n per step
PLANE_SWEEP_LIMIT = 7  # (n-1)! * n! plane permutations; 3.6M at n=7

_ENV_CACHE_DIR = "LONGCYCLES_CACHE_DIR"

_SeqKey = tuple[tuple[int, ...], ...]  # block types: one cycle type per block of alpha

_log = logging.getLogger("longcycles")


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "longcycles"


def _require_scale(what: str, n: int, free: int, hard: int, force: bool) -> None:
    """The size guard of every sweep: the sweep named ``what`` runs freely up
    to n = free, needs force up to n = hard, and never runs past it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > hard:
        raise ResourceLimitError(f"{what} at n={n} is past its hard limit, n={hard}")
    if n > free and not force:
        raise ResourceLimitError(
            f"{what} at n={n} exceeds the guard (n={free}); pass force=True / --force to run it anyway"
        )


# ---------------------------------------------------------------------------
# the permutation universe at size n (0-based arrays, lex order = rank order)


@cache
def _all_perm_rows(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows, in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


@cache
def _cycle_words(n: int) -> np.ndarray:
    """0-based words of all long cycles, each starting at 0, in lex order."""
    return np.array([(0,) + tail for tail in itertools.permutations(range(1, n))], dtype=np.int64)


@cache
def _cycle_rows(n: int) -> np.ndarray:
    """0-based one-line images of all long cycles, in cycle-word lex order:
    each word maps every entry to the next one, cyclically."""
    words = _cycle_words(n)
    rows = np.empty_like(words)
    np.put_along_axis(rows, words, np.roll(words, -1, axis=1), axis=1)
    return rows


def _code(n: int, digits):
    """Base-n code of a digit sequence; the digits may be ints or equal-shape
    integer arrays (one digit position per array)."""
    code = 0
    for d in digits:
        code = code * n + d
    return code


@cache
def _rank_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables for the lex rank of a permutation of range(n), split
    after its first h = n // 2 images.

    ``prefix[code of the first h images]`` is the lex index of that
    h-arrangement times (n - h)!, and ``suffix[code of the last n - h
    images]`` is the lex rank of their relative order; the lex rank is the
    sum.  The tables have n^h and n^(n-h) entries (under 1 MB up to n = 9).
    """
    h = n // 2
    tail = math.factorial(n - h)
    prefix = np.zeros(n**h, dtype=np.int64)
    for i, head in enumerate(itertools.permutations(range(n), h)):
        prefix[_code(n, head)] = i * tail
    suffix = np.zeros(n ** (n - h), dtype=np.int64)
    for values in itertools.combinations(range(n), n - h):
        for j, order in enumerate(itertools.permutations(values)):
            suffix[_code(n, order)] = j
    return prefix, suffix


def _lex_rank(n: int, columns):
    """Lex rank among all n! permutations of range(n).  ``columns[j]`` holds
    the image of j: an int, or an integer array ranking many permutations
    at once."""
    prefix, suffix = _rank_tables(n)
    h = n // 2
    return prefix[_code(n, columns[:h])] + suffix[_code(n, columns[h:])]


def _min_lengths(perms: np.ndarray) -> np.ndarray:
    """``lens[x, ...]`` = the length of the cycle of x when x is the least
    element of that cycle, else 0, for a batch stored element first as in
    plane.py.  The nonzero entries are the cycle type, 1..m lie in distinct
    cycles iff the first m entries are nonzero, and 1..b is a union of cycles
    iff the first b entries sum to b."""
    n = len(perms)
    low = _cycle_minima(perms, np.arange(n))
    return np.stack([(low == x).sum(axis=0) for x in range(n)])


def _distinct_rows(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows) for an (n, m) batch stored element first: ``rows`` holds
    the distinct rows of _min_lengths, one per line, and ``ids[r]`` indexes
    the row of the column perms[:, r]."""
    lens = _min_lengths(perms)
    _, first, ids = np.unique(_code(len(perms) + 1, lens), return_index=True, return_inverse=True)
    return ids, lens[:, first].T


def _cycle_type(lens: Sequence[int]) -> tuple[int, ...]:
    """The cycle type of a row of _min_lengths: its nonzero entries, largest first."""
    return tuple(sorted(filter(None, lens), reverse=True))


def _block_types(lens: Sequence[int], alpha_parts: Sequence[int]) -> _SeqKey | None:
    """The cycle types inside the consecutive blocks of the given sizes, or
    None when a cycle crosses from one block into another."""
    types = []
    lo = 0
    for part in alpha_parts:
        block = lens[lo : lo + part]
        if sum(block) != part:
            return None
        types.append(_cycle_type(block))
        lo += part
    return tuple(types)


def _sep_prefix(lens: Sequence[int]) -> int:
    """The largest m with 1..m in pairwise distinct cycles: the number of
    nonzero entries of a row of _min_lengths before its first 0."""
    return next((x for x, length in enumerate(lens) if not length), len(lens))


@cache
def _signatures(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sig, rows): ``rows`` holds the distinct rows of _min_lengths over all
    n! permutations, one per line, and ``sig[r]`` indexes the row of lex rank r."""
    return _distinct_rows(_all_perm_rows(n).T)


def _tally(rows: np.ndarray, counts: np.ndarray, alpha_parts: Sequence[int]) -> dict[_SeqKey, np.ndarray]:
    """Block types -> the sum of ``counts[i]`` over the alpha-separated rows i
    that have them.  With alpha = (n) the keys are the cycle types, (lam,)."""
    cuts = np.cumsum(alpha_parts)
    ids = np.flatnonzero((np.cumsum(rows, axis=1)[:, cuts - 1] == cuts).all(axis=1))
    groups: dict[_SeqKey, list[int]] = {}
    for i, lens in zip(ids.tolist(), rows[ids].tolist()):
        groups.setdefault(_block_types(lens, alpha_parts), []).append(i)
    return {key: counts[group].sum(axis=0) for key, group in groups.items()}


# ---------------------------------------------------------------------------
# the pair sweep: pair counts by product signature


def _fact_chunk(n: int, lo: int, hi: int) -> np.ndarray:
    cyc = _cycle_rows(n)
    cyc_t = cyc.T.copy()  # row x: the images of x under every long cycle
    sig, rows = _signatures(n)
    out = np.zeros(len(rows), dtype=np.int64)
    for c2 in cyc[lo:hi].tolist():
        # column j of all products c1∘c2 is c1(c2(j)): row c2(j) of cyc_t
        ranks = _lex_rank(n, [cyc_t[x] for x in c2])
        out += np.bincount(sig[ranks], minlength=len(rows))
    return out


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compute_pair_counts(n: int, workers: int = 1) -> np.ndarray:
    """Entry i counts the ordered pairs of long cycles whose product has row
    i of _signatures(n); the first factors are cut into one chunk per worker,
    counted by at most one process per CPU."""
    m = math.factorial(n - 1)
    workers = max(1, min(workers, m))
    if workers == 1:
        return _fact_chunk(n, 0, m)
    step = -(-m // workers)
    chunks = [(n, lo, min(lo + step, m)) for lo in range(0, m, step)]
    # computed before the pool starts, so forked workers inherit the signatures
    total = np.zeros(len(_signatures(n)[1]), dtype=np.int64)
    # a fork-started pool starts all its processes at once, so never more than the CPUs
    with ProcessPoolExecutor(max_workers=min(workers, _cpus())) as pool:
        for part in pool.map(_fact_chunk, *zip(*chunks)):
            total += part
    return total


_pair_counts_cache: dict[int, np.ndarray] = {}


def product_pair_counts(n: int, workers: int = 1, force: bool = False) -> np.ndarray:
    # the guard limits work, so counts already computed under force are served
    if n not in _pair_counts_cache:
        _require_scale("pair sweep", n, PAIR_SWEEP_FREE_LIMIT, HARD_LIMIT, force)
        _pair_counts_cache[n] = _compute_pair_counts(n, workers)
    return _pair_counts_cache[n]


# ---------------------------------------------------------------------------
# aggregations over the pair counts


@cache
def _pairs_alpha_tables(
    n: int, alpha_parts: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], int], dict[_SeqKey, int], int]:
    """(d-vector table, block-type table, separated total) over all pairs, without zero keys."""
    counts = product_pair_counts(n)
    d_table: dict[tuple[int, ...], int] = {}
    lam_table: dict[_SeqKey, int] = {}
    for key, cnt in _tally(_signatures(n)[1], counts, alpha_parts).items():
        cnt = int(cnt)
        if cnt:
            d = tuple(len(c) for c in key)
            d_table[d] = d_table.get(d, 0) + cnt
            lam_table[key] = cnt
    return d_table, lam_table, sum(lam_table.values())


@cache
def _pairs_sep_prefix(n: int) -> dict[tuple[int, int], int]:
    """table[(m, k)] = pairs whose product has k cycles and 1..m separated."""
    table = {(m, k): 0 for m in range(1, n + 1) for k in range(1, n + 1)}
    for lens, cnt in zip(_signatures(n)[1].tolist(), product_pair_counts(n).tolist()):
        k = len(_cycle_type(lens))
        for m in range(1, _sep_prefix(lens) + 1):
            table[(m, k)] += cnt
    return table


def pairs_separating_prefix(n: int, m: int, k: int, *, workers: int = 1, force: bool = False) -> int:
    """Ordered pairs of long cycles whose product has k cycles and keeps
    1..m in pairwise distinct cycles — by enumeration."""
    if not 1 <= m <= n or not 1 <= k <= n:
        raise ValueError("need 1 <= m <= n and 1 <= k <= n")
    product_pair_counts(n, workers, force)
    return _pairs_sep_prefix(n)[(m, k)]


def expected_k_cycles(n: int, k: int, *, workers: int = 1, force: bool = False) -> Fraction:
    """Average number of k-cycles in the product over all ordered pairs."""
    product_pair_counts(n, workers, force)
    by_type = _pairs_alpha_tables(n, (n,))[1]
    hits = sum(cnt * lam.count(k) for (lam,), cnt in by_type.items())
    return Fraction(hits, math.factorial(n - 1) ** 2)


# ---------------------------------------------------------------------------
# fixed-diagonal sweep


@cache
def _diag_rows(n: int, d_image: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts) over the (n-1)! plane permutations with fixed diagonal,
    one per long cycle s, with vertical D⁻¹∘s: ``rows`` holds the distinct
    rows of _min_lengths of the verticals, and ``counts[i, a]`` counts those
    with row i and a exceedances."""
    d_inv = np.argsort([x - 1 for x in d_image])
    verticals = d_inv[_cycle_rows(n)]  # row i: D⁻¹∘s for the i-th long cycle s
    pos = np.argsort(_cycle_words(n), axis=1)  # pos[i, x]: index of x in the word of s
    # each vertical has its own word; plane._exceedances takes one word, and a flat gather for it is slower
    exceedances = (np.take_along_axis(pos, verticals, axis=1) > pos).sum(axis=1)
    ids, rows = _distinct_rows(verticals.T)
    counts = np.bincount(ids * (n + 1) + exceedances, minlength=len(rows) * (n + 1))
    return rows, counts.reshape(len(rows), n + 1)


@cache
def _diag_tallies(n: int, d_image: tuple[int, ...], alpha_parts: tuple[int, ...]) -> dict[_SeqKey, list[int]]:
    """Block types -> [count for a = 0..n]: plane permutations with fixed
    diagonal whose vertical is alpha-separated with those block types and has
    a exceedances.  With alpha = (n) the keys are the cycle type, (lam,)."""
    return {key: by_a.tolist() for key, by_a in _tally(*_diag_rows(n, d_image), alpha_parts).items()}


def count_factorizations(target: Permutation, *, force: bool = False) -> int:
    """Ordered pairs (c1, c2) of long cycles with c1∘c2 equal to the fixed
    target: the plane permutations with diagonal target whose vertical,
    target⁻¹∘c1 = c2⁻¹, is a long cycle — one per pair, none by conjugacy."""
    n = target.n
    _require_scale("fixed-diagonal sweep", n, HARD_LIMIT, DIAG_SWEEP_HARD_LIMIT, force)
    return sum(_diag_tallies(n, target.image, (n,)).get(((n,),), ()))


# ---------------------------------------------------------------------------
# full plane-permutation tallies, keyed by the diagonal's cycle type
#
# Unlike cycle-type tallies, block-type tallies are not invariant under
# conjugating the diagonal (conjugation scrambles the interval blocks), so
# counts refined by block type must enumerate every diagonal of a type, not
# one representative.  These sweeps walk all (n-1)! * n! pairs (s, pi).


@cache
def _plane_codes(n: int) -> np.ndarray:
    """Counts over all plane permutations (s, pi), indexed by
    (diagonal type index, signature id of the vertical, exceedance count)."""
    _require_scale("full plane-permutation sweep", n, PLANE_SWEEP_LIMIT, PLANE_SWEEP_LIMIT, False)
    perms = _all_perm_rows(n).T.copy()  # element first: row x holds the image of x under every perm
    pinv_t = np.argsort(perms, axis=0)  # row j: perm⁻¹(j) for every perm
    sig, rows = _signatures(n)
    types = _partition_list(n)
    type_of = np.array([types.index(_cycle_type(row)) for row in rows.tolist()])  # signature id -> type index
    acc = np.zeros(len(types) * len(rows) * (n + 1), dtype=np.int64)
    for word, s_img in zip(_cycle_words(n), _cycle_rows(n)):
        pos = np.argsort(word)  # pos[x]: index of x in the word
        d_ranks = _lex_rank(n, s_img[pinv_t])  # diagonal s∘(perm r)⁻¹, column by column
        a = _exceedances(pos, perms).sum(axis=0)
        acc += np.bincount((type_of[sig[d_ranks]] * len(rows) + sig) * (n + 1) + a, minlength=acc.size)
    return acc.reshape(len(types), len(rows), n + 1)


@cache
def _plane_tallies(n: int, alpha_parts: tuple[int, ...]) -> dict[tuple[int, ...], dict[_SeqKey, list[int]]]:
    """by_eta[eta][key][a]: plane permutations with diagonal cycle type eta
    whose vertical is alpha-separated with block types key and has a
    exceedances, for a = 0..n.  Keys that no vertical has are left out; with
    alpha = (n) the keys are the vertical's cycle type, (lam,)."""
    acc = _plane_codes(n).swapaxes(0, 1)  # indexed by (signature id, type index, a)
    sums = {key: by_t.tolist() for key, by_t in _tally(_signatures(n)[1], acc, alpha_parts).items()}
    return {eta: {key: by_t[t] for key, by_t in sums.items()} for t, eta in enumerate(_partition_list(n))}


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
    force: bool = False,
    cache_dir: Path | None = None,
) -> OracleResult:
    """Enumerate all ordered pairs of long cycles on [n].

    Tallies the product's cycle type always; with alpha, additionally tallies
    block-separated products by their d-vector and by their per-block cycle
    types.  The grand total is ((n-1)!)^2.
    """
    _require_scale("pair sweep", n, PAIR_SWEEP_FREE_LIMIT, HARD_LIMIT, force)
    if alpha is not None and alpha.n != n:
        raise ValueError(f"composition {alpha} is not a composition of {n}")
    query = {"kind": "pairs", "n": n, "alpha": str(alpha) if alpha else None}
    total = math.factorial(n - 1) ** 2
    cached = _load_cached(cache_dir, query, total)
    if cached is not None:
        return cached
    product_pair_counts(n, workers, force)
    types = _pairs_alpha_tables(n, (n,))[1]
    tables = {"cycle_type": CountTable({format_type_key(t): types.get((t,), 0) for t in _partition_list(n)})}
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
    force: bool = False,
    cache_dir: Path | None = None,
) -> OracleResult:
    """Enumerate all plane permutations with the fixed diagonal D: one per
    long cycle s, with vertical D⁻¹∘s.

    Tallies verticals by cycle type, by (cycle type, exceedance count), and by
    non-trivial anti-exceedance count; with alpha, also by block type and
    (block type, exceedance count).  The grand total is (n-1)!.
    """
    n = D.n
    _require_scale("fixed-diagonal sweep", n, HARD_LIMIT, DIAG_SWEEP_HARD_LIMIT, force)
    if alpha is not None and alpha.n != n:
        raise ValueError(f"composition {alpha} is not a composition of {n}")
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
    tallies = {"cycle_type": _diag_tallies(n, D.image, (n,))}
    if alpha is not None:
        tallies["alpha_type"] = _diag_tallies(n, D.image, alpha.parts)
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
