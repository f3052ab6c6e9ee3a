"""Exhaustive ground truth by brute-force enumeration.

The pair sweep enumerates every ordered pair of long cycles on [n] (there are
((n-1)!)^2 of them) and counts, for each permutation t, how many pairs
multiply to t.  Every reported table is an exact integer aggregation of those
per-product counts — no symmetry shortcut is applied to any tally, and in
particular block-separation tallies are sums over honestly enumerated pairs.

The fixed-diagonal sweep enumerates, for a fixed permutation D, all plane
permutations with diagonal D (one per long cycle s, with vertical D⁻¹∘s) and
tallies cycle types, block types, and exceedance counts.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._version import __version__
from .errors import ResourceLimitError
from .partitions import Composition, _partition_list
from .permutations import Permutation, compose, long_cycle_iter
from .plane import count_exceedances

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
HARD_LIMIT = 9  # never enumerated past this, force or not

_ENV_CACHE_DIR = "LONGCYCLES_CACHE_DIR"

_log = logging.getLogger("longcycles")


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "longcycles"


def _require_pairs_scale(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_LIMIT:
        raise ResourceLimitError(
            f"pair sweep at n={n} would enumerate {math.factorial(n - 1) ** 2} pairs; "
            f"the hard limit is n={HARD_LIMIT}"
        )
    if n > PAIR_SWEEP_FREE_LIMIT and not force:
        raise ResourceLimitError(
            f"pair sweep at n={n} exceeds the guard (n={PAIR_SWEEP_FREE_LIMIT}); "
            "pass force=True / --force to run it anyway"
        )


def _require_diag_scale(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_LIMIT and not force:
        raise ResourceLimitError(
            f"fixed-diagonal sweep at n={n} exceeds the guard (n={HARD_LIMIT}); "
            "pass force=True / --force to run it anyway"
        )


# ---------------------------------------------------------------------------
# the permutation universe at size n (0-based arrays, lex order = rank order)


@cache
def _all_perm_rows(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows, in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


@cache
def _cycle_rows(n: int) -> np.ndarray:
    """0-based one-line images of all long cycles, in cycle-word lex order."""
    rows = [[x - 1 for x in p.image] for p in long_cycle_iter(n)]
    return np.array(rows, dtype=np.int64)


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


def _rank_of_image(n: int, image: tuple[int, ...]) -> int:
    """Lex rank of a 1-based one-line image among all n! permutations."""
    return int(_lex_rank(n, [x - 1 for x in image]))


@dataclass(frozen=True)
class _PermStats:
    cycle_type: tuple[int, ...]
    cycle_count: int
    bounds_mask: int  # bit b-1 set iff positions 1..b close under the cycles
    atomic: tuple[tuple[int, tuple[int, ...]], ...]  # (block end, desc lengths)
    sep_prefix: int  # largest m with 1..m in pairwise distinct cycles


def _stats_of_row(row: Sequence[int]) -> _PermStats:
    n = len(row)
    cyc_id = [0] * n
    cyc_max = [0] * n
    lengths: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        members = []
        x = start
        while not seen[x]:
            seen[x] = True
            members.append(x)
            x = row[x]
        cid = len(lengths)
        lengths.append(len(members))
        top = max(members)
        for y in members:
            cyc_id[y] = cid
            cyc_max[y] = top
    # finest interval decomposition compatible with the cycles
    bounds_mask = 0
    atomic: list[tuple[int, tuple[int, ...]]] = []
    far = 0
    block_cycles: list[int] = []
    cyc_seen = [False] * len(lengths)
    for x in range(n):
        far = max(far, cyc_max[x])
        if not cyc_seen[cyc_id[x]]:
            cyc_seen[cyc_id[x]] = True
            block_cycles.append(lengths[cyc_id[x]])
        if far == x:
            end = x + 1  # 1-based block end
            if end < n:
                bounds_mask |= 1 << (end - 1)
            atomic.append((end, tuple(sorted(block_cycles, reverse=True))))
            block_cycles = []
    # longest prefix of 1..n hitting pairwise distinct cycles
    hit: set[int] = set()
    sep_prefix = 0
    for x in range(n):
        cid = cyc_id[x]
        if cid in hit:
            break
        hit.add(cid)
        sep_prefix = x + 1
    return _PermStats(
        cycle_type=tuple(sorted(lengths, reverse=True)),
        cycle_count=len(lengths),
        bounds_mask=bounds_mask,
        atomic=tuple(atomic),
        sep_prefix=sep_prefix,
    )


@cache
def _perm_stats(n: int) -> tuple[_PermStats, ...]:
    rows = _all_perm_rows(n)
    return tuple(_stats_of_row(rows[r].tolist()) for r in range(rows.shape[0]))


# ---------------------------------------------------------------------------
# the pair sweep: per-product pair counts


def _fact_chunk(n: int, lo: int, hi: int) -> np.ndarray:
    cyc = _cycle_rows(n)
    cyc_t = cyc.T.copy()  # row x: the images of x under every long cycle
    n_fact = math.factorial(n)
    out = np.zeros(n_fact, dtype=np.int64)
    for c2 in cyc[lo:hi].tolist():
        # column j of all products c1∘c2 is c1(c2(j)): row c2(j) of cyc_t
        ranks = _lex_rank(n, [cyc_t[x] for x in c2])
        out += np.bincount(ranks, minlength=n_fact)
    return out


def _compute_pair_counts(n: int, workers: int = 1) -> np.ndarray:
    """Per-permutation counts of ordered long-cycle pairs multiplying to it."""
    m = math.factorial(n - 1)
    workers = max(1, min(workers, m))
    if workers == 1:
        return _fact_chunk(n, 0, m)
    step = -(-m // workers)
    chunks = [(n, lo, min(lo + step, m)) for lo in range(0, m, step)]
    total = np.zeros(math.factorial(n), dtype=np.int64)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_fact_chunk, *zip(*chunks)):
            total += part
    return total


_pair_counts_cache: dict[int, np.ndarray] = {}


def product_pair_counts(n: int, workers: int = 1, force: bool = False) -> np.ndarray:
    # the guard limits work, so counts already computed under force are served
    if n not in _pair_counts_cache:
        _require_pairs_scale(n, force)
        _pair_counts_cache[n] = _compute_pair_counts(n, workers)
    return _pair_counts_cache[n]


# ---------------------------------------------------------------------------
# aggregations over the pair counts


@cache
def _pairs_by_type(n: int) -> dict[tuple[int, ...], int]:
    fact = product_pair_counts(n)
    stats = _perm_stats(n)
    table: dict[tuple[int, ...], int] = {parts: 0 for parts in _partition_list(n)}
    for rank in np.nonzero(fact)[0]:
        table[stats[rank].cycle_type] += int(fact[rank])
    return table


def _alpha_cuts(alpha_parts: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(mask, cuts) of a composition: bit b-1 of the mask is set for each
    proper cut b, as in ``_PermStats.bounds_mask``; the cuts are the
    cumulative block ends, final n included."""
    cuts = tuple(itertools.accumulate(alpha_parts))
    mask = sum(1 << (c - 1) for c in cuts[:-1])
    return mask, cuts


def _merge_atomic(
    atomic: tuple[tuple[int, tuple[int, ...]], ...], cuts: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Group atomic blocks into the coarser blocks ending at the given cuts
    (cumulative block ends, final n included)."""
    out = []
    acc: list[int] = []
    it = iter(cuts)
    target = next(it)
    for end, lengths in atomic:
        acc.extend(lengths)
        if end == target:
            out.append(tuple(sorted(acc, reverse=True)))
            acc = []
            target = next(it, None)
    return tuple(out)


@cache
def _pairs_alpha_tables(
    n: int, alpha_parts: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], int], dict[tuple[tuple[int, ...], ...], int], int]:
    """(d-vector table, block-type table, separated total) over all pairs."""
    fact = product_pair_counts(n)
    stats = _perm_stats(n)
    mask, cuts = _alpha_cuts(alpha_parts)
    d_table: dict[tuple[int, ...], int] = {}
    lam_table: dict[tuple[tuple[int, ...], ...], int] = {}
    total = 0
    for rank in np.nonzero(fact)[0]:
        st = stats[rank]
        if mask & ~st.bounds_mask:
            continue
        key = _merge_atomic(st.atomic, cuts)
        d = tuple(len(c) for c in key)
        cnt = int(fact[rank])
        d_table[d] = d_table.get(d, 0) + cnt
        lam_table[key] = lam_table.get(key, 0) + cnt
        total += cnt
    return d_table, lam_table, total


@cache
def _pairs_sep_prefix(n: int) -> dict[tuple[int, int], int]:
    """table[(m, k)] = pairs whose product has k cycles and 1..m separated."""
    fact = product_pair_counts(n)
    stats = _perm_stats(n)
    by_exact: dict[tuple[int, int], int] = {}
    for rank in np.nonzero(fact)[0]:
        st = stats[rank]
        key = (st.sep_prefix, st.cycle_count)
        by_exact[key] = by_exact.get(key, 0) + int(fact[rank])
    table: dict[tuple[int, int], int] = {}
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[(m, k)] = sum(v for (mm, kk), v in by_exact.items() if mm >= m and kk == k)
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
    table = _pairs_by_type(n)
    hits = sum(cnt * parts.count(k) for parts, cnt in table.items())
    return Fraction(hits, math.factorial(n - 1) ** 2)


def count_factorizations(target: Permutation, *, force: bool = False) -> int:
    """Ordered pairs (c1, c2) of long cycles with c1∘c2 equal to the fixed
    target, by enumerating c1 and testing c2 = c1⁻¹∘target."""
    n = target.n
    _require_diag_scale(n, force)
    count = 0
    for c1 in long_cycle_iter(n):
        if compose(c1.inverse(), target).is_long_cycle():
            count += 1
    return count


# ---------------------------------------------------------------------------
# fixed-diagonal sweep


@cache
def _diag_rows(n: int, d_image: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Per long cycle s: (word of s, rank of the vertical D⁻¹∘s, exceedances)."""
    d_perm = Permutation(d_image)
    d_inv = d_perm.inverse()
    rows = []
    for s in long_cycle_iter(n):
        pi = compose(d_inv, s)
        word = s.cycle_word()
        rows.append((word, _rank_of_image(n, pi.image), count_exceedances(word, pi.image)))
    return tuple(rows)


@cache
def _diag_tallies(n: int, d_image: tuple[int, ...], alpha_parts: tuple[int, ...] | None):
    """Tallies over the (n-1)! plane permutations with fixed diagonal.

    Returns dicts keyed by cycle type, (cycle type, a), ntae count, and — when
    alpha is given — block type and (block type, a); unseparated verticals are
    skipped by the block tallies.
    """
    stats = _perm_stats(n)
    by_type: dict[tuple[int, ...], int] = {}
    by_type_a: dict[tuple[tuple[int, ...], int], int] = {}
    by_ne: dict[int, int] = {}
    by_alpha: dict[tuple[tuple[int, ...], ...], int] = {}
    by_alpha_a: dict[tuple[tuple[tuple[int, ...], ...], int], int] = {}
    mask, cuts = _alpha_cuts(alpha_parts) if alpha_parts is not None else (0, ())
    for _word, rank, a in _diag_rows(n, d_image):
        st = stats[rank]
        by_type[st.cycle_type] = by_type.get(st.cycle_type, 0) + 1
        by_type_a[(st.cycle_type, a)] = by_type_a.get((st.cycle_type, a), 0) + 1
        ne = n - st.cycle_count - a
        by_ne[ne] = by_ne.get(ne, 0) + 1
        if alpha_parts is not None and not (mask & ~st.bounds_mask):
            key = _merge_atomic(st.atomic, cuts)
            by_alpha[key] = by_alpha.get(key, 0) + 1
            by_alpha_a[(key, a)] = by_alpha_a.get((key, a), 0) + 1
    return by_type, by_type_a, by_ne, by_alpha, by_alpha_a


# ---------------------------------------------------------------------------
# full plane-permutation tallies, keyed by the diagonal's cycle type
#
# Unlike cycle-type tallies, block-type tallies are not invariant under
# conjugating the diagonal (conjugation scrambles the interval blocks), so
# counts refined by block type must enumerate every diagonal of a type, not
# one representative.  These sweeps walk all (n-1)! * n! pairs (s, pi).


@cache
def _type_index(n: int) -> np.ndarray:
    """Lex rank -> index of the permutation's cycle type in _partition_list(n)."""
    order = {parts: i for i, parts in enumerate(_partition_list(n))}
    stats = _perm_stats(n)
    return np.array([order[st.cycle_type] for st in stats], dtype=np.int64)


PLANE_SWEEP_LIMIT = 7  # (n-1)! * n! plane permutations; 3.6M at n=7


@cache
def _plane_codes(n: int) -> np.ndarray:
    """Counts over all plane permutations (s, pi), indexed by
    (diagonal type index, vertical lex rank, exceedance count)."""
    if n > PLANE_SWEEP_LIMIT:
        raise ResourceLimitError(
            f"full plane-permutation sweep at n={n} would enumerate "
            f"{math.factorial(n - 1) * math.factorial(n)} arrays; the limit is n={PLANE_SWEEP_LIMIT}"
        )
    perms = _all_perm_rows(n)
    pinv_t = np.argsort(perms, axis=1).T  # row j: perm⁻¹(j) for every perm
    type_idx = _type_index(n)
    n_fact = perms.shape[0]
    acc = np.zeros((len(_partition_list(n)), n_fact, n + 1), dtype=np.int64)
    ranks = np.arange(n_fact, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for word in itertools.permutations(range(1, n), n - 1):
        w = np.array((0,) + word, dtype=np.int64)  # 0-based cycle word
        s_img = np.empty(n, dtype=np.int64)
        s_img[w] = np.roll(w, -1)
        pos = np.empty(n, dtype=np.int64)
        pos[w] = idx
        d_ranks = _lex_rank(n, s_img[pinv_t])  # diagonal s∘(perm r)⁻¹, column by column
        a = (pos[perms] > pos[None, :]).sum(axis=1)
        # every vertical rank appears once, so no index repeats and += is exact
        acc[type_idx[d_ranks], ranks, a] += 1
    return acc


_PlaneTallies = tuple[dict[tuple, dict[tuple, int]], dict[tuple, dict[tuple, int]]]


def _plane_tallies(n: int, keys: Sequence) -> _PlaneTallies:
    """by_eta[eta][key] and by_eta_a[eta][(key, a)] over all plane
    permutations, with key = keys[lex rank of the vertical]; verticals keyed
    None are skipped."""
    acc = _plane_codes(n)
    etas = _partition_list(n)
    by_eta: dict[tuple, dict[tuple, int]] = {eta: {} for eta in etas}
    by_eta_a: dict[tuple, dict[tuple, int]] = {eta: {} for eta in etas}
    cells = np.nonzero(acc)
    for t, rank, a, cnt in zip(*(ix.tolist() for ix in cells), acc[cells].tolist()):
        key = keys[rank]
        if key is None:
            continue
        eta = etas[t]
        by_eta[eta][key] = by_eta[eta].get(key, 0) + cnt
        by_eta_a[eta][(key, a)] = by_eta_a[eta].get((key, a), 0) + cnt
    return by_eta, by_eta_a


@cache
def _plane_type_tallies(n: int) -> _PlaneTallies:
    """by_eta[eta][lam] and by_eta_a[eta][(lam, a)]: plane permutations with
    diagonal cycle type eta and vertical cycle type lam (and a exceedances)."""
    return _plane_tallies(n, [st.cycle_type for st in _perm_stats(n)])


@cache
def _plane_seq_tallies(n: int, alpha_parts: tuple[int, ...]) -> _PlaneTallies:
    """by_eta[eta][seq_key] and by_eta_a[eta][(seq_key, a)]: plane
    permutations with diagonal cycle type eta whose vertical is
    alpha-separated with the given block types."""
    mask, cuts = _alpha_cuts(alpha_parts)
    keys = [
        None if mask & ~st.bounds_mask else _merge_atomic(st.atomic, cuts)
        for st in _perm_stats(n)
    ]
    return _plane_tallies(n, keys)


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


def _load_cached(cache_dir: Path | None, query: dict, total: int) -> OracleResult | None:
    """The cached result of the query, or None.  A file that cannot be read
    or parsed, or whose query, version or totals disagree, is a miss; it is
    logged and will be overwritten."""
    if cache_dir is None:
        return None
    path = _cache_path(cache_dir, query)
    try:
        result = OracleResult.from_json(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _log.warning("cache miss: cannot read %s (%s: %s)", path, type(exc).__name__, exc)
        return None
    if (
        result.query != query
        or result.version != __version__
        or result.total != total
        or "cycle_type" not in result.tables
        or result.tables["cycle_type"].total() != total
    ):
        _log.warning("cache miss: %s does not match its query, version or total", path)
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
                fh.write(result.to_json())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        _log.warning("cache not written: cannot store %s (%s: %s)", path, type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# key formatting (string keys used in serialized tables)


def format_type_key(parts: tuple[int, ...]) -> str:
    return "+".join(str(p) for p in parts) if parts else "0"


def format_seq_key(key: tuple[tuple[int, ...], ...]) -> str:
    return " | ".join(format_type_key(c) for c in key)


def format_d_key(d: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


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
    _require_pairs_scale(n, force)
    if alpha is not None and alpha.n != n:
        raise ValueError(f"composition {alpha} is not a composition of {n}")
    query = {"kind": "pairs", "n": n, "alpha": str(alpha) if alpha else None}
    total = math.factorial(n - 1) ** 2
    cached = _load_cached(cache_dir, query, total)
    if cached is not None:
        return cached
    product_pair_counts(n, workers, force)
    tables = {
        "cycle_type": CountTable({format_type_key(t): c for t, c in _pairs_by_type(n).items()})
    }
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
    _require_diag_scale(n, force)
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
    by_type, by_type_a, by_ne, by_alpha, by_alpha_a = _diag_tallies(
        n, D.image, alpha.parts if alpha else None
    )
    tables = {
        "cycle_type": CountTable({format_type_key(t): c for t, c in by_type.items()}),
        "cycle_type_a": CountTable(
            {f"{format_type_key(t)} a={a}": c for (t, a), c in by_type_a.items()}
        ),
        "ne": CountTable({f"ne={ne}": c for ne, c in by_ne.items()}),
    }
    if alpha is not None:
        tables["alpha_type"] = CountTable({format_seq_key(k): c for k, c in by_alpha.items()})
        tables["alpha_type_a"] = CountTable(
            {f"{format_seq_key(k)} a={a}": c for (k, a), c in by_alpha_a.items()}
        )
    result = OracleResult(n=n, query=query, tables=tables, total=total)
    _store_cached(cache_dir, result)
    return result
