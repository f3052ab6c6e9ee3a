"""Two-row arrays pairing a long cycle with an arbitrary permutation.

A pair (s, pi) is displayed with the word of s on top and pi(s_i) below;
the diagonal D reads the array cyclically, D(pi(s_{i-1})) = s_i, and always
equals the product s∘pi⁻¹.  The word of s is normalized to start at 1, and
that word induces the linear order used by every exceedance comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .permutations import Permutation, compose

__all__ = ["PlanePermutation", "ExceedanceStats"]


# ---------------------------------------------------------------------------
# the scalar routine behind the class; the sweeps use the batched kernels below


def _classify(word: tuple[int, ...], pi: Permutation):
    """(exceedances, anti-exceedances, trivial anti-exceedances) as sets.

    An exceedance is an x strictly before pi(x) in the word order.  Each cycle
    of pi contributes one trivial anti-exceedance: the preimage of its
    word-order minimum, the entry before it in ``pi.cycles()``.
    """
    pos = {x: idx for idx, x in enumerate(word)}  # index of x in the word
    exc = {x for x, y in enumerate(pi.image, 1) if pos[y] > pos[x]}
    anti = set(word) - exc
    lows = ((cyc, min(cyc, key=pos.__getitem__)) for cyc in pi.cycles())
    trivial = {cyc[cyc.index(low) - 1] for cyc, low in lows}
    return exc, anti, trivial


# ---------------------------------------------------------------------------
# batched kernels: the class's routines over many arrays at once.  Everything is
# 0-based, and a batch of permutations is stored with the element first:
# perms[x] holds the image of x in every array of the batch (any trailing
# shape), so that each step works on long contiguous rows.  A cycle word is
# an integer array starting at 0.  The sweeps of oracle and the plane suite of
# verify run them against the tables of each n (oracle._shared).


def _take(a: np.ndarray, indices: np.ndarray, out: np.ndarray | None, axis: int | None = None) -> np.ndarray:
    """a.take(indices), into ``out`` when given.  mode="clip" writes ``out``
    in place, where the default mode writes a copy first; every index the
    kernels take is in range by construction."""
    return a.take(indices, axis=axis, out=out, mode="clip")


def _flat(perms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``flat[x, r]``: the flat index of (pi(x), r) into an (n, m) array, for
    the (n, m) batch ``perms``; ``a.ravel()[flat]`` reads a[pi(x), r].

    order="C" keeps ``flat`` C-contiguous for any layout of ``perms`` (a
    transposed view, a column slice), so that ravel() never copies it."""
    flat = np.multiply(perms, perms.shape[1], out=out, order="C")
    flat += np.arange(perms.shape[1])
    return flat


def _squarings(flat: np.ndarray, out: Sequence[np.ndarray] = ()) -> Iterator[np.ndarray]:
    """pi^2, pi^4, ... as flat indices, from pi's _flat indices, while 2, 4,
    ... is below n: the pointer-doubling steps of _cycle_minima.  Lazy, so
    that one step at a time is alive.  ``out``, two buffers of flat's shape
    when given, take the steps in turn: each step is overwritten by the one
    after next."""
    step, span, turn = flat, 2, 0
    while span < len(flat):
        step = _take(step.ravel(), step, out[turn] if out else None)
        yield step
        span, turn = span * 2, 1 - turn


def _cycle_minima(
    perms: np.ndarray, key: np.ndarray, steps: Iterable[np.ndarray] | None = None,
    out: np.ndarray | None = None, spare: np.ndarray | None = None,
) -> np.ndarray:
    """``out[x, ...]`` = the least ``key[y]`` over y on the cycle of x: a
    running minimum over windows of 2, 4, 8, ... consecutive cycle elements.
    ``steps`` are the _squarings of ``perms``, built here when not given;
    ``out`` and ``spare`` are (n, m) buffers, allocated here when not given.
    np.take makes ``low`` C-contiguous for any layout of ``perms``, as in
    _flat."""
    n = len(perms)
    cols = perms.reshape(n, -1)
    low = _take(key, cols, out)
    np.minimum(low, key[:, None], out=low)
    for step in _squarings(_flat(cols)) if steps is None else steps:
        np.minimum(low, _take(low.ravel(), step, spare), out=low)
    return low.reshape(perms.shape)


def _part_columns(arrangements: np.ndarray, n: int) -> np.ndarray:
    """The ``columns`` of _part_sums for m-arrangements of range(n), one
    per row of ``arrangements``: row i holds the flat index of (i, the i-th
    image) into a digit table of m positions times n images."""
    return (arrangements + np.arange(arrangements.shape[1]) * n).T.copy()


def _part_sums(digits: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``sums[w, a]`` = the sum over positions i of digits[w, i, t(i)], t the
    a-th arrangement of the part (_part_columns): the per-word term of every
    arrangement, from ``digits`` (b, m, n), one table per word of a value
    for each position i and image."""
    flat = digits.reshape(len(digits), -1)
    sums = np.zeros((len(digits), columns.shape[1]), dtype=np.int64)
    for column in columns:
        sums += flat.take(column, axis=1)
    return sums


# ---------------------------------------------------------------------------
# the block transpositions of a word of n entries, as position tables for the
# plane suite's batched checks (0-based; a cycle word starts at 0)


# a block transposition hands pi(s_j), pi(s_k), pi(s_{i-1}) to s_{i-1}, s_j,
# s_k: the images by their index in (s_{i-1}, s_j, s_k), in turn
_TURN = (1, 2, 0)


class _Moves(NamedTuple):
    """The legal block transpositions h = (i, j, k) of a word of n entries,
    one per column, as positions in the word:
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


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExceedanceStats:
    exceedances: frozenset[int]
    anti_exceedances: frozenset[int]
    trivial_anti_exceedances: frozenset[int]
    ntaes: frozenset[int]


@dataclass(frozen=True)
class PlanePermutation:
    """A long cycle s (stored as its word, rotated to start at 1) together
    with an arbitrary permutation pi on the same ground set."""

    s: tuple[int, ...]
    pi: Permutation

    def __post_init__(self) -> None:
        word = tuple(self.s)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a cycle word of 1..{n}: {word!r}")
        if self.pi.n != n:
            raise ValueError(f"size mismatch: word of {n} vs permutation of {self.pi.n}")
        pivot = word.index(1)
        object.__setattr__(self, "s", word[pivot:] + word[:pivot])

    @property
    def n(self) -> int:
        return len(self.s)

    def s_perm(self) -> Permutation:
        return Permutation.from_cycle_word(self.s)

    def diagonal(self) -> Permutation:
        """The product s∘pi⁻¹."""
        return compose(self.s_perm(), self.pi.inverse())

    def diagonal_from_pairs(self) -> Permutation:
        """The diagonal read directly off the two-row array, column by column:
        the bottom of one column maps to the top of the next, cyclically.
        Must coincide with diagonal()."""
        img = [0] * self.n
        for top, next_top in zip(self.s, self.s[1:] + self.s[:1]):
            img[self.pi(top) - 1] = next_top
        return Permutation(tuple(img))

    def exceedance_stats(self) -> ExceedanceStats:
        exc, anti, trivial = _classify(self.s, self.pi)
        return ExceedanceStats(
            exceedances=frozenset(exc),
            anti_exceedances=frozenset(anti),
            trivial_anti_exceedances=frozenset(trivial),
            ntaes=frozenset(anti - trivial),
        )

    def exceedance_count(self) -> int:
        return len(_classify(self.s, self.pi)[0])

    def ntae_count(self) -> int:
        """Always equals n - (number of cycles of pi) - exceedance_count()."""
        return self.n - self.pi.cycle_count - self.exceedance_count()

    def transpose_blocks(self, h: tuple[int, int, int]) -> "PlanePermutation":
        """Transpose the adjacent diagonal blocks under word segments
        [s_i..s_j] and [s_{j+1}..s_k]; requires 1 <= i <= j < k <= n-1.

        The result keeps the same diagonal; its vertical differs from pi only
        at the images of s_{i-1}, s_j and s_k.
        """
        i, j, k = h
        if not (1 <= i <= j < k <= self.n - 1):
            raise IndexError(f"positions {h} out of range for n={self.n}")
        s, img = self.s, list(self.pi.image)
        a, b, c = s[i - 1], s[j], s[k]
        img[a - 1], img[b - 1], img[c - 1] = self.pi(b), self.pi(c), self.pi(a)
        word = s[:i] + s[j + 1 : k + 1] + s[i : j + 1] + s[k + 1 :]
        return PlanePermutation(word, Permutation(tuple(img)))

    def reflect(self) -> "PlanePermutation":
        """The pair (s⁻¹, D⁻¹): word reversed (re-anchored at 1) with the
        inverted diagonal as the new vertical."""
        word = (self.s[0],) + tuple(reversed(self.s[1:]))
        return PlanePermutation(word, self.diagonal().inverse())

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"s": list(self.s), "pi": list(self.pi.image)})

    @classmethod
    def from_json(cls, text: str) -> "PlanePermutation":
        doc = json.loads(text)
        try:
            return cls(tuple(doc["s"]), Permutation(tuple(doc["pi"])))
        except (KeyError, TypeError) as exc:  # not an object whose "s" and "pi" are lists of ints
            raise ValueError(f"not a plane permutation: {text!r}") from exc

    def to_text(self) -> str:
        bottom = [self.pi.image[x - 1] for x in self.s]
        width = max(len(str(x)) for x in self.s)
        top_row = " ".join(str(x).rjust(width) for x in self.s)
        bot_row = " ".join(str(x).rjust(width) for x in bottom)
        return top_row + "\n" + bot_row

    @classmethod
    def from_text(cls, text: str) -> "PlanePermutation":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected two rows")
        top = [int(tok) for tok in lines[0].split()]
        bottom = [int(tok) for tok in lines[1].split()]
        if len(top) != len(bottom):
            raise ValueError("rows have different lengths")
        column = Permutation(tuple(top)).inverse().image  # column[x - 1]: the column of x, from 1
        return cls(tuple(top), Permutation(tuple(bottom[c - 1] for c in column)))

    def __str__(self) -> str:
        return self.to_text()
