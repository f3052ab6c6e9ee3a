"""Two-row arrays pairing a long cycle with an arbitrary permutation.

A pair (s, pi) is displayed with the word of s on top and pi(s_i) below;
the diagonal D reads the array cyclically, D(pi(s_{i-1})) = s_i, and always
equals the product s∘pi⁻¹.  The word of s is normalized to start at 1, and
that word induces the linear order used by every exceedance comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
# an integer array starting at 0.


def _cycle_minima(perms: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``out[x, ...]`` = the least ``key[y]`` over y on the cycle of x: a
    running minimum over windows of 2, 4, 8, ... consecutive cycle elements.

    np.take and order="C" make ``low`` and ``step`` C-contiguous for any
    layout of ``perms``: key[cols] and cols * m keep the layout of a strided
    batch (a transposed view, a column slice), and then every ravel() below
    would copy the whole batch."""
    n = len(perms)
    cols = perms.reshape(n, -1)
    low = np.take(key, cols)
    np.minimum(low, key[:, None], out=low)
    # flat index of (pi(x), same array); step.ravel()[step] squares pi
    step = np.multiply(cols, cols.shape[1], order="C")
    step += np.arange(cols.shape[1])
    span = 2
    while span < n:
        step = step.ravel()[step]
        np.minimum(low, low.ravel()[step], out=low)
        span *= 2
    return low.reshape(perms.shape)


def _diagonals_from_pairs(words: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Batched PlanePermutation.diagonal_from_pairs: the bottom pi(word[i]) of
    each column maps to the top word[i+1] of the next.  ``words`` has the
    shape of ``perms`` without its last axis, one word for every r in
    perms[..., r].  An entry that no column writes, which happens only when a
    vertical is not a permutation, stays -1."""
    bottoms = np.take_along_axis(perms, words[..., None], axis=0)
    out = np.full_like(perms, -1)
    np.put_along_axis(out, bottoms, np.roll(words, -1, axis=0)[..., None], axis=0)
    return out


def _exceedances(pos: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """``exc[x, r]``: x is an exceedance of (word, perms[:, r]), pi(x) after x
    in the word, for a 2-D ``perms``; ``pos[x]`` is the index of x in the word."""
    return pos[perms] > pos[:, None]


def _exceedance_counts(word: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exceedance and non-trivial anti-exceedance counts of (word, pi) for
    every column pi of the (n, m) array ``perms``.  As in _classify, each
    cycle's trivial anti-exceedance is the preimage of its word-order minimum."""
    pos = np.argsort(word)
    exc = _exceedances(pos, perms)
    trivial = pos[perms] == _cycle_minima(perms, pos)
    return exc.sum(axis=0), (~exc & ~trivial).sum(axis=0)


def _transposed(word: np.ndarray, perms: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched PlanePermutation.transpose_blocks over the rows (i, j, k) of
    ``hs``: the new words (n, H) and the new verticals (n, H) + perms.shape[1:]."""
    i, j, k = (hs[:, col, None] for col in range(3))
    t = np.arange(len(word))
    # position t of the new word reads word[t], shifted inside the two blocks
    src = np.where((t < i) | (t > k), t, np.where(t < i + k - j, t + j + 1 - i, t + j - k))
    moved = word[hs - (1, 0, 0)].T  # s_{i-1}, s_j, s_k, whose images rotate
    new = np.repeat(perms[:, None], len(hs), axis=1)
    new[moved, np.arange(len(hs))] = perms[moved[[1, 2, 0]]]
    return word[src].T, new


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
