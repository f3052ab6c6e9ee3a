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
# tuple-level helpers behind the class; the sweeps use the batched kernels below


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


def _diagonal_from_pairs(word: tuple[int, ...], pi_image: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the diagonal read column-by-column: bottom of one column maps
    to the top of the next, cyclically."""
    n = len(word)
    img = [0] * n
    for idx in range(n):
        img[pi_image[word[idx] - 1] - 1] = word[(idx + 1) % n]
    return tuple(img)


def _transpose(word: tuple[int, ...], pi_image: tuple[int, ...], i: int, j: int, k: int):
    """Swap the diagonal blocks under segments word[i..j] and word[j+1..k]."""
    new_word = word[:i] + word[j + 1 : k + 1] + word[i : j + 1] + word[k + 1 :]
    img = list(pi_image)
    a, b, c = word[i - 1], word[j], word[k]
    img[a - 1], img[b - 1], img[c - 1] = pi_image[b - 1], pi_image[c - 1], pi_image[a - 1]
    return new_word, tuple(img)


# ---------------------------------------------------------------------------
# batched kernels: the helpers above over many arrays at once.  Everything is
# 0-based, and a batch of permutations is stored with the element first:
# perms[x] holds the image of x in every array of the batch (any trailing
# shape), so that each step works on long contiguous rows.  A cycle word is
# an integer array starting at 0.


def _cycle_minima(perms: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``out[x, ...]`` = the least ``key[y]`` over y on the cycle of x: a
    running minimum over windows of 2, 4, 8, ... consecutive cycle elements."""
    n = len(perms)
    cols = perms.reshape(n, -1)
    low = key[cols]
    np.minimum(low, key[:, None], out=low)
    # flat index of (pi(x), same array); step.ravel()[step] squares pi
    step = cols * cols.shape[1]
    step += np.arange(cols.shape[1])
    span = 2
    while span < n:
        step = step.ravel()[step]
        np.minimum(low, low.ravel()[step], out=low)
        span *= 2
    return low.reshape(perms.shape)


def _cycle_counts(perms: np.ndarray) -> np.ndarray:
    """Number of cycles of every permutation: each cycle has one least element."""
    n = len(perms)
    ids = np.arange(n)
    low = _cycle_minima(perms.reshape(n, -1), ids)
    return (low == ids[:, None]).sum(axis=0).reshape(perms.shape[1:])


def _diagonals_from_pairs(words: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Batched _diagonal_from_pairs: the bottom pi(word[i]) of each column
    maps to the top word[i+1] of the next.  ``words`` has the shape of
    ``perms`` without its last axis, one word for every r in perms[..., r].
    An entry that no column writes, which happens only when a vertical is not
    a permutation, stays -1."""
    bottoms = np.take_along_axis(perms, words[..., None], axis=0)
    out = np.full_like(perms, -1)
    np.put_along_axis(out, bottoms, np.roll(words, -1, axis=0)[..., None], axis=0)
    return out


def _exceedance_counts(word: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exceedance and non-trivial anti-exceedance counts of (word, pi) for
    every column pi of the (n, m) array ``perms``.  As in _classify, each
    cycle's trivial anti-exceedance is the preimage of its word-order minimum."""
    pos = np.empty_like(word)
    pos[word] = np.arange(len(word))
    img_pos = pos[perms]
    exc = img_pos > pos[:, None]
    trivial = img_pos == _cycle_minima(perms, pos)
    return exc.sum(axis=0), (~exc & ~trivial).sum(axis=0)


def _transposed(word: np.ndarray, perms: np.ndarray, hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched _transpose over the rows (i, j, k) of ``hs``: the new words,
    shape (n, H), and the new verticals, shape (n, H) + perms.shape[1:]."""
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
        """The diagonal read directly off the two-row array; must coincide
        with diagonal()."""
        return Permutation(_diagonal_from_pairs(self.s, self.pi.image))

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
        word, img = _transpose(self.s, self.pi.image, i, j, k)
        return PlanePermutation(word, Permutation(img))

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
        return cls(tuple(doc["s"]), Permutation(tuple(doc["pi"])))

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
        img = [0] * len(top)
        for x, y in zip(top, bottom):
            img[x - 1] = y
        return cls(tuple(top), Permutation(tuple(img)))

    def __str__(self) -> str:
        return self.to_text()
