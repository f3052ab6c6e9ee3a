"""Permutations of {1, ..., n}: composition, cycle structure, long-cycle
enumeration, and interval-block separation.

Conventions used package-wide:

- the ground set is 1-based: a permutation of size n maps {1,...,n} to itself;
- ``image[i-1]`` is the image of i (one-line notation);
- composition acts on the left: ``compose(p, q)(x) == p(q(x))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotSeparatedError
from .partitions import Composition, IntegerPartition, PartitionSequence

__all__ = [
    "Permutation",
    "compose",
    "cycle_type",
    "is_alpha_separated",
    "alpha_type",
    "d_vector",
    "long_cycle_iter",
    "finest_blocks",
    "canonical_of_type",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} in one-line form."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        img = tuple(self.image)
        object.__setattr__(self, "image", img)
        n = len(img)
        seen = [False] * (n + 1)
        for v in img:
            if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
                raise ValueError(f"not a permutation of 1..{n}: {img!r}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * (self.n + 1)
        out = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.image[start - 1]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.image[x - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> IntegerPartition:
        return IntegerPartition(tuple(len(c) for c in self.cycles()))

    @property
    def cycle_count(self) -> int:
        return len(self.cycles())

    def is_even(self) -> bool:
        return (self.n - self.cycle_count) % 2 == 0

    def is_long_cycle(self) -> bool:
        return self.cycle_count == 1

    def cycle_word(self) -> tuple[int, ...]:
        """The word (1, w2, ..., wn) of a long cycle; error otherwise."""
        word = [1]
        x = self.image[0]
        while x != 1:
            word.append(x)
            x = self.image[x - 1]
        if len(word) != self.n:
            raise ValueError(f"{self} is not a long cycle")
        return tuple(word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycle_word(cls, word: Sequence[int]) -> "Permutation":
        """The n-cycle (w0 w1 ... w_{n-1}) on [n]; the word must use each of
        1..n exactly once."""
        n = len(word)
        img = [0] * n
        for i, x in enumerate(word):
            img[x - 1] = word[(i + 1) % n]
        return cls(tuple(img))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], n: int | None = None) -> "Permutation":
        """Build from disjoint cycles; unlisted elements are fixed points."""
        if n is None:
            n = max((x for cyc in cycles for x in cyc), default=0)
        img = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= n:
                    raise ValueError(f"element {x} is outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two cycles")
                seen.add(x)
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(img))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in text.split()))

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Accepts one-line text ("3 1 2") or cycle text ("(1 2 3)(4)")."""
        text = text.strip()
        if "(" not in text:
            return cls.from_one_line(text)
        cycles = []
        for chunk in text.replace(")", ")\n").split("\n"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError(f"malformed cycle text: {text!r}")
            body = chunk[1:-1].replace(",", " ").split()
            cycles.append([int(tok) for tok in body])
        return cls.from_cycles(cycles, n=n)

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.image)

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in self.cycles())


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-action product: the result maps x to p(q(x))."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    qi = q.image
    pi = p.image
    return Permutation(tuple(pi[qi[i] - 1] for i in range(p.n)))


def cycle_type(p: Permutation) -> IntegerPartition:
    return p.cycle_type()


def long_cycle_iter(n: int) -> Iterator[Permutation]:
    """All (n-1)! long cycles on [n], in lexicographic order of the cycle
    word (1, w2, ..., wn)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for tail in itertools.permutations(range(2, n + 1)):
        yield Permutation.from_cycle_word((1,) + tail)


# ---------------------------------------------------------------------------
# interval-block separation


def _block_of(alpha: Composition) -> tuple[int, ...]:
    """block_of[x-1] = index (0-based) of the block containing x."""
    out = []
    for b, p in enumerate(alpha.parts):
        out.extend([b] * p)
    return tuple(out)


def is_alpha_separated(p: Permutation, alpha: Composition) -> bool:
    """True iff the support of every cycle lies inside one block of alpha."""
    if alpha.n != p.n:
        raise ValueError(f"composition of {alpha.n} does not match ground set {p.n}")
    blk = _block_of(alpha)
    for x in range(1, p.n + 1):
        if blk[p.image[x - 1] - 1] != blk[x - 1]:
            return False
    return True


def alpha_type(p: Permutation, alpha: Composition) -> PartitionSequence:
    """Per-block cycle types of a block-separated permutation."""
    if not is_alpha_separated(p, alpha):
        raise NotSeparatedError(f"{p} mixes blocks of {alpha}")
    blk = _block_of(alpha)
    lengths: list[list[int]] = [[] for _ in alpha.parts]
    for cyc in p.cycles():
        lengths[blk[cyc[0] - 1]].append(len(cyc))
    comps = tuple(IntegerPartition(tuple(ls)) for ls in lengths)
    return PartitionSequence(alpha, comps)


def d_vector(p: Permutation, alpha: Composition) -> tuple[int, ...]:
    """How many cycles each block of a separated permutation splits into."""
    return alpha_type(p, alpha).d_vector()


def finest_blocks(p: Permutation) -> Composition:
    """The finest interval decomposition of [n] whose blocks contain every
    cycle of p.  p is alpha-separated iff alpha coarsens this composition."""
    n = p.n
    cyc_max = [0] * (n + 1)
    for cyc in p.cycles():
        top = max(cyc)
        for x in cyc:
            cyc_max[x] = top
    parts = []
    far = 0
    start = 1
    for x in range(1, n + 1):
        far = max(far, cyc_max[x])
        if far == x:
            parts.append(x - start + 1)
            start = x + 1
    return Composition(tuple(parts))


def canonical_of_type(lam: IntegerPartition) -> Permutation:
    """The representative with decreasing cycles on consecutive integers,
    e.g. type 3+2 on [5] gives (1 2 3)(4 5)."""
    cycles = []
    start = 1
    for p in lam.parts:
        cycles.append(list(range(start, start + p)))
        start += p
    return Permutation.from_cycles(cycles, n=lam.n)
