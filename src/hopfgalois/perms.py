"""Permutations of a finite point set {0..n-1}.

Inside the package a permutation is its image tuple: ``t[i]`` is the image
of point i, and the product ``p q`` (q applied first) is
``tuple(p[q[i]] for i in range(n))``.  `Perm` wraps an image tuple for
parsing and printing cycle notation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

_TOKEN = re.compile(r"[()]|\d+|\S")


@dataclass(frozen=True)
class Perm:
    """A bijection on {0..n-1}, validated; ``images[i]`` is the image of
    point i.  Used to read and write cycle notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        seen = 0
        for v in images:
            if not 0 <= v < n or seen >> v & 1:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen |= 1 << v

    @staticmethod
    def identity(degree: int) -> Perm:
        return Perm(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Perm:
        images = list(range(degree))
        moved: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for point in cycle:
                if not 0 <= point < degree:
                    raise ValueError(f"point {point} out of range for degree {degree}")
                if point in moved:
                    raise ValueError(f"point {point} appears in two cycles")
                moved.add(point)
            for i, point in enumerate(cycle):
                images[point] = cycle[(i + 1) % len(cycle)]
        return Perm(tuple(images))

    @staticmethod
    def parse(text: str, degree: int | None = None) -> Perm:
        """Parse cycle notation like ``(0 1 2)(3 4)``; the identity is ``()``.

        The degree is inferred as max point + 1 unless given explicitly.
        """
        cycles: list[list[int]] = []
        current: list[int] | None = None
        for tok in _TOKEN.findall(text):
            if tok == "(":
                if current is not None:
                    raise ValueError(f"nested '(' in permutation: {text!r}")
                current = []
            elif tok == ")":
                if current is None:
                    raise ValueError(f"unbalanced ')' in permutation: {text!r}")
                if current:
                    cycles.append(current)
                current = None
            elif tok.isdigit():
                if current is None:
                    raise ValueError(f"point outside cycle in permutation: {text!r}")
                current.append(int(tok))
            else:
                raise ValueError(f"unexpected {tok!r} in permutation: {text!r}")
        if current is not None:
            raise ValueError(f"unbalanced '(' in permutation: {text!r}")
        if degree is None:
            if not cycles:
                raise ValueError("cannot infer the degree of an identity permutation")
            degree = max(max(c) for c in cycles) + 1
        return Perm.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Perm) -> Perm:
        """Composition: ``(p * q)(i) == p(q(i))`` (``q`` is applied first)."""
        if not isinstance(other, Perm):
            return NotImplemented
        p, q = self.images, other.images
        if len(p) != len(q):
            raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
        return Perm(tuple(p[v] for v in q))

    def inverse(self) -> Perm:
        out = [0] * len(self.images)
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(tuple(out))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = self.images[x]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __str__(self) -> str:
        return self.cycle_string()


def uniform_cycle_length(t: tuple[int, ...]) -> int | None:
    """The common cycle length of the image tuple t if all its cycles agree,
    else None.

    The identity returns 1.  Elements of a regular permutation group are
    exactly the permutations with uniform cycle length.
    """
    n = len(t)
    seen = bytearray(n)
    d = 0
    for s in range(n):
        if seen[s]:
            continue
        ln = 0
        x = s
        while not seen[x]:
            seen[x] = 1
            x = t[x]
            ln += 1
        if d == 0:
            d = ln
        elif ln != d:
            return None
    return d
