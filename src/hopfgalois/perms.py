"""Permutation arithmetic on a finite point set {0..n-1}."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator

from .errors import CapExceeded

DEFAULT_CLOSURE_CAP = 10_000

_TOKEN = re.compile(r"[()]|\d+|\S")


@dataclass(frozen=True, order=True)
class Perm:
    """A bijection on {0..n-1}; ``images[i]`` is the image of point i.

    Perms sort lexicographically by their image tuple.  That order is the
    canonical one used for every set-valued result in this package; note
    the identity is always the minimum within a group.
    """

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

    def __pow__(self, k: int) -> Perm:
        if k < 0:
            return self.inverse() ** (-k)
        result = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

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

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def semiregular_cycle_length(self) -> int | None:
        """The common cycle length if all cycles agree, else None.

        The identity returns 1.  Elements of a regular permutation group are
        exactly the permutations with uniform cycle length.
        """
        d = 0
        for c in self.cycles(include_fixed=True):
            if d == 0:
                d = len(c)
            elif len(c) != d:
                return None
        return d


@dataclass(frozen=True)
class PermSet:
    """A canonically ordered set of permutations of one degree."""

    degree: int
    elements: tuple[Perm, ...]

    @staticmethod
    def from_perms(perms: Iterable[Perm], degree: int | None = None) -> PermSet:
        elems = sorted(set(perms))
        if degree is None:
            if not elems:
                raise ValueError("cannot infer the degree of an empty set")
            degree = elems[0].degree
        for p in elems:
            if p.degree != degree:
                raise ValueError(f"degree mismatch: {p.degree} vs {degree}")
        return PermSet(degree, tuple(elems))

    @staticmethod
    def closure(generators: Iterable[Perm], degree: int | None = None,
                cap: int = DEFAULT_CLOSURE_CAP) -> PermSet:
        """The group generated by ``generators`` (breadth-first closure).

        An empty generating set yields the trivial group, so ``degree`` is
        required in that case.  Raises CapExceeded if the group would have
        more than ``cap`` elements.
        """
        gens = sorted(set(generators))
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {degree}")
        els = {Perm.identity(degree)}
        els.update(gens)
        frontier = list(els)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = a * g
                    if c not in els:
                        els.add(c)
                        if len(els) > cap:
                            raise CapExceeded(
                                f"closure exceeded cap of {cap} elements")
                        new.append(c)
            frontier = new
        return PermSet(degree, tuple(sorted(els)))

    @cached_property
    def _as_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._as_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical hashable key (the sorted image tuples)."""
        return tuple(p.images for p in self.elements)

    def is_group(self) -> bool:
        """Exhaustive check: identity present and closed under composition.

        Closure under inverses follows for finite sets of permutations.
        """
        if Perm.identity(self.degree) not in self._as_set:
            return False
        return all(a * b in self._as_set for a in self.elements for b in self.elements)

    def is_regular(self) -> bool:
        """True iff this group acts transitively with trivial point stabilizers.

        For a group, that is equivalent to being transitive of order equal
        to the degree.  The caller is responsible for passing a group.
        """
        if len(self.elements) != self.degree:
            return False
        orbit = {0}
        for p in self.elements:
            orbit.add(p(0))
        return len(orbit) == self.degree

    def is_normalized_by(self, generators: Iterable[Perm]) -> bool:
        """True iff g S g^-1 == S for every generator g."""
        for g in generators:
            if g.degree != self.degree:
                raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
            gi = g.inverse()
            for p in self.elements:
                if g * p * gi not in self._as_set:
                    return False
        return True
