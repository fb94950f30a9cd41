"""Image tuples: the permutations of a finite point set {0..n-1}.

A permutation is its image tuple: ``t[i]`` is the image of point i.  The
product ``compose(a, b)`` applies b first.  Cycle notation enters only
through the DSL's ``gens[...]`` (`from_cycles`) and is printed by
`cycle_string`.
"""

from __future__ import annotations

from typing import Iterable

Images = tuple[int, ...]


def compose(a: Images, b: Images) -> Images:
    """The product a b: ``compose(a, b)[i] == a[b[i]]``."""
    return tuple([a[x] for x in b])


def inverse(t: Images) -> Images:
    out = [0] * len(t)
    for i, v in enumerate(t):
        out[v] = i
    return tuple(out)


def conjugate(g: Images, t: Images, gi: Images) -> Images:
    """g t g^-1, given g and gi = g^-1."""
    return tuple([g[t[x]] for x in gi])


def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Images:
    """The permutation of {0..degree-1} with the given disjoint cycles.

    Raises ValueError for a point out of range or in two cycles.
    """
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
    return tuple(images)


def cycles(t: Images, include_fixed: bool = False) -> list[Images]:
    """Disjoint cycles, each starting at its minimum, sorted by minimum."""
    seen = [False] * len(t)
    out = []
    for start in range(len(t)):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = t[x]
        if len(cycle) > 1 or include_fixed:
            out.append(tuple(cycle))
    return out


def format_cycles(cs: Iterable[Iterable[int]]) -> str:
    """Cycles as written, e.g. ``(0 1 2)(3 4)``; no cycles is ``()``."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs) or "()"


def cycle_string(t: Images) -> str:
    """Cycle notation of t, fixed points left out."""
    return format_cycles(cycles(t))


def uniform_cycle_length(t: Images) -> int | None:
    """The common cycle length of t if all its cycles agree, else None.

    The identity returns 1.  Elements of a regular permutation group are
    exactly the permutations with uniform cycle length.
    """
    lengths = {len(c) for c in cycles(t, include_fixed=True)}
    return lengths.pop() if len(lengths) == 1 else None
