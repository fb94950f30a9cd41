"""Shared problem builders and session-scoped classification results."""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

import pytest

from hopfgalois import (ExtensionProblem, NodeBudget, SubgroupRef, alternating,
                        classify, cyclic, dihedral, symmetric)
from hopfgalois.cli import _problem
from hopfgalois.dsl import BuildResult, build_text
from hopfgalois.perms import cycles, from_cycles

ORDER_56_EXPR = "SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))"
ORDER_36_EXPR = "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))"
ORDER_12_EXPR = "SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))"

# E(2,4) under irreducible subgroups of GL(4,2), keyed by the order of G:
# the companion matrices of x^4+x^3+x^2+x+1 (C5) and x^4+x+1 (C15), and the
# latter with the Frobenius map (GammaL(1,16) = C15 : C4)
_C5 = "[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]"
_C15 = "[[0,0,0,1],[1,0,0,1],[0,1,0,0],[0,0,1,0]]"
_FROBENIUS = "[[1,0,1,0],[0,0,1,0],[0,1,0,1],[0,0,0,1]]"
E24_EXPRS = {order: f"SD(E(2,4), matgrp(2,4,[{mats}]))"
             for order, mats in [(80, _C5), (240, _C15),
                                 (960, f"{_C15},{_FROBENIUS}")]}


def read_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Cycle text such as ``(0 1 2)(3 4)`` as an image tuple of `degree`."""
    return from_cycles(degree, [tuple(map(int, c.split()))
                                for c in text.strip("()").split(")(") if c])


def conjugate(g: tuple[int, ...], t: tuple[int, ...],
              gi: tuple[int, ...]) -> tuple[int, ...]:
    """g t g^-1, given g and gi = g^-1: ``g[t[gi[i]]]`` at each point i,
    gathered by getters; a getter of one index returns a bare entry, so
    degree 0 and 1 take the comprehension."""
    if len(gi) < 2:
        return tuple([g[t[x]] for x in gi])
    return itemgetter(*itemgetter(*gi)(t))(g)


def reference_semiregular_centralizer(sigma: tuple[int, ...], d: int):
    """Yield each permutation commuting with the image tuple sigma whose
    cycles all have length d, exactly once: the oracle of
    `engine._semiregular_centralizer(sigma)(d)`, in its order.  It is that
    walk without kept suffixes: one recursion level per chain, every point
    of a chain written at every leaf.

    Such a permutation c maps every cycle of sigma onto a cycle of the same
    length l, shifted by some rotation s: c(z_j) = z'_{j+s}.  So c permutes
    the cycles of length l, and a k-cycle of those cycles whose shifts add
    up to r splits into cycles of length k * l / gcd(r, l).  Fixed points
    are the case l = 1.  The cycles-of-cycles are chosen, length by length,
    so that this comes out as d; nothing else is ever built.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in cycles(sigma, include_fixed=True):
        by_length.setdefault(len(cycle), []).append(cycle)
    classes = sorted(by_length.items())
    images = [0] * len(sigma)

    def rec(ci: int, free: tuple[int, ...]):
        if not free:
            if ci + 1 == len(classes):
                yield tuple(images)
            else:
                yield from rec(ci + 1, tuple(range(len(classes[ci + 1][1]))))
            return
        l, same_length = classes[ci]
        a, rest = free[0], free[1:]
        for k in range(1, min(d, len(free)) + 1):
            if d % k or l % (d // k):
                continue
            step = l * k // d
            totals = [r for r in range(l) if math.gcd(r, l) == step]
            for combo in itertools.permutations(rest, k - 1):
                chain = (a,) + combo
                left = tuple(x for x in rest if x not in combo)
                for shifts in itertools.product(range(l), repeat=k - 1):
                    partial = sum(shifts)
                    for r in totals:
                        for i, shift in enumerate(shifts + ((r - partial) % l,)):
                            src = same_length[chain[i]]
                            dst = same_length[chain[(i + 1) % k]]
                            for j in range(l):
                                images[src[j]] = dst[(j + shift) % l]
                        yield from rec(ci, left)

    yield from rec(0, tuple(range(len(classes[0][1]))))


def tuple_sets(lattice) -> list[frozenset]:
    """A sub-Hopf lattice as sets of image tuples sorted by (order, sorted
    members), so that two routes compare with ==: the sets that
    `HGStructure.stable_subgroups` holds, or `SubgroupRef`s of N's group,
    as `g_stable_subgroups` gives them, read back through N's tuples."""
    sets = [frozenset(map(q.parent.raw, q.members)) if isinstance(q, SubgroupRef)
            else q for q in lattice]
    return sorted(sets, key=lambda q: (len(q), sorted(q)))


def reference_walk_blocks(prob: ExtensionProblem):
    """(blocks, block_bits) as `ExtensionProblem._walk_blocks` gives them,
    in its order: that walk with each block read from the labels of a
    finished pass, as a frozenset, and no class masks."""
    n, gens = prob.degree, [lam for lam, _ in prob.generator_pairs()]

    def find(parent, a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    found, systems = {frozenset([0]): None}, [list(range(n))]
    bits = [1] + [0] * (n - 1)
    for labels in systems:
        for a in set(labels) - {labels[0]}:
            parent, pending = labels.copy(), [(labels[0], a)]
            parent[a] = labels[0]
            while pending:
                u, v = pending.pop()
                for g in gens:
                    x, y = find(parent, g[u]), find(parent, g[v])
                    if x != y:
                        parent[y] = x
                        pending.append((x, y))
            joined = [find(parent, b) for b in range(n)]
            block = frozenset(b for b, r in enumerate(joined) if r == joined[0])
            if block not in found:
                for b in block:
                    bits[b] |= 1 << len(found)
                found[block] = None
                systems.append(joined)
    return tuple(found), tuple(bits)


def assert_blocks_are_the_walked_ones(prob: ExtensionProblem) -> None:
    """The blocks of a problem not read yet, and those `_walk_blocks`
    gives, against `reference_walk_blocks`, order and bits included; and,
    at degree <= 12, the walk runs iff lambda(G) is imprimitive: the
    suborbits of G' decide every primitive problem there."""
    assert prob._blocks is None
    walks = []

    def counted_walk():
        walks.append(prob)
        return ExtensionProblem._walk_blocks(prob)

    prob._walk_blocks = counted_walk
    read = prob.blocks, prob.block_bits
    del prob._walk_blocks
    reference = reference_walk_blocks(prob)
    assert read == reference
    assert ExtensionProblem._walk_blocks(prob) == reference
    if prob.degree <= 12:
        assert bool(walks) == (len(prob.blocks) > 2)


# The builders below go through the command line's own, so a problem here
# is the one the matching flag gives.


def stabilizer_problem(group) -> ExtensionProblem:
    """G' = stabilizer of point 0 for a permutation-backed group, as
    --stabilizer-of-point."""
    return _problem(BuildResult(group), "stabilizer_of_point")


def complement_problem(expr: str) -> ExtensionProblem:
    """G' = the acting part of an SD(...) or Hol(...) expression, as
    --complement."""
    return _problem(build_text(expr), "complement")


def subgroup_problem(expr: str, subgroup_expr: str) -> ExtensionProblem:
    """G' generated by the permutations of `subgroup_expr`, read on the
    points of G, as --subgroup."""
    return _problem(build_text(expr), "subgroup", subgroup_expr)


def d4_point_problem() -> ExtensionProblem:
    # dihedral group on the square's vertices; G' a non-central reflection
    g = build_text("gens[(0 1 2 3), (1 3)]").group
    return stabilizer_problem(g)


# degree-12 problems, built on call
DEGREE_12_ROWS = {
    "C(12) --galois": lambda: ExtensionProblem.galois(cyclic(12)),
    "A(4) --galois": lambda: ExtensionProblem.galois(alternating(4)),
    "D(6) --galois": lambda: ExtensionProblem.galois(dihedral(6)),
    "S(6) --subgroup": lambda: subgroup_problem(
        "S(6)", "gens[(0 1 2 3 4), (0 5)(1 4)]"),
}


def catalog_problems() -> dict[str, ExtensionProblem]:
    """Every desk-scale problem exercised by the property suites."""
    probs = {
        "S4/S3": stabilizer_problem(symmetric(4)),
        "S5/S4": stabilizer_problem(symmetric(5)),
        "A4/C3": stabilizer_problem(alternating(4)),
        "galois C2": ExtensionProblem.galois(cyclic(2)),
        "galois C3": ExtensionProblem.galois(cyclic(3)),
        "galois C4": ExtensionProblem.galois(cyclic(4)),
        "galois C5": ExtensionProblem.galois(cyclic(5)),
        "galois C7": ExtensionProblem.galois(cyclic(7)),
        "galois C8": ExtensionProblem.galois(cyclic(8)),
        "galois S3": ExtensionProblem.galois(symmetric(3)),
        "galois D3": ExtensionProblem.galois(dihedral(3)),
        "order 56": complement_problem(ORDER_56_EXPR),
        "order 36": complement_problem(ORDER_36_EXPR),
        "order 12": complement_problem(ORDER_12_EXPR),
        "D4 quartic": d4_point_problem(),
    }
    return probs


@pytest.fixture(scope="session")
def reports():
    """Classification reports for the whole catalog, computed once."""
    return {name: classify(prob, budget=NodeBudget(50_000_000))
            for name, prob in catalog_problems().items()}


@pytest.fixture(scope="session")
def d5_report():
    return classify(ExtensionProblem.galois(dihedral(5)),
                    budget=NodeBudget(50_000_000))
