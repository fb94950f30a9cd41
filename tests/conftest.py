"""Shared problem builders and session-scoped classification results."""

from __future__ import annotations

from operator import itemgetter

import pytest

from hopfgalois import (ExtensionProblem, NodeBudget, SubgroupRef, alternating,
                        classify, cyclic, dihedral, symmetric)
from hopfgalois.cli import _problem
from hopfgalois.dsl import BuildResult, build_text
from hopfgalois.perms import from_cycles

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


def tuple_sets(lattice) -> list[frozenset]:
    """A sub-Hopf lattice as sets of image tuples sorted by (order, sorted
    members), so that two routes compare with ==: the sets that
    `HGStructure.stable_subgroups` holds, or `SubgroupRef`s of N's group,
    as `g_stable_subgroups` gives them, read back through N's tuples."""
    sets = [frozenset(map(q.parent.raw, q.members)) if isinstance(q, SubgroupRef)
            else q for q in lattice]
    return sorted(sets, key=lambda q: (len(q), sorted(q)))


def assert_blocks_are_the_walked_ones(prob: ExtensionProblem) -> None:
    """The blocks of a problem not read yet against `_walk_blocks`, their
    oracle; and, at degree <= 12, the walk runs iff lambda(G) is
    imprimitive: the suborbits of G' decide every primitive problem there."""
    assert prob._blocks is None
    walks = []

    def counted_walk():
        walks.append(prob)
        return ExtensionProblem._walk_blocks(prob)

    prob._walk_blocks = counted_walk
    assert (prob.blocks, prob.block_bits) == ExtensionProblem._walk_blocks(prob)
    del prob._walk_blocks
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
