"""Shared problem builders and session-scoped classification results."""

from __future__ import annotations

import pytest

from hopfgalois import (ExtensionProblem, NodeBudget, alternating, classify,
                        cyclic, dihedral, symmetric)
from hopfgalois.dsl import build_text
from hopfgalois.perms import from_cycles

ORDER_56_EXPR = "SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))"
ORDER_36_EXPR = "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))"
ORDER_12_EXPR = "SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))"


def read_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Cycle text such as ``(0 1 2)(3 4)`` as an image tuple of `degree`."""
    return from_cycles(degree, [tuple(map(int, c.split()))
                                for c in text.strip("()").split(")(") if c])


def stabilizer_problem(group) -> ExtensionProblem:
    """G' = stabilizer of point 0 for a permutation-backed group."""
    members = [i for i in range(len(group)) if group.raw(i)[0] == 0]
    return ExtensionProblem(group, group.subgroup(members))


def complement_problem(expr: str) -> ExtensionProblem:
    built = build_text(expr)
    return ExtensionProblem(built.group, built.complement)


def subgroup_problem(expr: str, subgroup_expr: str) -> ExtensionProblem:
    """G' generated by the permutations of `subgroup_expr`, as --subgroup."""
    group = build_text(expr).group
    members = [group.index_of(r) for r in build_text(subgroup_expr).group.raw_elements()]
    return ExtensionProblem(group, group.subgroup(members))


def d4_point_problem() -> ExtensionProblem:
    # dihedral group on the square's vertices; G' a non-central reflection
    g = build_text("gens[(0 1 2 3), (1 3)]").group
    return stabilizer_problem(g)


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
