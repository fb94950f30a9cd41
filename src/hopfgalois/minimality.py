"""Minimality of Hopf-Galois structures and Galois-correspondence statistics.

A structure is minimal when its Hopf algebra has exactly two sub-Hopf
algebras; group-theoretically, when N has no proper nontrivial subgroup
stable under the translation action of G.  Minimality is always decided
from that stable-subgroup lattice; the characteristic-subgroup shortcut is
computed separately so the implication can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (CosetAction, ExtensionProblem, HGStructure, NodeBudget,
                     coset_action, enumerate_regular_normalized,
                     translation_structure, DEGREE_CAP)
from .groups import (FiniteGroup, SubgroupRef, characteristic_subgroups,
                     is_characteristically_simple, holomorph)


def g_stable_subgroups(structure: HGStructure) -> list[SubgroupRef]:
    """All subgroups of N stable under conjugation by the translations of G.

    These are exactly the sub-Hopf algebras of the structure's Hopf algebra,
    so the list always contains the trivial subgroup and N itself.  Sorted
    by (order, member set), a linear extension of inclusion.
    """
    actions = [structure.conj_action(x) for x in structure.action.generators]
    out = []
    for sub in structure.group.subgroups():
        if all(frozenset(t[i] for i in sub.members) == sub._set for t in actions):
            out.append(sub)
    return out


def is_minimal(structure: HGStructure) -> bool:
    return len(g_stable_subgroups(structure)) == 2


def characteristic_obstruction(structure: HGStructure) -> SubgroupRef | None:
    """A nontrivial proper characteristic subgroup of N, if one exists.

    Such a subgroup is stable under any action by automorphisms, so its
    presence certifies non-minimality without looking at G at all.
    """
    for sub in characteristic_subgroups(structure.group):
        if not sub.is_trivial() and not sub.is_full():
            return sub
    return None


def normal_complements(problem: ExtensionProblem) -> list[SubgroupRef]:
    """Normal subgroups M of G with M int G' = 1 and M G' = G."""
    gp = problem.subgroup
    out = []
    for m in problem.group.normal_subgroups():
        if m.order * gp.order == len(problem.group) and m._set & gp._set == {0}:
            out.append(m)
    return out


def minimal_lower_bound(problem: ExtensionProblem) -> int:
    """Number of normal complements with no proper nontrivial subgroup that
    is normal in G; each one yields a distinct minimal structure."""
    normals = problem.group.normal_subgroups()
    count = 0
    for m in normal_complements(problem):
        if not any(not x.is_trivial() and x.order < m.order and x._set <= m._set
                   for x in normals):
            count += 1
    return count


def intermediate_subgroups(problem: ExtensionProblem) -> list[frozenset[int]]:
    """All subgroups H with G' <= H <= G, both endpoints included."""
    g = problem.group
    base = frozenset(problem.subgroup.members)
    seen = {base}
    frontier = [base]
    while frontier:
        h = frontier.pop()
        for x in range(len(g)):
            if x in h:
                continue
            k = g.closure_of(h | {x})
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def correspondence_stats(problem: ExtensionProblem,
                         structure: HGStructure) -> tuple[int, int]:
    """(number of stable subgroups of N, number of intermediate subgroups).

    The first never exceeds the second: the fixed-field map embeds the
    sub-Hopf lattice into the intermediate-field lattice.
    """
    return (len(g_stable_subgroups(structure)), len(intermediate_subgroups(problem)))


def holomorph_minimality_certificate(n: FiniteGroup) -> bool:
    """Verify that the translation structure is minimal for the extension
    modeled by (Hol(N), Aut(N)) when N is characteristically simple.

    Returns True after checking through the generic machinery; a False
    would indicate an implementation fault, never a mathematical outcome.
    """
    if not is_characteristically_simple(n):
        raise ValueError("requires a characteristically simple group")
    hol = holomorph(n)
    problem = ExtensionProblem(hol, hol.subgroup(hol.distinguished))
    action = coset_action(problem)
    translations = [hol.index_of((x, 0)) for x in range(len(n))]
    structure = translation_structure(action, translations)
    return is_minimal(structure)


@dataclass
class StructureVerdict:
    structure: HGStructure
    stable_subgroups: list[SubgroupRef]
    minimal: bool

    @property
    def subhopf_count(self) -> int:
        return len(self.stable_subgroups)


@dataclass
class ClassificationReport:
    """Everything known about one extension problem: all structures with
    their stable-subgroup lattices and minimality verdicts, plus the
    correspondence statistics and the normal-complement lower bound."""

    problem: ExtensionProblem
    verdicts: list[StructureVerdict]
    intermediate_count: int
    normal_complement_bound: int
    nodes_used: int

    @property
    def minimal_count(self) -> int:
        return sum(1 for v in self.verdicts if v.minimal)

    @property
    def structure_count(self) -> int:
        return len(self.verdicts)

    def types(self) -> list[str]:
        return [v.structure.type_name for v in self.verdicts]


def _complement_bound(action: CosetAction, verdicts: list[StructureVerdict]) -> int:
    """minimal_lower_bound, read from the verdicts.

    An enumerated N inside the translation image of G is the image of a
    normal complement M of G', and its stable subgroups are exactly the
    subgroups of M normal in G; so the minimal such N are counted.
    """
    image = {action.translation(x) for x in range(len(action.problem.group))}
    return sum(1 for v in verdicts
               if v.minimal and all(p in image for p in v.structure.perms))


def classify(problem: ExtensionProblem, *, degree_cap: int = DEGREE_CAP,
             budget: NodeBudget | None = None,
             action: CosetAction | None = None) -> ClassificationReport:
    if budget is None:
        budget = NodeBudget()
    if action is None:
        action = coset_action(problem)
    structures = enumerate_regular_normalized(
        action, degree_cap=degree_cap, budget=budget)
    verdicts = []
    for s in structures:
        lattice = g_stable_subgroups(s)
        verdicts.append(StructureVerdict(s, lattice, len(lattice) == 2))
    verdicts.sort(key=lambda v: (v.structure.type_name, v.structure.key()))
    return ClassificationReport(
        problem=problem,
        verdicts=verdicts,
        intermediate_count=len(intermediate_subgroups(problem)),
        normal_complement_bound=_complement_bound(action, verdicts),
        nodes_used=budget.used,
    )
