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
    return structure.group.stable_subgroups(
        structure.conj_action(x) for x in structure.action.generators)


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


def _minimal_block(seed: set[int], gens: list[tuple[int, ...]], n: int) -> frozenset[int]:
    """The smallest block of the group generated by `gens` containing `seed`.

    Atkinson's union-find: merge the seed into one class, then for every
    pair merged so far merge their images under each generator, until the
    partition is stable.  The class of the seed is the block.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    root = min(seed)
    pending = []
    for a in seed:
        if a != root:
            parent[a] = root
            pending.append((root, a))
    while pending:
        a, b = pending.pop()
        for g in gens:
            u, v = find(g[a]), find(g[b])
            if u != v:
                parent[v] = u
                pending.append((u, v))
    r = find(root)
    return frozenset(a for a in range(n) if find(a) == r)


def intermediate_subgroups(problem: ExtensionProblem,
                           action: CosetAction | None = None) -> list[frozenset[int]]:
    """All subgroups H with G' <= H <= G, both endpoints included.

    They correspond one-to-one to the blocks of the action on G/G' that
    contain point 0 (the coset G'), via H = {x : xG' in B}.  Every such
    block is reached from {0} by repeatedly taking the minimal block
    containing a found block and one more point.  Sorted by (order, member
    set), a linear extension of inclusion.
    """
    if action is None:
        action = coset_action(problem)
    n = action.degree
    gens = [lam for lam, _ in action.generator_pairs()]
    seen = {frozenset([0])}
    frontier = list(seen)
    while frontier:
        block = frontier.pop()
        for a in range(n):
            if a in block:
                continue
            bigger = _minimal_block(block | {a}, gens, n)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    coset_of = action.coset_of
    subgroups = [frozenset(x for x, c in enumerate(coset_of) if c in block)
                 for block in seen]
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def correspondence_stats(problem: ExtensionProblem,
                         structure: HGStructure) -> tuple[int, int]:
    """(number of stable subgroups of N, number of intermediate subgroups).

    The first never exceeds the second: the fixed-field map embeds the
    sub-Hopf lattice into the intermediate-field lattice.
    """
    return (len(g_stable_subgroups(structure)),
            len(intermediate_subgroups(problem, structure.action)))


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
    minimal = [v for v in verdicts if v.minimal]
    if not minimal:
        return 0
    image = {action.translation(x) for x in range(len(action.problem.group))}
    return sum(1 for v in minimal if all(t in image for t in v.structure.key()))


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
    return ClassificationReport(
        problem=problem,
        verdicts=verdicts,
        intermediate_count=len(intermediate_subgroups(problem, action)),
        normal_complement_bound=_complement_bound(action, verdicts),
        nodes_used=budget.used,
    )
