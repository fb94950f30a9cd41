"""Minimality of Hopf-Galois structures and Galois-correspondence statistics.

A structure is minimal when its Hopf algebra has exactly two sub-Hopf
algebras; group-theoretically, when N has no proper nontrivial subgroup
stable under the translation action of G.  Minimality is always decided
from that stable-subgroup lattice, `HGStructure.stable_subgroups`, by its
size; the characteristic-subgroup shortcut is computed separately so the
implication can be cross-checked.

The lattice, as sets of image tuples, is the one the search formed, or,
for a structure built elsewhere, formed on first read by the search's code.
`g_stable_subgroups` is its oracle, by another route: N's Cayley table.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import (CosetAction, ExtensionProblem, HGStructure, NodeBudget,
                     coset_action, enumerate_regular_normalized,
                     translation_structure, DEGREE_CAP)
from .groups import (FiniteGroup, SubgroupRef, characteristic_subgroups,
                     is_characteristically_simple, holomorph)


def is_minimal(structure: HGStructure) -> bool:
    return len(structure.stable_subgroups) == 2


def g_stable_subgroups(structure: HGStructure) -> list[SubgroupRef]:
    """The oracle for `HGStructure.stable_subgroups`, recomputed on every
    call through N's Cayley table: the subgroups of N stable under
    conjugation by the translations of G, sorted by (order, member set).
    Raises KeyError if a translation does not normalize N."""
    return structure.group.stable_subgroups(
        structure.conj_action(x) for x in structure.action.generators)


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
    return (len(structure.stable_subgroups),
            len(intermediate_subgroups(problem, structure.action)))


def holomorph_minimality_certificate(n: FiniteGroup) -> bool:
    """Verify that the translation structure is minimal for the extension
    modeled by (Hol(N), Aut(N)) when N is characteristically simple.

    Returns True after checking through the generic machinery: the lattice
    of `translation_structure`'s N, formed on read by the search's code; a
    False would indicate an implementation fault, never a mathematical
    outcome."""
    if not is_characteristically_simple(n):
        raise ValueError("requires a characteristically simple group")
    hol = holomorph(n)
    problem = ExtensionProblem(hol, hol.subgroup(hol.distinguished))
    action = coset_action(problem)
    translations = [hol.index_of((x, 0)) for x in range(len(n))]
    structure = translation_structure(action, translations)
    return is_minimal(structure)


class ClassificationReport(NamedTuple):
    """Everything known about one extension problem: all structures, each
    with its stable-subgroup lattice, plus the correspondence statistics
    and the normal-complement lower bound.

    `engine` is the budget's counters (see `NodeBudget.counters`): they
    describe the search, not the answer."""

    problem: ExtensionProblem
    structures: list[HGStructure]
    intermediate_count: int
    normal_complement_bound: int
    engine: dict[str, int]

    @property
    def nodes_used(self) -> int:
        return self.engine["nodes"]

    @property
    def minimal_count(self) -> int:
        return sum(map(is_minimal, self.structures))

    @property
    def structure_count(self) -> int:
        return len(self.structures)

    def types(self) -> list[str]:
        return [s.type_name for s in self.structures]


def _complement_bound(action: CosetAction, structures: list[HGStructure]) -> int:
    """minimal_lower_bound, read from the structures.

    An enumerated N inside the translation image of G is the image of a
    normal complement M of G', and its stable subgroups are exactly the
    subgroups of M normal in G; so the minimal such N are counted.  The
    search has built the image already.
    """
    image = action.image
    return sum(1 for s in structures
               if is_minimal(s) and all(t in image for t in s.key()))


def classify(problem: ExtensionProblem, *, degree_cap: int = DEGREE_CAP,
             budget: NodeBudget | None = None) -> ClassificationReport:
    """Enumerate the structures of the problem and classify each one.

    The search (`enumerate_regular_normalized`) walks one stage-1 seed per
    conjugacy class of cyclic subgroups of prime order.  It uses the
    automorphisms of G as a symmetry for Galois problems only: there it
    walks one seed per class under the maps it finds.  Each seed skips the
    cycle lengths whose orbits a larger prime's seed meets.  The answers are
    the same either way; the report's `engine` counters (see `NodeBudget`)
    show the cuts.  N's type is read from its tuples where it can be.
    """
    if budget is None:
        budget = NodeBudget()
    action = coset_action(problem)
    structures = enumerate_regular_normalized(
        action, degree_cap=degree_cap, budget=budget)
    return ClassificationReport(
        problem=problem,
        structures=structures,
        intermediate_count=len(intermediate_subgroups(problem, action)),
        normal_complement_bound=_complement_bound(action, structures),
        engine=budget.counters(),
    )
