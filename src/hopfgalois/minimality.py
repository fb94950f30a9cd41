"""Minimality of Hopf-Galois structures and Galois-correspondence statistics.

A structure is minimal when its Hopf algebra has exactly two sub-Hopf
algebras; group-theoretically, when N has no proper nontrivial subgroup
stable under the translation action of G.  Minimality is always decided
from that stable-subgroup lattice by its size; the characteristic-subgroup
shortcut is computed separately so the implication can be cross-checked.

The lattice is read for every structure through the Galois correspondence,
as the fibers of N over the blocks of lambda(G) at point 0, read once per
problem (`ExtensionProblem.blocks`), and held as its image, one bit per
block (`HGStructure.lattice_bits`); the fibers themselves are built only
where `HGStructure.stable_subgroups` is read.  `g_stable_subgroups` is its
oracle, by another route: N's Cayley table.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import (DEGREE_CAP, ExtensionProblem, HGStructure, NodeBudget,
                     enumerate_regular_normalized, translation_structure)
from .groups import (FiniteGroup, SubgroupRef, characteristic_subgroups,
                     is_characteristically_simple, holomorph)


def is_minimal(structure: HGStructure) -> bool:
    return structure.lattice_bits.bit_count() == 2


def g_stable_subgroups(structure: HGStructure) -> list[SubgroupRef]:
    """The oracle for `HGStructure.stable_subgroups`, recomputed on every
    call through N's Cayley table: the subgroups of N stable under
    conjugation by the translations of G, sorted by (order, member set)."""
    return structure.group.stable_subgroups(
        structure.conj_action(x) for x in structure.problem.group.generators())


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
    """All subgroups H with G' <= H <= G, both endpoints included.

    They correspond one-to-one to the blocks of the action on G/G' that
    contain point 0 (the coset G'), via H = {x : xG' in B}; the blocks are
    `problem.blocks`, read once per problem.  Sorted by (order, member
    set), a linear extension of inclusion.
    """
    coset_of = problem.coset_of
    subgroups = [frozenset(x for x, c in enumerate(coset_of) if c in block)
                 for block in problem.blocks]
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def correspondence_stats(structure: HGStructure) -> tuple[int, int]:
    """(number of stable subgroups of N, number of intermediate subgroups),
    read from the bits of `lattice_bits` and from `blocks` of N's problem,
    read once per problem.

    The first never exceeds the second: the fixed-field map embeds the
    sub-Hopf lattice into the intermediate-field lattice.
    """
    return structure.lattice_bits.bit_count(), len(structure.problem.blocks)


def holomorph_minimality_certificate(n: FiniteGroup) -> bool:
    """Verify that the translation structure is minimal for the extension
    modeled by (Hol(N), Aut(N)) when N is characteristically simple.

    Returns True after checking through the generic machinery: the lattice
    of `translation_structure`'s N, read through the blocks like any
    other; a False would indicate an implementation fault, never a
    mathematical outcome."""
    if not is_characteristically_simple(n):
        raise ValueError("requires a characteristically simple group")
    hol = holomorph(n)
    problem = ExtensionProblem(hol, hol.subgroup(hol.distinguished))
    translations = [hol.index_of((x, 0)) for x in range(len(n))]
    structure = translation_structure(problem, translations)
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


def _complement_bound(problem: ExtensionProblem, structures: list[HGStructure]) -> int:
    """minimal_lower_bound, read from the structures.

    An enumerated N inside the translation image of G is the image of a
    normal complement M of G', and its stable subgroups are exactly the
    subgroups of M normal in G; so the minimal such N are counted.  The
    image is read only when there is a minimal N to test: a primitive
    problem with no structure never builds it.
    """
    minimal = [s for s in structures if is_minimal(s)]
    image = problem.image if minimal else ()
    return sum(all(t in image for t in s.key()) for s in minimal)


def classify(problem: ExtensionProblem, *, degree_cap: int = DEGREE_CAP,
             budget: NodeBudget | None = None) -> ClassificationReport:
    """Enumerate the structures of the problem and classify each one.

    The search (`enumerate_regular_normalized`) walks one stage-1 seed
    per conjugacy class of cyclic subgroups of prime order, over the cycle
    lengths of `engine._search_lengths`, which also says why a primitive
    problem needs only one length, or none.  It uses the
    automorphisms of G as a symmetry for Galois problems only: there it
    walks one seed per class under the maps it finds.  Each seed skips the
    cycle lengths whose orbits a larger prime's seed meets.  The answers are
    the same either way; the report's `engine` counters (see `NodeBudget`)
    show the cuts.  N's type is read from its tuples where it can be.
    """
    if budget is None:
        budget = NodeBudget()
    structures = enumerate_regular_normalized(
        problem, degree_cap=degree_cap, budget=budget)
    return ClassificationReport(
        problem=problem,
        structures=structures,
        intermediate_count=len(problem.blocks),
        normal_complement_bound=_complement_bound(problem, structures),
        engine=budget.counters(),
    )
