"""The benchmark corpus: three workloads of extension problems, each row
with its expected answer written out by hand.

A row names a problem the way the command line does: a group expression
and the flag that picks G'.  Its expected answer is what `classify` must
report: the structure count, the minimal count, the isomorphism types of
the structures as a multiset, the number of intermediate subgroups
G' <= H <= G, and the normal-complement lower bound.  `source` says where
the row comes from.  Rows marked "frozen" have no independent source: they
record the output of the implementation at commit d41a5d7.
"""

from __future__ import annotations

from dataclasses import dataclass

GALOIS = ("--galois",)
POINT = ("--stabilizer-of-point",)
COMPLEMENT = ("--complement",)

TRANSVERSAL = ("cross-checked against enumerate_via_transversal "
               "(bench/crosscheck.py): structures, types, minimal count")


@dataclass(frozen=True)
class Problem:
    expr: str
    flags: tuple[str, ...]
    structures: int
    minimal: int
    types: dict[str, int]
    intermediate: int
    bound: int
    source: str

    @property
    def label(self) -> str:
        return " ".join((self.expr, *self.flags))

    def build(self, hg, dsl):
        """The ExtensionProblem this row names, built through the public
        API the way the command line builds it from the same flags."""
        built = dsl.build_text(self.expr)
        group = built.group
        mode = self.flags[0]
        if mode == "--galois":
            return hg.ExtensionProblem.galois(group)
        if mode == "--complement":
            return hg.ExtensionProblem(group, built.complement)
        if mode == "--stabilizer-of-point":
            members = [i for i in range(len(group)) if group.raw(i)[0] == 0]
        else:
            sub = dsl.build_text(self.flags[1]).group
            members = [group.index_of(r) for r in sub.raw_elements()]
        return hg.ExtensionProblem(group, group.subgroup(members))


SEARCH = (
    Problem("D(5)", GALOIS, 7, 0, {"C10": 5, "D5": 2}, 8, 0,
            "Byott 2004: D_p Galois has p+2 structures"),
    Problem("C(10)", GALOIS, 3, 0, {"C10": 1, "D5": 2}, 4, 0,
            "Byott 2004: C_2p Galois has 3 structures"),
    Problem("C(9)", GALOIS, 3, 0, {"C9": 3}, 3, 0,
            "Kohl 1998: C_p^k Galois has p^(k-1) structures"),
    Problem("C(3) x C(3)", GALOIS, 9, 0, {"E(3,2)": 9}, 6, 0,
            "Byott 1996: 9 structures"),
    Problem("Hol(C(9))", COMPLEMENT, 1, 0, {"C9": 1}, 3, 0, "frozen"),
    Problem("SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))", COMPLEMENT,
            1, 1, {"E(3,2)": 1}, 2, 1, "frozen"),
    # Degree 10 with G' of order 12: lambda(x) has fixed points here.
    Problem("S(5)", ("--subgroup", "gens[(0 1), (2 3 4), (2 3)]"),
            0, 0, {}, 2, 0, "frozen"),
)

STATS = (
    Problem("A(6)", POINT, 0, 0, {}, 2, 0,
            "Greither-Pareigis: no structures; " + TRANSVERSAL),
    Problem("S(5)", POINT, 0, 0, {}, 2, 0,
            "Greither-Pareigis: no structures; " + TRANSVERSAL),
    Problem("A(5)", POINT, 0, 0, {}, 2, 0,
            "Greither-Pareigis: no structures; " + TRANSVERSAL),
    Problem("Hol(E(3,2))", COMPLEMENT, 1, 1, {"E(3,2)": 1}, 2, 1,
            "holomorph minimality certificate: 1 minimal; rest frozen"),
)

LATTICE = (
    Problem("E(2,3)", GALOIS, 106, 0,
            {"C2 x C4": 42, "D4": 42, "E(2,3)": 8, "Q8": 14}, 16, 0,
            TRANSVERSAL),
    Problem("D(4)", GALOIS, 30, 0,
            {"C2 x C4": 14, "C8": 2, "D4": 6, "E(2,3)": 6, "Q8": 2}, 10, 0,
            TRANSVERSAL),
    Problem("Q(8)", GALOIS, 22, 0,
            {"C2 x C4": 6, "C8": 6, "D4": 6, "E(2,3)": 2, "Q8": 2}, 6, 0,
            TRANSVERSAL),
    Problem("C(2) x C(4)", GALOIS, 26, 0,
            {"C2 x C4": 10, "C8": 4, "D4": 6, "E(2,3)": 4, "Q8": 2}, 8, 0,
            TRANSVERSAL),
    Problem("C(8)", GALOIS, 6, 0, {"C8": 2, "D4": 2, "Q8": 2}, 4, 0,
            TRANSVERSAL),
    Problem("D(3)", GALOIS, 5, 0, {"C6": 3, "S3": 2}, 6, 0, TRANSVERSAL),
    Problem("S(4)", POINT, 1, 1, {"E(2,2)": 1}, 2, 1, TRANSVERSAL),
    Problem("gens[(0 1 2 3), (1 3)]", POINT, 2, 0, {"C4": 1, "E(2,2)": 1},
            3, 0, TRANSVERSAL),
    Problem("SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))", COMPLEMENT,
            1, 1, {"E(2,2)": 1}, 2, 1, TRANSVERSAL),
    Problem("SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))", COMPLEMENT,
            1, 1, {"E(2,3)": 1}, 2, 1, TRANSVERSAL),
)

WORKLOADS = {
    "search": SEARCH,
    "stats": STATS,
    "lattice": LATTICE,
}
