"""Acceptance suite: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the stated times are targets on commodity hardware and are reported, not
asserted.
"""

import time

import pytest

from hopfgalois import (CapExceeded, ExtensionProblem, alternating,
                        are_isomorphic, automorphism_group,
                        correspondence_stats, cyclic, dihedral,
                        elementary_abelian, enumerate_regular_normalized,
                        enumerate_via_transversal, g_stable_subgroups,
                        holomorph, holomorph_copies,
                        inner_automorphism, is_minimal, minimal_lower_bound,
                        normal_complements, quaternion, symmetric,
                        translation_structure)
from hopfgalois import NodeBudget, characteristic_obstruction

from conftest import catalog_problems, tuple_sets


class _Verdict:
    def __init__(self, num: int, description: str):
        self.num = num
        self.description = description
        self.start = time.perf_counter()

    def record(self, ok: bool) -> bool:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {self.num:02d}] {status} ({elapsed:6.2f}s) {self.description}")
        return ok


def test_criterion_01_quartic_symmetric_case(reports):
    v = _Verdict(1, "(S4, S3): one Klein structure, minimal, stats (2, 2)")
    rep = reports["S4/S3"]
    ok = (rep.structure_count == 1
          and rep.types() == ["E(2,2)"]
          and is_minimal(rep.structures[0])
          and correspondence_stats(rep.structures[0]) == (2, 2))
    assert v.record(ok)


def test_criterion_02_quintic_symmetric_case(reports):
    v = _Verdict(2, "(S5, S4): no structures at all")
    rep = reports["S5/S4"]
    assert v.record(rep.structure_count == 0)


def test_criterion_03_galois_c8(reports):
    v = _Verdict(3, "Galois C8: 6 structures split 2 cyclic / 2 dihedral / "
                    "2 quaternion, none minimal")
    rep = reports["galois C8"]
    ok = (rep.structure_count == 6
          and sorted(rep.types()) == ["C8", "C8", "D4", "D4", "Q8", "Q8"]
          and rep.minimal_count == 0)
    assert v.record(ok)


def test_criterion_04_galois_prime_cyclic(reports):
    v = _Verdict(4, "Galois C_p for p in {2,3,5,7}: one structure each, minimal")
    ok = True
    for p in (2, 3, 5, 7):
        rep = reports[f"galois C{p}"]
        ok &= (rep.structure_count == 1 and rep.minimal_count == 1
               and rep.types() == [f"C{p}"])
    assert v.record(ok)


def test_criterion_05_galois_dihedral(reports, d5_report):
    v = _Verdict(5, "Galois D_p for p in {3,5}: nothing minimal; degree-6 "
                    "count agreed by both engines")
    d3 = reports["galois D3"]
    ok = d3.minimal_count == 0 and d5_report.minimal_count == 0
    prob = ExtensionProblem.galois(dihedral(3))
    primary = enumerate_regular_normalized(prob, budget=NodeBudget(50_000_000))
    reference = enumerate_via_transversal(prob, budget=NodeBudget(50_000_000))
    ok &= sorted(s.key() for s in primary) == reference
    ok &= d3.structure_count == len(primary) == 5
    assert v.record(ok)


def test_criterion_06_alternating_quartic(reports):
    v = _Verdict(6, "(A4, C3): minimal Klein structure; normal complement "
                    "unique; bound 1 <= minimal count")
    rep = reports["A4/C3"]
    prob = catalog_problems()["A4/C3"]
    comps = normal_complements(prob)
    ok = (any(is_minimal(s) and s.type_name == "E(2,2)"
              for s in rep.structures)
          and len(comps) == 1 and comps[0].order == 4
          and minimal_lower_bound(prob) == 1 <= rep.minimal_count)
    assert v.record(ok)


def test_criterion_07_order_56(reports):
    v = _Verdict(7, "order-56 problem, degree 8: the rank-3 elementary "
                    "abelian structure is minimal")
    prob = catalog_problems()["order 56"]
    m = normal_complements(prob)[0]
    s = translation_structure(prob, m.members)
    ok = s.type_name == "E(2,3)" and is_minimal(s)
    ok &= any(is_minimal(n) and n.type_name == "E(2,3)"
              for n in reports["order 56"].structures)
    assert v.record(ok)


def test_criterion_08_order_36(reports):
    v = _Verdict(8, "order-36 problem, degree 9: the rank-2 elementary "
                    "abelian structure is minimal")
    prob = catalog_problems()["order 36"]
    m = normal_complements(prob)[0]
    s = translation_structure(prob, m.members)
    ok = s.type_name == "E(3,2)" and is_minimal(s)
    ok &= any(is_minimal(n) and n.type_name == "E(3,2)"
              for n in reports["order 36"].structures)
    assert v.record(ok)


def test_criterion_09_holomorph_facts():
    v = _Verdict(9, "Hol(E(2,2)) is S4; |Aut(E(2,2))| = 6; |Hol(C4)| = 8")
    klein = elementary_abelian(2, 2)
    ok = (are_isomorphic(holomorph(klein), symmetric(4))
          and len(automorphism_group(klein)) == 6
          and len(holomorph(cyclic(4))) == 8)
    assert v.record(ok)


def _conjugation_identity_exhaustive(n) -> bool:
    aut = automorphism_group(n)
    hol = holomorph(n)
    for th in range(len(aut)):
        t = aut.raw(th)
        th_inv = aut.inv(th)
        t_inv = aut.raw(th_inv)
        for g in range(len(n)):
            sigma_g = aut.index_of(inner_automorphism(n, g))
            rhs = hol.index_of((t[n.inv(g)],
                                aut.index_of(inner_automorphism(n, t[g]))))
            mid = hol.index_of((n.inv(g), sigma_g))
            for x in range(len(n)):
                lhs = hol.mul(hol.mul(hol.index_of((x, th)), mid),
                              hol.index_of((t_inv[n.inv(x)], th_inv)))
                if lhs != rhs:
                    return False
    return True


def test_criterion_10_holomorph_identity_suite():
    v = _Verdict(10, "conjugation identity exhaustive for S3, D4, Q8; both "
                     "canonical copies normal, distinct iff nonabelian; A5 case")
    ok = True
    for n in (symmetric(3), dihedral(4), quaternion(8)):
        ok &= _conjugation_identity_exhaustive(n)
        hol, translations, twisted = holomorph_copies(n)
        ok &= translations.is_normal() and twisted.is_normal()
        ok &= (translations != twisted) == (not n.is_abelian())
    hol, translations, twisted = holomorph_copies(cyclic(4))
    ok &= translations == twisted
    a5 = alternating(5)
    hol, translations, twisted = holomorph_copies(a5)
    ok &= len(automorphism_group(a5)) == 120 and len(hol) == 7200
    ok &= translations.is_normal() and twisted.is_normal()
    ok &= translations != twisted
    assert v.record(ok)


def test_criterion_11_property_suite(reports):
    v = _Verdict(11, "property suite across the catalog: obstruction, prime "
                     "order, lattice bounds, complements, cross-engine")
    probs = catalog_problems()
    ok = True
    for name, rep in reports.items():
        prob = probs[name]
        inter = rep.intermediate_count
        for s in rep.structures:
            minimal = is_minimal(s)
            if characteristic_obstruction(s) is not None:      # (a)
                ok &= not minimal
            if len(s.group) in (2, 3, 5, 7, 11):               # (b)
                ok &= minimal
            ok &= 2 <= len(s.stable_subgroups) <= inter        # (c)
            lattice = tuple_sets(g_stable_subgroups(s))           # (d)
            ok &= minimal == (len(lattice) == 2)
            ok &= tuple_sets(s.stable_subgroups) == lattice
        ok &= rep.minimal_count >= rep.normal_complement_bound
        # (e) N inside the translation image pulls back to a normal complement
        g = prob.group
        lam = {prob.translation(x): x for x in range(len(g))}
        complement_sets = {frozenset(c.members) for c in normal_complements(prob)}
        for s in rep.structures:
            if all(p in lam for p in s.key()):
                pre = frozenset(lam[p] for p in s.key())
                ok &= pre in complement_sets
        # (f) cross-engine agreement at degree <= 8
        if prob.degree <= 8:
            primary = enumerate_regular_normalized(
                prob, budget=NodeBudget(200_000_000))
            reference = enumerate_via_transversal(
                prob, budget=NodeBudget(200_000_000))
            ok &= sorted(s.key() for s in primary) == reference
    assert v.record(ok)


def test_criterion_12_exclusions_and_quartic_brute_force(reports):
    v = _Verdict(12, "degree-60 simple-group case excluded loudly; cyclic-"
                     "complement quartic checked by brute force")
    # the nonabelian-simple Galois case needs degree-60 enumeration: the
    # engine must refuse it rather than truncate
    prob = ExtensionProblem.galois(alternating(5))
    try:
        enumerate_regular_normalized(prob)
        ok = False
    except CapExceeded:
        ok = True
    # frozen brute-force facts for the quartic with cyclic normal complement:
    # two structures (one cyclic, one Klein), neither minimal
    rep = reports["D4 quartic"]
    ok &= rep.structure_count == 2
    ok &= sorted(rep.types()) == ["C4", "E(2,2)"]
    ok &= rep.minimal_count == 0
    assert v.record(ok)
