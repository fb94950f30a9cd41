import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfgalois import (ExtensionProblem, FiniteGroup, HGStructure,
                        alternating, characteristic_obstruction,
                        classify, correspondence_stats, coset_action, cyclic,
                        dihedral, elementary_abelian, enumerate_regular_normalized,
                        enumerate_via_transversal, g_stable_subgroups,
                        holomorph_minimality_certificate, intermediate_subgroups,
                        is_minimal, minimal_lower_bound, normal_complements,
                        symmetric, translation_structure)
from hopfgalois.dsl import build_text
from hopfgalois.perms import conjugate, cycle_string, inverse
from conftest import (catalog_problems, complement_problem, stabilizer_problem,
                      subgroup_problem)


def stable_subgroups_via_filter(group: FiniteGroup, maps) -> list:
    """Independent route: every subgroup, kept when each map carries it
    onto itself."""
    maps = list(maps)
    return [h for h in group.subgroups()
            if all({t[i] for i in h.members} == h._set for t in maps)]


def stable_subgroups_via_orbits(structure: HGStructure) -> set[frozenset]:
    """Independent route: grow cyclic subgroups to their smallest stable
    closure, then close the set of closures under joins."""
    group = structure.group
    actions = [structure.conj_action(x) for x in structure.action.generators]

    def stable_closure(seed) -> frozenset:
        current = frozenset(seed)
        while True:
            grown = group.closure_of(current)
            for t in actions:
                grown = grown | {t[i] for i in grown}
            if grown == current:
                return current
            current = grown

    atoms = {stable_closure(group.closure_of([i])) for i in range(len(group))}
    stable = set(atoms)
    frontier = list(atoms)
    while frontier:
        a = frontier.pop()
        for b in atoms:
            j = stable_closure(a | b)
            if j not in stable:
                stable.add(j)
                frontier.append(j)
    return stable


def galois_structures(group) -> tuple:
    act = coset_action(ExtensionProblem.galois(group))
    return act, enumerate_regular_normalized(act)


def test_lattice_prime_order():
    _, structures = galois_structures(cyclic(5))
    (s,) = structures
    lattice = g_stable_subgroups(s)
    assert [u.order for u in lattice] == [1, 5]
    assert is_minimal(s)


def test_lattice_galois_s3_both_symmetric_structures():
    act, structures = galois_structures(symmetric(3))
    sym = [s for s in structures if s.type_name == "S3"]
    assert len(sym) == 2
    sizes = sorted(len(g_stable_subgroups(s)) for s in sym)
    # the translation copy gets the conjugation action (3 normal subgroups);
    # the centralizing copy gets the trivial action (all 6 subgroups)
    assert sizes == [3, 6]
    lam = {act.translation(x) for x in range(6)}
    lam_structure = next(s for s in sym if set(s.key()) == lam)
    orders = [u.order for u in g_stable_subgroups(lam_structure)]
    assert orders == [1, 3, 6]


def test_lattice_galois_c8_cyclic_type():
    _, structures = galois_structures(cyclic(8))
    for s in structures:
        if s.type_name == "C8":
            assert [u.order for u in g_stable_subgroups(s)] == [1, 2, 4, 8]


def test_lattice_two_routes_agree(reports):
    for name, report in reports.items():
        for v in report.verdicts:
            s = v.structure
            maps = [s.conj_action(x) for x in s.action.generators]
            assert v.stable_subgroups == stable_subgroups_via_filter(s.group, maps), name
            lattice = {frozenset(u.members) for u in v.stable_subgroups}
            assert lattice == stable_subgroups_via_orbits(s), name


def test_is_minimal_examples(reports):
    s4 = reports["S4/S3"]
    assert s4.structure_count == 1 and s4.verdicts[0].minimal
    assert all(not v.minimal for v in reports["galois C8"].verdicts)
    assert all(not v.minimal for v in reports["galois D3"].verdicts)


def test_is_minimal_galois_d5(d5_report):
    assert d5_report.structure_count == 7
    assert sorted(d5_report.types()) == ["C10"] * 5 + ["D5"] * 2
    assert d5_report.minimal_count == 0


def test_characteristic_obstruction():
    _, structures = galois_structures(cyclic(8))
    for s in structures:
        witness = characteristic_obstruction(s)
        assert witness is not None
        assert 1 < witness.order < 8
        if s.type_name == "C8":
            # the order-4 subgroup is also characteristic
            from hopfgalois import characteristic_subgroups
            assert {u.order for u in characteristic_subgroups(s.group)} == {1, 2, 4, 8}
        if s.type_name == "Q8":
            assert witness.order == 2  # the center, its unique minimal one

    # Klein-type N has no obstruction
    act = coset_action(stabilizer_problem(symmetric(4)))
    (klein,) = enumerate_regular_normalized(act)
    assert characteristic_obstruction(klein) is None


def test_normal_complements_a4():
    g = alternating(4)
    c3 = next(s for s in g.subgroups() if s.order == 3)
    prob = ExtensionProblem(g, c3)
    comps = normal_complements(prob)
    assert [c.order for c in comps] == [4]
    assert minimal_lower_bound(prob) == 1
    # oracle for the bound: the three order-2 subgroups of V are not normal in A4
    v = comps[0]
    order2 = [x for x in v.members if g.element_order(x) == 2]
    for x in order2:
        assert any(g.conj(y, x) not in v._set or g.conj(y, x) != x
                   for y in range(12))


def test_normal_complements_s5_s4_empty():
    prob = stabilizer_problem(symmetric(5))
    assert normal_complements(prob) == []
    assert minimal_lower_bound(prob) == 0


def test_normal_complements_galois_case():
    prob = ExtensionProblem.galois(dihedral(3))
    comps = normal_complements(prob)
    assert [c.order for c in comps] == [6]
    assert comps[0].is_full()


def test_minimal_lower_bound_catalog(reports):
    probs = catalog_problems()
    assert minimal_lower_bound(probs["S4/S3"]) == 1
    assert minimal_lower_bound(probs["galois C8"]) == 0
    for name, report in reports.items():
        assert report.minimal_count >= report.normal_complement_bound, name
        # classify reads the bound off its verdicts; this is the oracle
        assert report.normal_complement_bound == minimal_lower_bound(probs[name]), name


def test_node_count_repeats():
    counts = {classify(ExtensionProblem.galois(dihedral(3))).nodes_used
              for _ in range(2)}
    assert len(counts) == 1 and counts.pop() > 0


def test_certificate_characteristically_simple_holomorphs():
    assert holomorph_minimality_certificate(elementary_abelian(2, 2))
    assert holomorph_minimality_certificate(elementary_abelian(3, 2))
    assert holomorph_minimality_certificate(elementary_abelian(2, 3))
    assert holomorph_minimality_certificate(cyclic(5))
    with pytest.raises(ValueError):
        holomorph_minimality_certificate(cyclic(4))


def test_smaller_acting_groups_still_minimal():
    # order-56 and order-36 problems: G' far smaller than the full
    # automorphism group, checked through the lattice directly
    from conftest import ORDER_36_EXPR, ORDER_56_EXPR, complement_problem
    for expr, typ in [(ORDER_56_EXPR, "E(2,3)"), (ORDER_36_EXPR, "E(3,2)")]:
        prob = complement_problem(expr)
        act = coset_action(prob)
        m = next(c for c in normal_complements(prob))
        s = translation_structure(act, m.members)
        assert s.type_name == typ
        assert is_minimal(s)


def test_correspondence_stats(reports):
    probs = catalog_problems()
    s4 = reports["S4/S3"]
    assert correspondence_stats(probs["S4/S3"], s4.verdicts[0].structure) == (2, 2)

    act, structures = galois_structures(cyclic(8))
    prob = ExtensionProblem.galois(cyclic(8))
    cyclic_type = next(s for s in structures if s.type_name == "C8")
    assert correspondence_stats(prob, cyclic_type) == (4, 4)

    prob = ExtensionProblem.galois(symmetric(3))
    act = coset_action(prob)
    rho = [s for s in enumerate_regular_normalized(act)
           if s.type_name == "S3" and len(g_stable_subgroups(s)) == 6]
    assert correspondence_stats(prob, rho[0]) == (6, 6)


def test_intermediate_subgroups():
    prob = stabilizer_problem(symmetric(4))
    subs = intermediate_subgroups(prob)
    assert [len(s) for s in subs] == [6, 24]
    prob = ExtensionProblem.galois(cyclic(8))
    assert [len(s) for s in intermediate_subgroups(prob)] == [1, 2, 4, 8]


def closure_walk_intermediate(problem: ExtensionProblem) -> list[frozenset[int]]:
    """Independent route, the former engine: close G' together with each
    element outside it inside G, and repeat from every new subgroup."""
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


# Beyond the catalog: a complement problem at degree 9 and a degree-10
# problem whose G' (order 12) is far from a point stabilizer.
_ORACLE_PROBLEMS = {
    **catalog_problems(),
    "Hol(C(9)) complement": complement_problem("Hol(C(9))"),
    "S5 on G' order 12": subgroup_problem("S(5)", "gens[(0 1), (2 3 4), (2 3)]"),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_PROBLEMS))
def test_intermediate_subgroups_match_closure_walk(name):
    prob = _ORACLE_PROBLEMS[name]
    assert intermediate_subgroups(prob) == closure_walk_intermediate(prob)


_DEGREES = st.integers(min_value=2, max_value=6)
_TRANSITIVE_ORDER_CAP = 120


@st.composite
def _generator_pairs(draw):
    n = draw(_DEGREES)
    return [tuple(draw(st.permutations(range(n)))) for _ in range(2)]


@settings(max_examples=25, deadline=None)
@given(_generator_pairs())
def test_random_transitive_groups(gens):
    """Point-stabilizer problems of random transitive groups: the block
    route against the closure walk, the orbit engine against the
    transversal engine, and the normal and sub-Hopf lattices against
    filters over all subgroups."""
    n = len(gens[0])
    # the lone fixed point (n-1) sets the degree to n
    a, b = map(cycle_string, gens)
    group = build_text(f"gens[{a}, {b}, ({n - 1})]").group
    assume(len(group) <= _TRANSITIVE_ORDER_CAP)
    assume({p[0] for p in group.raw_elements()} == set(range(n)))
    prob = stabilizer_problem(group)
    assert intermediate_subgroups(prob) == closure_walk_intermediate(prob)
    assert group.normal_subgroups() == [h for h in group.subgroups() if h.is_normal()]
    act = coset_action(prob)
    structures = enumerate_regular_normalized(act)
    assert sorted(s.key() for s in structures) == enumerate_via_transversal(act)
    for s in structures:
        maps = [s.conj_action(x) for x in act.generators]
        assert g_stable_subgroups(s) == stable_subgroups_via_filter(s.group, maps)


# Point i is renamed sigma[i]; sigma(0) != 0, so G' of the relabelled
# problem is the stabilizer of another point of the original group.
_SIGMA = {4: (2, 0, 3, 1), 6: (2, 0, 3, 1, 5, 4)}


@pytest.mark.parametrize("expr", [
    "gens[(0 1 2 3), (1 3)]",
    "gens[(0 1 2 3 4 5), (0 5)(1 4)(2 3)]",  # D6 on the hexagon
    "S(4)",
])
def test_relabelling_invariance(expr):
    group = build_text(expr).group
    sigma = _SIGMA[group.perm_degree]
    sigma_inv = inverse(sigma)
    relabelled = FiniteGroup.from_permutations(
        conjugate(sigma, p, sigma_inv) for p in group.raw_elements())

    def summary(g):
        rep = classify(stabilizer_problem(g))
        return (rep.structure_count, sorted(rep.types()), rep.minimal_count,
                sorted(v.subhopf_count for v in rep.verdicts),
                rep.intermediate_count, rep.normal_complement_bound)

    before = summary(group)
    assert before[0] > 0
    assert summary(relabelled) == before


def test_hol_e23_complement():
    # Hol(E(2,3)) = AGL(3,2), order 1344, on the 8 points of E(2,3): the
    # translation structure is the only one, and it is minimal, as
    # holomorph_minimality_certificate proves for E(2,3).  AGL(3,2) is
    # primitive, so G' = GL(3,2) and G are the only intermediate subgroups;
    # the translation subgroup is the one normal complement, and minimal.
    rep = classify(complement_problem("Hol(E(2,3))"))
    assert rep.structure_count == 1 and rep.minimal_count == 1
    assert rep.types() == ["E(2,3)"]
    assert rep.intermediate_count == 2
    assert rep.normal_complement_bound == 1


def test_s6_point_stabilizer():
    # Greither-Pareigis: no group of order 6 is regular and normalized by
    # S6, and S6 is primitive on 6 points, so G' = S5 and S6 alone lie
    # between them.
    rep = classify(stabilizer_problem(symmetric(6)))
    assert rep.structure_count == 0
    assert rep.intermediate_count == 2


def test_intermediate_subgroups_degree_12():
    # S6 on the cosets of a transitive A5 = PSL(2,5) (degree 12).  Its
    # overgroups are PGL(2,5) (a transitive S5), A6 and S6: A5 < PGL(2,5)
    # and A5 < A6 < S6, from the maximal subgroups of A6 and S6 in the
    # ATLAS of Finite Groups.  The search (about 3 s) is not run here.
    prob = subgroup_problem("S(6)", "gens[(0 1 2 3 4), (0 5)(1 4)]")
    assert [len(h) for h in intermediate_subgroups(prob)] == [60, 120, 360, 720]


def test_classify_s3_c2():
    rep = classify(stabilizer_problem(symmetric(3)))
    assert rep.structure_count == 1
    assert rep.types() == ["C3"]
    assert rep.verdicts[0].minimal
    assert rep.intermediate_count == 2


def test_classify_no_structures():
    rep = classify(stabilizer_problem(symmetric(5)))
    assert rep.structure_count == 0
    assert rep.minimal_count == 0


def test_classify_order_36_contains_minimal_elementary_type(reports):
    rep = reports["order 36"]
    assert any(v.minimal and v.structure.type_name == "E(3,2)" for v in rep.verdicts)


def test_quartic_with_dihedral_closure(reports):
    # frozen from the brute-force engines: the cyclic-complement quartic
    # problem carries two structures, one cyclic and one Klein, neither minimal
    rep = reports["D4 quartic"]
    assert rep.structure_count == 2
    assert sorted(rep.types()) == ["C4", "E(2,2)"]
    assert rep.minimal_count == 0


def test_structure_properties_across_catalog(reports):
    probs = catalog_problems()
    for name, report in reports.items():
        inter = report.intermediate_count
        for v in report.verdicts:
            assert 2 <= v.subhopf_count <= inter, name
            assert v.minimal == (v.subhopf_count == 2), name
            assert v.minimal == is_minimal(v.structure), name
            if characteristic_obstruction(v.structure) is not None:
                assert not v.minimal, name
            n_order = len(v.structure.group)
            if n_order in (2, 3, 5, 7, 11):
                assert v.minimal, name
        assert report.minimal_count >= report.normal_complement_bound, name
        # Galois problems over a simple group have exactly one minimal structure
        g = probs[name].group
        if probs[name].subgroup.order == 1 and len(g) in (2, 3, 5, 7):
            assert report.minimal_count == 1, name
