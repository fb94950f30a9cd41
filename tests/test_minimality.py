import functools
import json
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hopfgalois
import hopfgalois.cli
from hopfgalois import (ExtensionProblem, FiniteGroup, HGStructure,
                        NodeBudget, alternating, characteristic_obstruction,
                        classify, correspondence_stats, cyclic,
                        dihedral, elementary_abelian, enumerate_regular_normalized,
                        enumerate_via_transversal, g_stable_subgroups,
                        holomorph_minimality_certificate, intermediate_subgroups,
                        is_minimal, minimal_lower_bound, normal_complements,
                        symmetric, translation_structure)
from hopfgalois.cli import _problem
from hopfgalois.dsl import build_text
from hopfgalois.groups import _is_prime
from hopfgalois.perms import compose, cycle_string, from_cycles, inverse
from conftest import (DEGREE_12_ROWS, E24_EXPRS,
                      assert_blocks_are_the_walked_ones, catalog_problems,
                      complement_problem, conjugate, read_cycles,
                      stabilizer_problem, subgroup_problem, tuple_sets)
from test_canonical_digest import DEGREE_12_SHA256
from test_corpus import ROWS as CORPUS_ROWS


def stable_subgroups_via_filter(group: FiniteGroup, maps) -> list:
    """Independent route: every subgroup, kept when each map carries it
    onto itself."""
    maps = list(maps)
    return [h for h in group.subgroups()
            if all({t[i] for i in h.members} == h._set for t in maps)]


def stable_subgroups_via_orbits(structure: HGStructure) -> list:
    """Independent route: grow cyclic subgroups to their smallest stable
    closure, then close the set of closures under joins."""
    group = structure.group
    actions = [structure.conj_action(x) for x in structure.problem.group.generators()]

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
    return [group.subgroup(q) for q in stable]


def galois_structures(group) -> tuple:
    prob = ExtensionProblem.galois(group)
    return prob, enumerate_regular_normalized(prob)


def test_lattice_prime_order():
    _, structures = galois_structures(cyclic(5))
    (s,) = structures
    lattice = g_stable_subgroups(s)
    assert [u.order for u in lattice] == [1, 5]
    assert is_minimal(s)


def test_lattice_galois_s3_both_symmetric_structures():
    prob, structures = galois_structures(symmetric(3))
    sym = [s for s in structures if s.type_name == "S3"]
    assert len(sym) == 2
    sizes = sorted(len(g_stable_subgroups(s)) for s in sym)
    # the translation copy gets the conjugation action (3 normal subgroups);
    # the centralizing copy gets the trivial action (all 6 subgroups)
    assert sizes == [3, 6]
    lam = {prob.translation(x) for x in range(6)}
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
        for s in report.structures:
            maps = [s.conj_action(x) for x in s.problem.group.generators()]
            lattice = tuple_sets(s.stable_subgroups)
            assert lattice == tuple_sets(stable_subgroups_via_filter(s.group, maps)), name
            assert lattice == tuple_sets(stable_subgroups_via_orbits(s)), name


@pytest.mark.parametrize("label", sorted(DEGREE_12_SHA256))
def test_search_lattices_match_oracle_degree_12(label):
    expr, flag, *rest = label.split(" ", 2)
    if flag == "--galois":
        prob = ExtensionProblem.galois(build_text(expr).group)
    else:
        prob = subgroup_problem(expr, *rest)
    for s in classify(prob).structures:
        assert tuple_sets(s.stable_subgroups) == tuple_sets(g_stable_subgroups(s)), label
        assert s.stable_subgroups[0] == {tuple(range(prob.degree))}, label


def test_classify_does_not_rebuild_lattices(monkeypatch):
    # every lattice is read through the blocks: with the route through
    # conj_action and stable_subgroups shut, classify still answers; the
    # action marks its blocks once, each structure reads its fibers once,
    # and _combine_atoms runs once, as the search's stage 2, on every
    # problem, primitive and refused ones included
    def shut(*args, **kwargs):
        raise AssertionError("classify rebuilt a sub-Hopf lattice")

    def counted(owner, name):
        original, calls = getattr(owner, name), []

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    monkeypatch.setattr(FiniteGroup, "stable_subgroups", shut)
    monkeypatch.setattr(HGStructure, "conj_action", shut)
    combines = counted(hopfgalois.engine, "_combine_atoms")
    tables = counted(ExtensionProblem, "_walk_blocks")
    fibers = counted(hopfgalois.engine, "_stable_fibers")
    prob = ExtensionProblem.galois(elementary_abelian(2, 3))
    rep = classify(prob)
    assert len(combines) == 1
    assert rep.structure_count == 106
    # as g_stable_subgroups gives them
    assert Counter(len(s.stable_subgroups) for s in rep.structures) == {
        6: 42, 8: 63, 16: 1}
    assert rep.minimal_count == 0
    assert len(fibers) == 106  # each lattice read once
    # the problem's blocks are walked once, for all of its readers
    assert len(intermediate_subgroups(prob)) == 16
    assert {correspondence_stats(s)[1] for s in rep.structures} == {16}
    assert tables == [(prob,)]
    # Hol(E(3,2)) is primitive, with one structure; A(6) on a point is
    # refused (6 < 60 is no prime power): no image, no seed, no join
    closures = counted(hopfgalois.engine, "_closure")
    for prob, count in [(complement_problem("Hol(E(3,2))"), 1),
                        (stabilizer_problem(alternating(6)), 0)]:
        combines.clear()
        closures.clear()
        rep = classify(prob)
        assert len(combines) == 1 and rep.structure_count == count
    assert prob._image is None and rep.engine["seeds"] == 0 and closures == []
    assert combines[0][0] == []


def test_classify_and_the_cli_build_no_fiber_set(monkeypatch, capsys):
    # a lattice is held as its image under the correspondence, one bit per
    # block: with the fiber builder and intermediate_subgroups shut,
    # classify and the command line still answer, and each reads the 106
    # lattices once
    def shut(*args, **kwargs):
        raise AssertionError("a fiber or intermediate set was built")

    fibers, calls = hopfgalois.engine._stable_fibers, []

    def counted(*args):
        calls.append(args)
        return fibers(*args)

    monkeypatch.setattr(hopfgalois.engine, "_fiber_sets", shut)
    monkeypatch.setattr(hopfgalois.minimality, "intermediate_subgroups", shut)
    monkeypatch.setattr(hopfgalois.engine, "_stable_fibers", counted)
    rep = classify(ExtensionProblem.galois(elementary_abelian(2, 3)))
    assert (rep.structure_count, rep.minimal_count, rep.intermediate_count) == \
        (106, 0, 16)
    assert Counter(correspondence_stats(s) for s in rep.structures) == {
        (6, 16): 42, (8, 16): 63, (16, 16): 1}
    assert len(calls) == 106
    calls.clear()
    assert hopfgalois.cli.main(["enumerate", "E(2,3)", "--galois", "--canonical"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert Counter(s["subhopf_count"] for s in doc["structures"]) == {6: 42, 8: 63, 16: 1}
    assert len(calls) == 106


def shut_lattice_routes_through_n(m) -> None:
    """Shut, on the monkeypatch context `m`, the routes to a lattice through
    N's `FiniteGroup`: its Cayley table and `FiniteGroup.stable_subgroups`
    raise for a group named as `HGStructure.group` names N."""
    def shut_for_n(original):
        def shut(self, *args):
            if self.name.startswith("N("):
                raise AssertionError("a lattice was read through N's group")
            return original(self, *args)
        return shut

    m.setattr(FiniteGroup, "_cayley_rows", shut_for_n(FiniteGroup._cayley_rows))
    m.setattr(FiniteGroup, "stable_subgroups",
              shut_for_n(FiniteGroup.stable_subgroups))


def test_structures_outside_the_search_compute_their_lattice_on_read(monkeypatch):
    # construction stays cheap: with the lattice routes shut, the structures
    # the transversal engine finds are still built
    def shut(*args, **kwargs):
        raise AssertionError("a lattice was built with its structure")

    prob = ExtensionProblem.galois(dihedral(3))
    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "stable_subgroups", shut)
        m.setattr(hopfgalois.engine, "_stable_fibers", shut)
        structures = [HGStructure(prob, key) for key in enumerate_via_transversal(prob)]
    with monkeypatch.context() as m:
        shut_lattice_routes_through_n(m)
        lattices = [s.stable_subgroups for s in structures]
    for s, lattice in zip(structures, lattices):
        assert tuple_sets(lattice) == tuple_sets(g_stable_subgroups(s))
        assert lattice[0] == {tuple(range(6))}  # the trivial group first
        assert s.stable_subgroups is lattice  # computed once
    assert [is_minimal(s) for s in structures] == [False] * 5
    # a regular group that the translations do not normalize is refused
    # when it is built
    t = from_cycles(6, [(0, 1, 2, 3, 5, 4)])
    powers = [tuple(range(6))]
    while len(powers) < 6:
        powers.append(compose(t, powers[-1]))
    with pytest.raises(ValueError):
        HGStructure(prob, powers)
    # six elements with distinct images of 0, a set that lambda(C6)
    # normalizes, but not a group: refused too
    prob = ExtensionProblem.galois(cyclic(6))
    involutions = ["(0 1)(2 3)(4 5)", "(0 2)(1 4)(3 5)", "(0 3)(1 5)(2 4)",
                   "(0 4)(1 3)(2 5)", "(0 5)(1 2)(3 4)"]
    elements = [tuple(range(6))] + [read_cycles(c, 6) for c in involutions]
    assert sorted(t[0] for t in elements) == list(range(6))
    image = list(prob.image)
    assert all(conjugate(g, t, inverse(g)) in elements for g in image for t in elements)
    with pytest.raises(ValueError):
        HGStructure(prob, elements)


def _bare_copies(problems) -> list[HGStructure]:
    """Bare copies `HGStructure(s.problem, s.key())` of the problems'
    searched structures, their lattices read."""
    bare = [HGStructure(s.problem, s.key())
            for prob in problems for s in classify(prob).structures]
    for s in bare:
        s.stable_subgroups
    return bare


def _recorded_translation_structures(m, module) -> list:
    """Wrap `module.translation_structure` on the monkeypatch context `m`
    so that it records every structure it builds; return the record."""
    make, built = module.translation_structure, []

    def recorded(action, members):
        built.append(make(action, members))
        return built[-1]

    m.setattr(module, "translation_structure", recorded)
    return built


def _digest_problem(label: str) -> ExtensionProblem:
    expr, flag, *rest = label.split(" ", 2)
    return _problem(build_text(expr), flag[2:].replace("-", "_"), *rest)


def _holomorph_certificates(m) -> list[HGStructure]:
    built = _recorded_translation_structures(m, hopfgalois.minimality)
    for n in (elementary_abelian(2, 2), elementary_abelian(3, 2),
              elementary_abelian(2, 3), cyclic(5)):
        assert holomorph_minimality_certificate(n)
    return built


def _catalog_example6(m) -> list[HGStructure]:
    built = _recorded_translation_structures(m, hopfgalois.cli)
    assert hopfgalois.cli.main(["catalog", "example6"]) == 0
    return built


DIGEST_ROW_COUNTS = [("A(4) --galois", 14), ("C(12) --galois", 6),
                     ("D(6) --galois", 40),
                     ("S(6) --subgroup gens[(0 1 2 3 4), (0 5)(1 4)]", 0)]


@pytest.mark.parametrize("build, count", [
    pytest.param(lambda m: _bare_copies(
        row.build(hopfgalois, hopfgalois.dsl) for _, row in CORPUS_ROWS),
        225, id="corpus"),
    *(pytest.param(lambda m, label=label: _bare_copies([_digest_problem(label)]),
                   count, id=label) for label, count in DIGEST_ROW_COUNTS),
    pytest.param(_holomorph_certificates, 4, id="holomorph certificates"),
    pytest.param(_catalog_example6, 3, id="catalog example6"),
])
def test_bare_lattices_match_the_oracle(monkeypatch, capsys, build, count):
    # a structure built outside the search reads its lattice through the
    # blocks, as a searched one does, and reads no table of N;
    # g_stable_subgroups, which reads N's table, is the oracle
    with monkeypatch.context() as m:
        shut_lattice_routes_through_n(m)
        structures = build(m)
    capsys.readouterr()
    for s in structures:
        assert tuple_sets(s.stable_subgroups) == tuple_sets(g_stable_subgroups(s))
    assert len(structures) == count


@pytest.mark.slow
def test_fiber_lattices_match_the_oracle_on_e_2_4():
    # every one of the 15,016 structures of E(2,4) --galois at degree 16
    rep = classify(ExtensionProblem.galois(elementary_abelian(2, 4)), degree_cap=16)
    assert rep.structure_count == 15_016
    for s in rep.structures:
        assert tuple_sets(s.stable_subgroups) == tuple_sets(g_stable_subgroups(s))


def test_bare_lattice_rows_are_the_digest_rows():
    assert [label for label, _ in DIGEST_ROW_COUNTS] == sorted(DEGREE_12_SHA256)


def test_is_minimal_examples(reports):
    s4 = reports["S4/S3"]
    assert s4.structure_count == 1 and is_minimal(s4.structures[0])
    assert not any(map(is_minimal, reports["galois C8"].structures))
    assert not any(map(is_minimal, reports["galois D3"].structures))


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
    prob = stabilizer_problem(symmetric(4))
    (klein,) = enumerate_regular_normalized(prob)
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
        # classify reads the bound off its structures; this is the oracle
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
        m = next(c for c in normal_complements(prob))
        s = translation_structure(prob, m.members)
        assert s.type_name == typ
        assert is_minimal(s)


def test_correspondence_stats(reports):
    s4 = reports["S4/S3"]
    assert correspondence_stats(s4.structures[0]) == (2, 2)

    prob, structures = galois_structures(cyclic(8))
    cyclic_type = next(s for s in structures if s.type_name == "C8")
    assert correspondence_stats(cyclic_type) == (4, 4)

    prob = ExtensionProblem.galois(symmetric(3))
    rho = [s for s in enumerate_regular_normalized(prob)
           if s.type_name == "S3" and len(g_stable_subgroups(s)) == 6]
    assert correspondence_stats(rho[0]) == (6, 6)


GALOIS_ANCHOR_ROWS = {
    **{row.label: (lambda row=row: row.build(hopfgalois, hopfgalois.dsl))
       for _, row in CORPUS_ROWS if row.flags == ("--galois",)},
    **{label: build for label, build in DEGREE_12_ROWS.items()
       if label.endswith("--galois")},
}


@pytest.mark.parametrize("label", sorted(GALOIS_ANCHOR_ROWS))
def test_galois_correspondence_anchors(label):
    # Greither-Pareigis 1987, Crespo-Rio-Vela 2016: on a Galois problem the
    # classical structure rho(G), the centralizer of lambda(G), maps onto
    # every intermediate group, and lambda(G) itself onto the normal ones
    prob = GALOIS_ANCHOR_ROWS[label]()
    rep = classify(prob)
    n = prob.degree
    assert all(s.problem is prob for s in rep.structures)
    # with n_i the element of lambda(G) sending 0 to i, r_x(i) = n_i(x)
    lam = {t[0]: t for t in prob.image}
    rho = tuple(sorted(tuple(lam[i][x] for i in range(n)) for x in range(n)))
    assert all(compose(g, r) == compose(r, g) for g, _ in prob.generator_pairs()
               for r in rho), label
    by_key = {s.key(): s for s in rep.structures}
    assert len(by_key[rho].stable_subgroups) == len(prob.blocks), label
    assert len(by_key[tuple(sorted(prob.image))].stable_subgroups) == \
        len(prob.group.normal_subgroups()), label


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


@pytest.mark.parametrize("name", sorted(_ORACLE_PROBLEMS) + sorted(DEGREE_12_ROWS))
def test_intermediate_subgroups_match_closure_walk(name):
    prob = _ORACLE_PROBLEMS.get(name) or DEGREE_12_ROWS[name]()
    assert intermediate_subgroups(prob) == closure_walk_intermediate(prob)


def test_blocks_are_walked_once_per_action(monkeypatch, capsys):
    # classify walks the blocks of its problem; correspondence_stats,
    # intermediate_subgroups and the command line read them from the same
    # problem
    walk, calls = ExtensionProblem._walk_blocks, []

    def counted(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(ExtensionProblem, "_walk_blocks", counted)
    prob = ExtensionProblem.galois(elementary_abelian(2, 3))
    rep = classify(prob)
    assert rep.structure_count == 106 and rep.intermediate_count == 16
    assert {correspondence_stats(s)[1] for s in rep.structures} == {16}
    assert len(intermediate_subgroups(prob)) == 16
    assert calls == [prob]
    calls.clear()
    assert hopfgalois.cli.main(["enumerate", "E(2,3)", "--galois"]) == 0
    assert "intermediate subgroups 16" in capsys.readouterr().out
    assert len(calls) == 1


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
    assert_blocks_are_the_walked_ones(prob)
    assert intermediate_subgroups(prob) == closure_walk_intermediate(prob)
    assert group.normal_subgroups() == [h for h in group.subgroups() if h.is_normal()]
    structures = enumerate_regular_normalized(prob)
    assert sorted(s.key() for s in structures) == enumerate_via_transversal(prob)
    for s in structures:
        maps = [s.conj_action(x) for x in prob.group.generators()]
        lattice = tuple_sets(g_stable_subgroups(s))
        assert lattice == tuple_sets(stable_subgroups_via_filter(s.group, maps))
        assert tuple_sets(s.stable_subgroups) == lattice  # as the search supplies it


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
                sorted(len(s.stable_subgroups) for s in rep.structures),
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
    assert is_minimal(rep.structures[0])
    assert rep.intermediate_count == 2


def test_classify_no_structures():
    rep = classify(stabilizer_problem(symmetric(5)))
    assert rep.structure_count == 0
    assert rep.minimal_count == 0


def test_classify_order_36_contains_minimal_elementary_type(reports):
    rep = reports["order 36"]
    assert any(is_minimal(s) and s.type_name == "E(3,2)" for s in rep.structures)


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
        for s in report.structures:
            minimal = is_minimal(s)
            assert 2 <= len(s.stable_subgroups) <= inter, name
            assert minimal == (len(g_stable_subgroups(s)) == 2), name
            if characteristic_obstruction(s) is not None:
                assert not minimal, name
            if len(s.group) in (2, 3, 5, 7, 11):
                assert minimal, name
        assert report.minimal_count >= report.normal_complement_bound, name
        # Galois problems over a simple group have exactly one minimal structure
        g = probs[name].group
        if probs[name].subgroup.order == 1 and len(g) in (2, 3, 5, 7):
            assert report.minimal_count == 1, name


def _point_problem(expr):
    return lambda: stabilizer_problem(build_text(expr).group)


# every catalog, corpus and degree-12 problem, built on call
PROBLEM_ROWS = {
    **{f"catalog {name}": lambda name=name: catalog_problems()[name]
       for name in catalog_problems()},
    **{f"corpus {row.label}": functools.partial(row.build, hopfgalois, hopfgalois.dsl)
       for _, row in CORPUS_ROWS},
    **{f"degree 12 {label}": build for label, build in DEGREE_12_ROWS.items()},
}

PRIME_DEGREE_ROWS = {
    **{name: build for name, build in PROBLEM_ROWS.items()
       if _is_prime(build().degree)},
    "S(7) --stabilizer-of-point": lambda: stabilizer_problem(symmetric(7)),
    "A(7) --stabilizer-of-point": lambda: stabilizer_problem(alternating(7)),
    # C7 : C3, AGL(1,7) = C7 : C6, and PSL(3,2) on the Fano plane
    "order 21 at degree 7": _point_problem("gens[(0 1 2 3 4 5 6), (1 2 4)(3 6 5)]"),
    "order 42 at degree 7": _point_problem("gens[(0 1 2 3 4 5 6), (1 3 2 6 4 5)]"),
    "order 168 at degree 7": _point_problem("gens[(0 1 2 3 4 5 6), (2 4)(5 6)]"),
    "AGL(1,11) at degree 11": _point_problem(
        "gens[(0 1 2 3 4 5 6 7 8 9 10), (1 2 4 8 5 10 9 7 3 6)]"),
}


@pytest.mark.parametrize("name", sorted(PRIME_DEGREE_ROWS))
def test_prime_degree_has_one_structure_iff_the_order_divides_p_times_p_minus_1(name):
    # Childs 1989: at prime degree p a transitive G has a structure iff it
    # is solvable, i.e. lies in AGL(1,p), i.e. |G| divides p(p - 1); the
    # structure, the translations of F_p, is then unique, and minimal
    prob = PRIME_DEGREE_ROWS[name]()
    p = prob.degree
    assert _is_prime(p)
    count = int(p * (p - 1) % len(prob.group) == 0)
    rep = classify(prob)
    assert (rep.structure_count, rep.minimal_count) == (count, count)
    assert rep.types() == [f"C{p}"] * count


@pytest.mark.parametrize("name", sorted(PRIME_DEGREE_ROWS))
def test_prime_degree_blocks_are_the_walked_ones(name):
    # at prime degree the blocks are read with no walk
    assert_blocks_are_the_walked_ones(PRIME_DEGREE_ROWS[name]())


@pytest.mark.parametrize("name", sorted(PROBLEM_ROWS.keys() - PRIME_DEGREE_ROWS.keys()))
def test_composite_degree_blocks_are_the_walked_ones(name):
    assert_blocks_are_the_walked_ones(PROBLEM_ROWS[name]())


def test_prime_degree_rows_hold_both_answers():
    # none for S(5) (a catalog and a corpus row), A(5), S(7), A(7) and the
    # order-168 group; one for the Galois C(p), orders 21 and 42, AGL(1,11)
    counts = Counter(classify(build()).structure_count
                     for build in PRIME_DEGREE_ROWS.values())
    assert counts == {0: 6, 1: 7}


@pytest.mark.parametrize("order,nodes", [(80, 74_943), (240, 29_387), (960, 21_277)])
def test_degree_16_affine_rows_take_the_primitive_route(order, nodes):
    # E(2,4) under an irreducible H is primitive: its one structure, the
    # translations, is minimal and found from stage 1 at cycle length 2
    # alone, where both stages took 23,935,589 nodes on the C5 row.  The
    # budget keeps a row that fell back to the full search to a fraction
    # of a second.
    rep = classify(complement_problem(E24_EXPRS[order]), degree_cap=16,
                   budget=NodeBudget(100_000))
    assert (rep.structure_count, rep.minimal_count) == (1, 1)
    assert rep.normal_complement_bound == 1 and rep.intermediate_count == 2
    assert rep.types() == ["E(2,4)"]
    assert rep.nodes_used == nodes
