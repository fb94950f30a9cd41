import functools
import itertools
from collections import Counter

import pytest

from hopfgalois import (BudgetExceeded, CapExceeded, ExtensionProblem,
                        HGStructure, NodeBudget, NotNormalClosure,
                        alternating, classify, coset_action, cyclic, dihedral,
                        direct_product, enumerate_regular_normalized,
                        enumerate_via_transversal, symmetric,
                        translation_structure)
from hopfgalois.dsl import build_text
from hopfgalois.engine import (DEGREE_CAP, _closure, _conj_orbit, _divisors,
                               _prime_order_translations, _regular_normalized,
                               _semiregular_centralizer, _semiregular_tuples,
                               _viable_atoms)
from hopfgalois.perms import uniform_cycle_length

from conftest import (catalog_problems, complement_problem, read_cycles,
                      stabilizer_problem)


def test_extension_problem_validation():
    with pytest.raises(ValueError):
        ExtensionProblem(cyclic(4), cyclic(4).full_subgroup())  # degree 1
    # G' containing the center of a dihedral group is not core-free
    d4 = dihedral(4)
    center = [i for i in range(8) if all(d4.mul(i, j) == d4.mul(j, i) for j in range(8))]
    with pytest.raises(NotNormalClosure):
        ExtensionProblem(d4, d4.subgroup(center))


def test_coset_action_s4_natural():
    prob = stabilizer_problem(symmetric(4))
    act = coset_action(prob)
    assert act.degree == 4
    image = {act.translation(x) for x in range(24)}
    assert len(image) == 24  # faithful: the whole of Sym(4)


def test_coset_action_regular_representation():
    g = dihedral(3)
    act = coset_action(ExtensionProblem.galois(g))
    assert act.degree == 6
    image = {act.translation(x) for x in range(6)}
    assert len(image) == 6
    assert all(uniform_cycle_length(p) is not None for p in image)


def test_point_zero_is_the_subgroup_coset():
    prob = stabilizer_problem(symmetric(4))
    act = coset_action(prob)
    for s in prob.subgroup.members:
        assert act.translation(s)[0] == 0


def test_enumerate_s4_s3():
    act = coset_action(stabilizer_problem(symmetric(4)))
    structures = enumerate_regular_normalized(act)
    assert len(structures) == 1
    assert structures[0].type_name == "E(2,2)"
    klein = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    assert set(structures[0].key()) == klein


def test_enumerate_s5_s4_empty():
    act = coset_action(stabilizer_problem(symmetric(5)))
    assert enumerate_regular_normalized(act) == []


def test_enumerate_galois_c8():
    act = coset_action(ExtensionProblem.galois(cyclic(8)))
    structures = enumerate_regular_normalized(act)
    assert len(structures) == 6
    assert sorted(s.type_name for s in structures) == \
        ["C8", "C8", "D4", "D4", "Q8", "Q8"]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_enumerate_galois_prime(p):
    act = coset_action(ExtensionProblem.galois(cyclic(p)))
    structures = enumerate_regular_normalized(act)
    assert len(structures) == 1
    assert structures[0].type_name == f"C{p}"


def test_results_verified_post_hoc():
    for name, prob in catalog_problems().items():
        act = coset_action(prob)
        n = act.degree
        rng = range(n)
        gen_pairs = act.generator_pairs()
        for s in enumerate_regular_normalized(act, budget=NodeBudget(50_000_000)):
            members = set(s.key())
            assert _regular_normalized(members, n, gen_pairs), name
            # a group: the identity, and closed under products
            assert tuple(rng) in members, name
            assert all(tuple(a[b[i]] for i in rng) in members
                       for a in members for b in members), name
            for p in members:
                d = uniform_cycle_length(p)
                assert d is not None and n % d == 0, name
            # each N is a union of translation-conjugation orbits
            for p in members:
                for x in act.generators:
                    g = act.translation(x)
                    gi = act.translation(prob.group.inv(x))
                    assert tuple(g[p[gi[i]]] for i in rng) in members, name


def test_enumerated_subgroups_of_translation_image_are_normal_complements():
    # if N lies inside the translation image, its preimage is a normal
    # complement of G' in G
    for name, prob in catalog_problems().items():
        act = coset_action(prob)
        g = prob.group
        lam = {act.translation(x): x for x in range(len(g))}
        for s in enumerate_regular_normalized(act, budget=NodeBudget(50_000_000)):
            if not all(p in lam for p in s.key()):
                continue
            members = sorted(lam[p] for p in s.key())
            pre = g.subgroup(members)
            assert pre.is_normal(), name
            assert set(pre.members) & set(prob.subgroup.members) == {0}, name
            assert pre.order * prob.subgroup.order == len(g), name


def test_induced_action_galois_translation_copy():
    # N = the translation image itself: the action is conjugation in G
    g = symmetric(3)
    act = coset_action(ExtensionProblem.galois(g))
    n = [act.translation(x) for x in range(6)]
    hom = HGStructure(act, n).action_hom()
    assert hom.images[0] == 0
    assert len(set(hom.images)) == 6  # S3 has trivial center: image is Inn(S3)


def test_induced_action_abelian_galois_trivial():
    g = cyclic(6)
    act = coset_action(ExtensionProblem.galois(g))
    n = [act.translation(x) for x in range(6)]
    hom = HGStructure(act, n).action_hom()
    assert set(hom.images) == {0}


def test_induced_action_klein_image_order_6():
    act = coset_action(stabilizer_problem(symmetric(4)))
    s = enumerate_regular_normalized(act)[0]
    hom = s.action_hom()
    g, aut = hom.source, hom.target
    assert all(hom(g.mul(a, b)) == aut.mul(hom(a), hom(b))
               for a in range(24) for b in range(24))
    assert len(set(hom.images)) == 6
    # the three involutions are permuted in every way possible
    involutions = [i for i in range(4) if s.group.element_order(i) == 2]
    patterns = {tuple(s.conj_action(x)[i] for i in involutions) for x in range(24)}
    assert len(patterns) == 6


def test_induced_action_requires_normalized():
    act = coset_action(ExtensionProblem.galois(symmetric(3)))
    not_normalized = build_text("gens[(0 1)(5)]").group.raw_elements()
    with pytest.raises(ValueError):
        HGStructure(act, not_normalized).action_hom()


def test_translation_structure():
    g = alternating(4)
    c3 = next(s for s in g.subgroups() if s.order == 3)
    act = coset_action(ExtensionProblem(g, c3))
    v = next(s for s in g.normal_subgroups() if s.order == 4)
    structure = translation_structure(act, v.members)
    assert structure.type_name == "E(2,2)"
    with pytest.raises(ValueError):
        translation_structure(act, c3.members)  # not regular


def test_cross_engine_equality_up_to_degree_8():
    budget = NodeBudget(200_000_000)
    for name, prob in catalog_problems().items():
        if prob.degree > 8:
            continue
        act = coset_action(prob)
        primary = enumerate_regular_normalized(act, budget=budget)
        reference = enumerate_via_transversal(act, budget=budget)
        assert sorted(s.key() for s in primary) == reference, name


def test_transversal_cap():
    act = coset_action(ExtensionProblem.galois(dihedral(5)))
    with pytest.raises(CapExceeded):
        enumerate_via_transversal(act)


def test_degree_cap():
    act = coset_action(ExtensionProblem.galois(cyclic(8)))
    with pytest.raises(CapExceeded):
        enumerate_regular_normalized(act, degree_cap=6)


def test_budget_exhaustion_is_loud():
    act = coset_action(ExtensionProblem.galois(cyclic(8)))
    with pytest.raises(BudgetExceeded):
        enumerate_regular_normalized(act, budget=NodeBudget(50))


def test_generator_presentation_does_not_change_output():
    g = cyclic(8)
    prob = ExtensionProblem.galois(g)
    keys = None
    # several generating sets for C8, including redundant ones
    for gens in [(1,), (3,), (5,), (1, 2), (7, 4)]:
        act = coset_action(prob, generators=gens)
        got = [s.key() for s in enumerate_regular_normalized(act)]
        if keys is None:
            keys = got
        assert got == keys
    with pytest.raises(ValueError):
        coset_action(prob, generators=(2,))  # does not generate


def test_order_56_and_36_cases():
    b = build_text("SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))")
    act = coset_action(ExtensionProblem(b.group, b.complement))
    structures = enumerate_regular_normalized(act)
    assert [s.type_name for s in structures] == ["E(2,3)"]

    b = build_text("SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))")
    act = coset_action(ExtensionProblem(b.group, b.complement))
    structures = enumerate_regular_normalized(act)
    assert [s.type_name for s in structures] == ["E(3,2)"]


# -- stage 1 against the walk over every semiregular permutation -----------


def full_orbit(t0, gen_pairs, n):
    """The whole translation-conjugation orbit of t0, with no early stop."""
    rng = range(n)
    orbit = {t0}
    stack = [t0]
    while stack:
        a = stack.pop()
        for g, gi in gen_pairs:
            c = tuple(g[a[gi[i]]] for i in rng)
            if c not in orbit:
                orbit.add(c)
                stack.append(c)
    return orbit


def plain_closure(elements, n):
    """The group generated by `elements` under products, or None once it
    has more than n elements or holds a nonidentity element with a fixed
    point (it is then not semiregular, so in no regular N)."""
    els = set(elements)
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for b in list(els):
                for c in (tuple(a[i] for i in b), tuple(b[i] for i in a)):
                    if c not in els:
                        els.add(c)
                        new.append(c)
                        if len(els) > n:
                            return None
        frontier = new
    identity = tuple(range(n))
    if any(t[i] == i for t in els if t != identity for i in range(n)):
        return None
    return frozenset(els)


def brute_force_orbits(n, gen_pairs):
    """(t, orbit of t) for the first element t met of each orbit, walking
    every semiregular permutation of degree n."""
    visited = set()
    for d in _divisors(n):
        for t in _semiregular_tuples(n, d):
            if t not in visited:
                orbit = full_orbit(t, gen_pairs, n)
                visited |= orbit
                yield t, orbit


def brute_force_atoms(n, gen_pairs):
    """Reference stage 1: keep the orbits of at most n - 1 elements and
    close each with the identity; the atoms are the semiregular closures."""
    id_t = tuple(range(n))
    atoms = {plain_closure(orbit | {id_t}, n)
             for _, orbit in brute_force_orbits(n, gen_pairs)
             if len(orbit) + 1 <= n}
    return sorted(atoms - {None}, key=sorted)


DEGREE_9_AND_10 = {
    "C9 galois": lambda: ExtensionProblem.galois(cyclic(9)),
    "C3xC3 galois": lambda: ExtensionProblem.galois(
        direct_product(cyclic(3), cyclic(3))),
    "Hol(C9) complement": lambda: complement_problem("Hol(C(9))"),
    "C10 galois": lambda: ExtensionProblem.galois(cyclic(10)),
}


@functools.cache
def oracle_search(name):
    """(n, gen_pairs, seeded atoms, brute-force atoms) for a catalog or a
    degree-9/10 problem."""
    prob = DEGREE_9_AND_10[name]() if name in DEGREE_9_AND_10 \
        else catalog_problems()[name]
    act = coset_action(prob)
    n = act.degree
    gen_pairs = act.generator_pairs()
    seeded = _viable_atoms(n, gen_pairs, _prime_order_translations(act),
                           NodeBudget(200_000_000))
    return n, gen_pairs, seeded, brute_force_atoms(n, gen_pairs)


@pytest.mark.parametrize("name", sorted(catalog_problems()))
def test_centralizer_seed_matches_brute_force_catalog(name):
    _, _, seeded, reference = oracle_search(name)
    assert seeded == reference


@pytest.mark.parametrize("name", sorted(DEGREE_9_AND_10))
def test_centralizer_seed_matches_brute_force_degree_9_and_10(name):
    n, _, seeded, reference = oracle_search(name)
    assert n in (9, 10)
    assert seeded == reference
    assert seeded


@pytest.mark.parametrize("name", sorted(catalog_problems()) + sorted(DEGREE_9_AND_10))
def test_point_0_rule_matches_unpruned_oracle(name):
    # the search drops a set at its first two elements that agree on point
    # 0; the oracle walks whole orbits and closes without that early stop
    n, gen_pairs, _, atoms = oracle_search(name)
    budget = NodeBudget(10**9)
    trivial = (tuple(range(n)),)
    for t, orbit in brute_force_orbits(n, gen_pairs):
        got = _conj_orbit(t, gen_pairs, budget)
        if len({o[0] for o in orbit}) < len(orbit):
            assert got is None
        else:
            assert len(got) == len(orbit) and set(got) == orbit
        assert _closure(trivial, orbit, n, budget) == \
            plain_closure(orbit | set(trivial), n)
    for a, b in itertools.product(atoms, repeat=2):
        assert _closure(a, b, n, budget) == plain_closure(a | b, n)


@pytest.mark.parametrize("cycles,n", [
    ("()", 6),
    ("(0 1)", 6),
    ("(0 1)(2 3)(4 5)", 6),
    ("(0 1 2 3 4 5)", 6),
    ("(0 1 2)(3 4)", 7),
    ("(0 1 2)(3 4 5)", 8),
    ("(0 1)(2 3)(4 5 6 7)", 8),
    ("(0 1 2 3)(4 5 6 7)", 8),
])
def test_semiregular_centralizer(cycles, n):
    sigma = read_cycles(cycles, n)
    rng = range(n)

    def commutes(t):
        return all(t[sigma[i]] == sigma[t[i]] for i in rng)

    for d in _divisors(n):
        got = list(_semiregular_centralizer(sigma, d))
        assert len(got) == len(set(got)), (cycles, d)  # each exactly once
        if n <= 7:
            universe = (t for t in itertools.permutations(rng)
                        if uniform_cycle_length(t) == d)
        else:
            universe = _semiregular_tuples(n, d)
        assert set(got) == {t for t in universe if commutes(t)}, (cycles, d)


# -- degree 12 under the default budget and cap ----------------------------


@pytest.mark.parametrize("group,count", [
    # both counts are frozen from this engine
    pytest.param(lambda: cyclic(12), 6, id="C12"),
    pytest.param(lambda: alternating(4), 14, id="A4"),
])
def test_degree_12_galois_within_default_budget(group, count):
    prob = ExtensionProblem.galois(group())
    assert prob.degree == DEGREE_CAP
    assert classify(prob).structure_count == count


def test_degree_12_transposition_within_default_budget():
    # the translation image holds a transposition, so the centralizer of
    # a seed in Sym(12) has 2 * 10! elements; only its semiregular part is
    # ever built
    g = build_text("gens[(0 1), (0 2 4 6 8 10)(1 3 5 7 9 11)]").group
    act = coset_action(stabilizer_problem(g))
    assert act.degree == DEGREE_CAP
    assert enumerate_regular_normalized(act) == []


def test_degree_12_presentation_invariance():
    # D6 and D3 x C2 are one group in two presentations
    counts = []
    for g in (dihedral(6), direct_product(dihedral(3), cyclic(2))):
        act = coset_action(ExtensionProblem.galois(g))
        counts.append(Counter(s.type_name for s in enumerate_regular_normalized(act)))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) == 40
