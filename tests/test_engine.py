import functools
import itertools
import json
import math
import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfgalois
import hopfgalois.cli
from hopfgalois import (BudgetExceeded, CapExceeded, ExtensionProblem,
                        FiniteGroup, HGStructure, NodeBudget, NotNormalClosure,
                        alternating, classify, coset_action, cyclic, dihedral,
                        direct_product, dsl, elementary_abelian,
                        enumerate_regular_normalized,
                        enumerate_via_transversal, g_stable_subgroups,
                        quaternion, symmetric, translation_structure)
from hopfgalois.dsl import build_text
from hopfgalois.catalog import _nonabelian_candidates, iso_type
from hopfgalois.cli import _problem
from hopfgalois.engine import (DEGREE_CAP, CosetAction, _closure, _combine_atoms,
                               _conj_orbit, _core, _cosets,
                               _divisors, _orbit_bound, _prime_factors,
                               _prime_order, _prime_order_translations,
                               _regular_normalized, _semiregular_centralizer,
                               _semiregular_tuples, _tuple_type,
                               _viable_atoms, _walked_lengths)
from hopfgalois.groups import (_is_automorphism_map, _is_prime, are_isomorphic,
                               generated)
from hopfgalois.perms import (compose, conjugate, cycle_string, inverse,
                              uniform_cycle_length)

from conftest import (DEGREE_12_ROWS, ORDER_56_EXPR, catalog_problems,
                      complement_problem, read_cycles, stabilizer_problem,
                      tuple_sets)
from test_canonical_digest import DEGREE_12_SHA256
from test_corpus import ROWS
from test_groups import greedy_generators


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


def induced_action(s: HGStructure) -> list[tuple[int, ...]]:
    # the action G -> Aut(N) by translation conjugation: one table on N's
    # indices per element of G, checked multiplicative against G.mul
    g = s.action.problem.group
    tables = [s.conj_action(x) for x in range(len(g))]
    assert all(tables[g.mul(a, b)] == compose(tables[a], tables[b])
               for a in range(len(g)) for b in range(len(g)))
    return tables


def test_induced_action_galois_translation_copy():
    # N = the translation image itself: the action is conjugation in G
    g = symmetric(3)
    act = coset_action(ExtensionProblem.galois(g))
    n = [act.translation(x) for x in range(6)]
    tables = induced_action(HGStructure(act, n))
    assert tables[0] == tuple(range(6))
    assert len(set(tables)) == 6  # S3 has trivial center: image is Inn(S3)


def test_induced_action_abelian_galois_trivial():
    g = cyclic(6)
    act = coset_action(ExtensionProblem.galois(g))
    n = [act.translation(x) for x in range(6)]
    assert set(induced_action(HGStructure(act, n))) == {tuple(range(6))}


def test_induced_action_klein_image_order_6():
    act = coset_action(stabilizer_problem(symmetric(4)))
    s = enumerate_regular_normalized(act)[0]
    assert len(set(induced_action(s))) == 6
    # the three involutions are permuted in every way possible
    involutions = [i for i in range(4) if s.group.element_order(i) == 2]
    patterns = {tuple(s.conj_action(x)[i] for i in involutions) for x in range(24)}
    assert len(patterns) == 6


def test_induced_action_requires_normalized():
    # refused when the structure is built, before any action is read
    act = coset_action(ExtensionProblem.galois(symmetric(3)))
    not_normalized = build_text("gens[(0 1)(5)]").group.raw_elements()
    with pytest.raises(ValueError):
        HGStructure(act, not_normalized)


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


def test_oracles_keep_their_own_products(monkeypatch):
    # the post-hoc check and the transversal engine's `close` write their
    # products out, so a fault in the kernels of `perms` cannot hide from
    # them; here every kernel raises
    act = coset_action(ExtensionProblem.galois(dihedral(3)))
    expected = sorted(s.key() for s in enumerate_regular_normalized(act))
    gen_pairs = act.generator_pairs()

    def kernel(*args):
        raise AssertionError("an oracle called a permutation kernel")

    for module in (hopfgalois.perms, hopfgalois.engine):
        monkeypatch.setattr(module, "compose", kernel)
        monkeypatch.setattr(module, "conjugate", kernel)
    monkeypatch.setattr(hopfgalois.engine, "itemgetter", kernel)
    assert all(_regular_normalized(frozenset(key), 6, gen_pairs) for key in expected)
    assert enumerate_via_transversal(act) == expected


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


# -- G's side read from the degree-n action, against the routes on G ------


def naive_core(group, members):
    """The core of G' as the intersection of its conjugates over all of G."""
    core = set(members)
    for x in range(len(group)):
        xi = group.inv(x)
        core &= {group.mul(group.mul(x, m), xi) for m in core}
    return core


@pytest.mark.parametrize("group", [
    pytest.param(symmetric(4), id="S4"),
    pytest.param(dihedral(4), id="D4"),
    pytest.param(alternating(4), id="A4"),
    pytest.param(quaternion(8), id="Q8"),
    pytest.param(dihedral(6), id="D6"),
])
def test_core_is_the_kernel_of_the_coset_action(group):
    # every subgroup, core-free or not: S4 over a subgroup holding V4 has
    # core V4 (order 4), D4 over its center has core C2
    orders = set()
    for sub in group.subgroups():
        reps, coset_of = _cosets(group, sub.members)
        core = naive_core(group, sub.members)
        assert set(_core(group, sub.members, reps, coset_of)) == core
        if sub.is_full():
            continue
        if len(core) > 1:
            orders.add(len(core))
            with pytest.raises(NotNormalClosure, match=f"of order {len(core)};"):
                ExtensionProblem(group, sub)
        else:
            assert ExtensionProblem(group, sub).coset_of == coset_of
    assert orders


@functools.cache
def oracle_problem(name):
    if name.startswith("corpus: "):
        row = next(r for _, r in ROWS if r.label == name[len("corpus: "):])
        return row.build(hopfgalois, dsl)
    return catalog_problems()[name]


ORACLE_NAMES = sorted(catalog_problems()) + sorted(
    {"corpus: " + row.label for _, row in ROWS})


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_action_read_from_the_image_matches_the_routes_on_g(name):
    prob = oracle_problem(name)
    g = prob.group
    assert naive_core(g, prob.subgroup.members) == {0}
    act = coset_action(prob)
    lam = {act.translation(x): x for x in range(len(g))}
    assert act.image == {act.translation(x) for x in range(len(g))}
    assert list(act.image)[0] == tuple(range(act.degree))
    # the seeds meet each class of cyclic subgroups of prime order p of G
    # once; its generators are the classes of x^k for k prime to p
    classes = g.conjugacy_classes()
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    generators = {}
    for cls in classes:
        p = g.element_order(cls[0])
        if not _is_prime(p):
            continue
        power, union = cls[0], set()
        for _ in range(p - 1):
            union.update(classes[class_of[power]])
            power = g.mul(cls[0], power)
        generators[frozenset(union)] = p
    seeds, seed_of, kinds = _prime_order_translations(act)
    met = [next(u for u in generators if lam[t] in u) for t in seeds]
    assert sorted(met, key=sorted) == sorted(generators, key=sorted)
    # each seed comes first in the image among its class's generators;
    # every generator is reported with its seed, and each class with its
    # prime and its number of generators
    for t, u in zip(seeds, met):
        assert t == next(s for s in act.image if lam[s] in u)
    assert len(seed_of) == sum(map(len, generators))
    for t, i in seed_of.items():
        assert lam[t] in met[i]
    assert kinds == [(generators[u], len(u)) for u in met]


@pytest.mark.parametrize("degree", [5, 6])
def test_prime_order_reads_the_cycles(degree):
    # against the order found by composing powers, on every t != 1 of S(n)
    identity = tuple(range(degree))
    for t in symmetric(degree).raw_elements():
        if t == identity:
            continue
        order, u = 1, t
        while u != identity:
            order, u = order + 1, compose(t, u)
        assert _prime_order(t) == (order if _is_prime(order) else 0), t


@pytest.mark.parametrize("expr,mode", [("A(6)", "point"),
                                       ("Hol(E(3,2))", "complement")])
def test_group_side_takes_few_raw_products(expr, mode, monkeypatch):
    # both groups are above TABLE_MAX, where no product is kept, so every
    # product counted is one computed: 491 and 536 to build the problem,
    # 802 and 1,158 for classify.  Read on G, the same answers take 3,947
    # and 2,478 raw products for the core (conjugates of G' over all of G),
    # and 3,336 and 8,476 for classify (G's conjugacy classes, one
    # translation per element of G).
    built = build_text(expr)
    g = built.group
    calls = 0
    raw_mul = g._mul_raw

    def counted(a, b):
        nonlocal calls
        calls += 1
        return raw_mul(a, b)

    monkeypatch.setattr(g, "_mul_raw", counted)
    if mode == "point":
        sub = g.subgroup(i for i in range(len(g)) if g.raw(i)[0] == 0)
    else:
        sub = built.complement
    calls = 0
    prob = ExtensionProblem(g, sub)
    assert calls <= 2 * len(g)  # the coset scan is |G|

    classes_of_g = 0
    translated = set()
    conjugacy_classes = FiniteGroup.conjugacy_classes
    translation = CosetAction.translation

    def counted_classes(self):
        nonlocal classes_of_g
        classes_of_g += self is g
        return conjugacy_classes(self)

    def counted_translation(self, x):
        translated.add(x)
        return translation(self, x)

    monkeypatch.setattr(FiniteGroup, "conjugacy_classes", counted_classes)
    monkeypatch.setattr(CosetAction, "translation", counted_translation)
    calls = 0
    report = classify(prob)
    # most of it is G.generators(): the order of every element
    assert calls <= 6 * len(g)
    assert classes_of_g == 0
    gens = g.generators()
    assert translated <= set(gens) | {g.inv(x) for x in gens}
    assert report.normal_complement_bound == report.minimal_count


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


def all_pairs_closure(elements, n):
    """The set `elements` closed under all products, or None once it has
    more than n elements."""
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
    return frozenset(els)


def plain_closure(elements, n):
    """The group generated by `elements`, or None once it has more than n
    elements or holds a nonidentity element with a fixed point (it is then
    not semiregular, so in no regular N)."""
    els = all_pairs_closure(elements, n)
    identity = tuple(range(n))
    if els is None or any(t[i] == i for t in els if t != identity
                          for i in range(n)):
        return None
    return els


def closed_group(closed):
    """The group of a `_closure` result, or None."""
    return None if closed is None else closed[0]


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


def brute_force_atoms(n, orbits):
    """Reference stage 1: keep the orbits of at most n - 1 elements and
    close each with the identity; the atoms are the semiregular closures.
    `orbits` is the list `brute_force_orbits` yields."""
    id_t = tuple(range(n))
    atoms = {plain_closure(orbit | {id_t}, n)
             for _, orbit in orbits if len(orbit) + 1 <= n}
    return sorted(atoms - {None}, key=sorted)


DEGREE_9_AND_10 = {
    "C9 galois": lambda: ExtensionProblem.galois(cyclic(9)),
    "C3xC3 galois": lambda: ExtensionProblem.galois(
        direct_product(cyclic(3), cyclic(3))),
    "Hol(C9) complement": lambda: complement_problem("Hol(C(9))"),
    "C10 galois": lambda: ExtensionProblem.galois(cyclic(10)),
}


def every_walk_atoms(act, budget):
    """Stage 1 with nothing cut: the atoms met walking, over every cycle
    length and with no map, the translation of one element of each class
    of prime-order elements of G, read from `G.conjugacy_classes()`."""
    n = act.degree
    g = act.problem.group
    gen_pairs = act.generator_pairs()
    trivial = (tuple(range(n)),)
    atoms, visited = set(), set()
    for cls in g.conjugacy_classes():
        if not _is_prime(g.element_order(cls[0])):
            continue
        sigma = act.translation(cls[0])
        for d in _divisors(n):
            for t in _semiregular_centralizer(sigma, d):
                if t in visited:
                    continue
                orbit = _conj_orbit(t, gen_pairs, visited, budget)
                if orbit is None:
                    continue
                grown = _closure(trivial, (), orbit, n, budget)
                if grown is not None:
                    atoms.add(grown[0])
    return sorted(atoms, key=sorted)


def oracle_search_problem(name):
    return DEGREE_9_AND_10[name]() if name in DEGREE_9_AND_10 \
        else catalog_problems()[name]


@functools.cache
def oracle_search(name):
    """(n, gen_pairs, seeded (atom, generators) pairs, brute-force orbits,
    brute-force atoms) for a catalog or a degree-9/10 problem; the orbit
    walk runs once per problem."""
    act = coset_action(oracle_search_problem(name))
    n = act.degree
    gen_pairs = act.generator_pairs()
    seeded, _ = _viable_atoms(act, NodeBudget(200_000_000))
    orbits = list(brute_force_orbits(n, gen_pairs))
    return n, gen_pairs, seeded, orbits, brute_force_atoms(n, orbits)


@pytest.mark.parametrize("name", sorted(catalog_problems()))
def test_centralizer_seed_matches_brute_force_catalog(name):
    n, _, seeded, _, reference = oracle_search(name)
    assert [a for a, _ in seeded] == reference
    assert_carried_generators(seeded, n)


@pytest.mark.parametrize("name", sorted(DEGREE_9_AND_10))
def test_centralizer_seed_matches_brute_force_degree_9_and_10(name):
    n, _, seeded, _, reference = oracle_search(name)
    assert n in (9, 10)
    assert [a for a, _ in seeded] == reference
    assert seeded
    assert_carried_generators(seeded, n)


def assert_carried_generators(pairs, n):
    """Each group is generated by its carried generators, at most log2 of
    its order of them."""
    identity = tuple(range(n))
    for group, gens in pairs:
        assert all_pairs_closure({identity, *gens}, n) == group
        assert 2 ** len(gens) <= len(group)


@pytest.mark.parametrize("name", sorted(catalog_problems()) + sorted(DEGREE_9_AND_10))
def test_point_0_rule_matches_unpruned_oracle(name):
    # the search drops a set at its first two elements that agree on point
    # 0; the oracle walks whole orbits and closes without that early stop
    n, gen_pairs, seeded, orbits, _ = oracle_search(name)
    budget = NodeBudget(10**9)
    trivial = (tuple(range(n)),)
    for t, orbit in orbits:
        met = set()
        got = _conj_orbit(t, gen_pairs, met, budget)
        # a dropped walk records what it met, all of it in the orbit
        assert t in met and met <= orbit
        if len({o[0] for o in orbit}) < len(orbit):
            assert got is None
        else:
            assert len(got) == len(orbit) and set(got) == orbit == met
        closed = _closure(trivial, (), orbit, n, budget)
        assert closed_group(closed) == plain_closure(orbit | set(trivial), n)
        if closed is not None:
            assert_carried_generators([closed], n)
    # stage 2 passes an atom's generators; the whole atom gives the same
    for (a, a_gens), (b, b_gens) in itertools.product(seeded, repeat=2):
        expected = plain_closure(a | b, n)
        for extra in (b_gens, b):
            closed = _closure(a, a_gens, extra, n, budget)
            assert closed_group(closed) == expected
            if closed is not None:
                assert_carried_generators([closed], n)


@pytest.mark.parametrize("name", sorted(catalog_problems()) + sorted(DEGREE_9_AND_10))
def test_kept_orbits_are_walked_from_their_largest_prime(name):
    # a kept orbit O of cycle length d has at most U(d) elements, and the
    # largest prime of |G|/|O| walks d (see `_walked_lengths`)
    n, _, _, orbits, reference = oracle_search(name)
    order = len(oracle_search_problem(name).group)
    identity = tuple(range(n))
    kept = 0
    for t, orbit in orbits:
        if len({o[0] for o in orbit}) < len(orbit) or \
                plain_closure(orbit | {identity}, n) is None:
            continue
        kept += 1
        d = uniform_cycle_length(t)
        assert len(orbit) <= _orbit_bound(n, d)
        assert order % len(orbit) == 0
        q = max(_prime_factors(order // len(orbit)))
        assert d in _walked_lengths(q, n, order)
    assert bool(kept) == bool(reference)


@st.composite
def transitive_groups(draw):
    """A transitive permutation group of degree n <= 10 inside
    AGL(1, a) wr AGL(1, b), n = a b, where point j a + i is i in block j.
    It holds an a-cycle on block 0 and a b-cycle on the blocks, so it is
    transitive; up to two more generators are affine maps of one block or
    of the blocks.  The points are then relabelled at random."""
    n = draw(st.integers(min_value=2, max_value=10))
    a = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    b = n // a

    def affine(m):
        u = draw(st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1] or [1]))
        return u, draw(st.integers(min_value=0, max_value=m - 1))

    def base(u, v, block):
        return tuple(j * a + ((u * i + v) % a if j == block else i)
                     for j in range(b) for i in range(a))

    def top(u, v):
        return tuple((u * j + v) % b * a + i for j in range(b) for i in range(a))

    gens = [base(1, 1, 0), top(1, 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if draw(st.booleans()):
            gens.append(base(*affine(a), draw(st.integers(min_value=0, max_value=b - 1))))
        else:
            gens.append(top(*affine(b)))
    relabel = tuple(draw(st.permutations(range(n))))
    relabel_inv = inverse(relabel)
    gens = [conjugate(relabel, g, relabel_inv) for g in gens]
    return FiniteGroup.from_permutations(generated(gens, tuple(range(n)), compose))


@settings(max_examples=100, deadline=None)
@given(transitive_groups())
def test_atoms_match_the_every_walk_on_random_transitive_groups(group):
    act = coset_action(stabilizer_problem(group))
    budget = NodeBudget(10**9)
    atoms, _ = _viable_atoms(act, budget)
    assert [a for a, _ in atoms] == every_walk_atoms(act, budget)


@pytest.mark.parametrize("p,n,order,lengths", [
    (2, 10, 10, [2]),
    (5, 10, 10, [2, 5, 10]),
    (2, 12, 12, [2, 3, 4, 6, 12]),
    (3, 12, 12, [2, 3, 4, 6, 12]),
    (2, 16, 16, [2, 4, 8, 16]),
    # A(5) on the 12 cosets of a C(5): |G|/s is a power of 2 only for s
    # >= 15 > n - 1, and it has the prime 5 for every s <= phi(12) = 4
    (2, 12, 60, []),
    (3, 12, 60, [2, 3, 4, 6]),
])
def test_walked_lengths(p, n, order, lengths):
    assert _walked_lengths(p, n, order) == lengths


@pytest.mark.parametrize("n,d,bound", [
    (10, 10, 4), (10, 5, 4), (10, 2, 9), (9, 3, 8), (12, 3, 11), (12, 4, 11),
    (15, 3, 2), (15, 5, 4), (16, 8, 15),
])
def test_orbit_bound(n, d, bound):
    assert _orbit_bound(n, d) == bound


@st.composite
def semiregular_elements(draw, n):
    """A permutation of degree n whose cycles, all of one length k > 1, are
    consecutive blocks of a drawn arrangement of the points."""
    order = draw(st.permutations(range(n)))
    k = draw(st.sampled_from(_divisors(n)))
    images = [0] * n
    for i in range(0, n, k):
        block = order[i:i + k]
        for j, x in enumerate(block):
            images[x] = block[(j + 1) % k]
    return tuple(images)


@st.composite
def closure_inputs(draw):
    """(n, start group, its generators, extra): the start group is trivial
    or cyclic on a semiregular element; extra mixes arbitrary permutations,
    semiregular ones and members of the start group."""
    n = draw(st.integers(min_value=2, max_value=8))
    identity = tuple(range(n))
    if draw(st.booleans()):
        s = draw(semiregular_elements(n))
        start, start_gens = all_pairs_closure({identity, s}, n), (s,)
    else:
        start, start_gens = frozenset({identity}), ()
    element = st.one_of(st.permutations(range(n)).map(tuple),
                        semiregular_elements(n), st.sampled_from(sorted(start)))
    return n, start, start_gens, draw(st.lists(element, max_size=4))


@settings(max_examples=300, deadline=None)
@given(closure_inputs())
def test_closure_matches_all_pairs_oracle(inputs):
    n, start, start_gens, extra = inputs
    closed = _closure(start, start_gens, extra, n, NodeBudget(10**6))
    # more than n elements means two of them agree on point 0
    reference = all_pairs_closure(start | set(extra), n)
    if reference is None or len({t[0] for t in reference}) < len(reference):
        assert closed is None
    else:
        assert closed is not None and closed[0] == reference
        assert_carried_generators([closed], n)


def test_search_closes_groups_by_cosets():
    # 12,316 nodes; closing by all-pairs products takes 35,517, so a
    # return to it fails here
    report = classify(ExtensionProblem.galois(elementary_abelian(2, 3)))
    assert report.structure_count == 106
    assert report.nodes_used <= 15_000


# -- the automorphisms of G as a symmetry of Galois problems --------------


SYMMETRY_NAMES = ORACLE_NAMES + sorted(DEGREE_9_AND_10) + sorted(DEGREE_12_ROWS)

# rows where the 2-seeds skip cycle lengths p and 2p (p = 7 and 5)
SKIPPED_WALK_ROWS = {
    "C(14) --galois": lambda: ExtensionProblem.galois(cyclic(14)),
    "Hol(C(10)) --complement": lambda: complement_problem("Hol(C(10))"),
}


def symmetry_problem(name):
    for rows in (DEGREE_9_AND_10, DEGREE_12_ROWS, SKIPPED_WALK_ROWS):
        if name in rows:
            return rows[name]()
    return oracle_problem(name)


@pytest.mark.parametrize("name", SYMMETRY_NAMES + sorted(SKIPPED_WALK_ROWS))
def test_atoms_carried_by_the_maps_match_the_all_seeds_walk(name):
    act = coset_action(symmetry_problem(name))
    n = act.degree
    budget = NodeBudget(10**9)
    atoms, maps = _viable_atoms(act, budget)
    assert [a for a, _ in atoms] == every_walk_atoms(act, budget)
    assert_carried_generators(atoms, n)
    if act.problem.subgroup.order > 1:
        assert maps == []
    g = act.problem.group
    found = {a for a, _ in atoms}
    for bar, bar_inv in maps:
        assert bar_inv == inverse(bar)
        assert {frozenset(conjugate(bar, t, bar_inv) for t in a) for a in found} == found
        # phibar comes from an automorphism phi of G, and
        # phibar lambda(x) phibar^-1 = lambda(phi(x)) on the generators
        phi = tuple(act.reps[bar[act.coset_of[x]]] for x in range(len(g)))
        assert sorted(phi) == list(range(len(g)))
        assert _is_automorphism_map(g, phi)
        for x in act.generators:
            assert conjugate(bar, act.translation(x), bar_inv) == \
                act.translation(phi[x])


@pytest.mark.parametrize("name", SYMMETRY_NAMES)
def test_types_carried_by_the_maps_are_iso_types(name):
    act = coset_action(symmetry_problem(name))
    for s in enumerate_regular_normalized(act, budget=NodeBudget(10**9)):
        assert s.type_name == iso_type(s.group)


@pytest.mark.parametrize("name", ORACLE_NAMES + sorted(DEGREE_12_ROWS))
def test_image_and_generator_pairs_match_the_generic_routes(name):
    # the image takes one getter per element met, and lambda(g^-1) is the
    # inverse tuple of lambda(g); the seeds are read in the image's order,
    # so the breadth-first order of `generated` is compared, not the set
    act = coset_action(symmetry_problem(name))
    g = act.problem.group
    pairs = act.generator_pairs()
    assert [lam for lam, _ in pairs] == list(map(act.translation, act.generators))
    assert [lam_inv for _, lam_inv in pairs] == \
        [act.translation(g.inv(x)) for x in act.generators]
    identity = tuple(range(act.degree))
    assert list(act.image) == list(generated((lam for lam, _ in pairs), identity, compose))


def unfiltered_combine(atoms, n, budget):
    """Stage 2 as it was before joins were skipped on a point-0 clash: every
    join of p with an atom not inside p goes to `_closure`."""
    results = set()
    smaller = []
    for a, a_gens in atoms:
        if len(a) == n:
            results.add(a)
        else:
            smaller.append((a, a_gens))
    seen = set()

    def extend(p, p_gens, start):
        if len(p) == n:
            results.add(p)
            return
        for j in range(start, len(smaller)):
            a, a_gens = smaller[j]
            if a <= p:
                continue
            grown = _closure(p, p_gens, a_gens, n, budget)
            if grown is None:
                continue
            q, q_gens = grown
            state = (q, j + 1)
            if state in seen:
                continue
            seen.add(state)
            extend(q, q_gens, j + 1)

    for j, (a, a_gens) in enumerate(smaller):
        extend(a, a_gens, j + 1)
    formed = {a for a, _ in atoms}
    formed.update(q for q, _ in seen)
    return results, formed


def recorded_combine(m, atoms, n, budget):
    """(results, formed) of `_combine_atoms`, with the engine's `_closure`
    wrapped on the monkeypatch context `m` to record every group stage 2
    formed: the atoms and each group a closure returned, which are the `q`
    of `seen`."""
    formed, closure = {a for a, _ in atoms}, hopfgalois.engine._closure

    def recorded(*args):
        grown = closure(*args)
        if grown is not None:
            formed.add(grown[0])
        return grown

    m.setattr(hopfgalois.engine, "_closure", recorded)
    return _combine_atoms(atoms, n, budget), formed


@pytest.mark.parametrize("name", ORACLE_NAMES + sorted(DEGREE_12_ROWS))
def test_skipped_joins_match_the_unfiltered_loop(monkeypatch, name):
    act = coset_action(symmetry_problem(name))
    budget = NodeBudget(10**9)
    atoms, _ = _viable_atoms(act, budget)
    assert recorded_combine(monkeypatch, atoms, act.degree, budget) == \
        unfiltered_combine(atoms, act.degree, budget)


def element_scan_clash(p, a) -> bool:
    """The point-0 clash as stage 2 tested it before point masks: some
    element of a sends point 0 where a different element of p sends it."""
    by0 = {t[0]: t for t in p}
    return any(by0.get(t[0], t) != t for t in a)


@pytest.mark.parametrize("name", ORACLE_NAMES + sorted(DEGREE_12_ROWS))
def test_point_mask_clash_matches_the_element_scan(monkeypatch, name):
    # every state that stage 2 extends is a formed group below order n,
    # and it meets only the atoms below order n, so these pairs hold every
    # (state, atom) pair that stage 2 tests
    act = coset_action(symmetry_problem(name))
    n, budget = act.degree, NodeBudget(10**9)
    atoms, _ = _viable_atoms(act, budget)
    with monkeypatch.context() as m:
        _, formed = recorded_combine(m, atoms, n, budget)

    def mask(group) -> int:
        return functools.reduce(operator.or_, (1 << t[0] for t in group))

    smaller = [a for a, _ in atoms if len(a) < n]
    for p in (q for q in formed if len(q) < n):
        for a in smaller:
            clash = (mask(a) & mask(p)).bit_count() != len(a & p)
            assert clash == element_scan_clash(p, a), name


def test_index_2_joins_are_closed_once(monkeypatch):
    # 632 stage-2 closures when every index-2 join is closed again from
    # each atom it holds
    act = coset_action(ExtensionProblem.galois(elementary_abelian(2, 3)))
    budget = NodeBudget(10**9)
    atoms, _ = _viable_atoms(act, budget)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _closure(*args)

    monkeypatch.setattr(hopfgalois.engine, "_closure", counted)
    results, formed = recorded_combine(monkeypatch, atoms, act.degree, budget)
    assert (len(results), len(formed)) == (106, 183)
    assert calls <= 350


def test_dropped_orbits_are_walked_once(monkeypatch):
    # 110 orbit walks when a dropped walk records nothing, so later walks
    # start again inside the same dropped orbit
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _conj_orbit(*args)

    monkeypatch.setattr(hopfgalois.engine, "_conj_orbit", counted)
    report = classify(complement_problem("SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))"))
    assert report.structure_count == 1
    assert calls <= 80


def test_galois_search_walks_one_seed_per_automorphism_class():
    # 124,204 nodes when every seed is walked and every N typed
    report = classify(ExtensionProblem.galois(direct_product(cyclic(6), cyclic(2))))
    assert report.structure_count == 20
    # four classes of cyclic subgroups of prime order, two under Aut(G)
    assert (report.engine["seeds"], report.engine["seeds_walked"]) == (4, 2)
    assert report.nodes_used <= 60_000


def test_galois_search_types_once_per_orbit(monkeypatch):
    # with no type read from the tuples, the type is carried along the
    # automorphism maps: 106 iso_type calls when every N is typed
    calls = 0

    def counted(group):
        nonlocal calls
        calls += 1
        return iso_type(group)

    problem = ExtensionProblem.galois(elementary_abelian(2, 3))
    expected = classify(problem).types()
    monkeypatch.setattr(hopfgalois.engine, "type_from_orders", lambda *_: None)
    monkeypatch.setattr(hopfgalois.engine, "iso_type", counted)
    report = classify(problem)
    assert report.structure_count == 106
    assert calls <= 10
    assert report.types() == expected


def test_structures_build_a_table_only_to_type(monkeypatch, capsys):
    # the tuples type every N of every corpus row: no Cayley table of N and
    # no isomorphism search, in classify and on the command line; and the
    # lattices of structures built outside the search need none either
    tables = iso_calls = 0
    rows = FiniteGroup._cayley_rows

    def counted_rows(self):
        nonlocal tables
        tables += self.name.startswith("N(")
        return rows(self)

    def counted_iso_type(group):
        nonlocal iso_calls
        iso_calls += 1
        return iso_type(group)

    monkeypatch.setattr(FiniteGroup, "_cayley_rows", counted_rows)
    monkeypatch.setattr(hopfgalois.engine, "iso_type", counted_iso_type)
    typed = sum(len(classify(row.build(hopfgalois, dsl)).types()) for _, row in ROWS)
    assert typed == sum(row.structures for _, row in ROWS)
    assert (tables, iso_calls) == (0, 0)
    assert hopfgalois.cli.main(["enumerate", "E(2,3)", "--galois", "--canonical",
                                "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["structures"]) == 106
    assert (tables, iso_calls) == (0, 0)
    assert hopfgalois.cli.main(["catalog", "all"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert (tables, iso_calls) == (0, 0)
    problem = complement_problem(ORDER_56_EXPR)
    action = coset_action(problem)
    for m in hopfgalois.normal_complements(problem):
        assert hopfgalois.is_minimal(translation_structure(action, m.members))
    assert (tables, iso_calls) == (0, 0)


@pytest.mark.parametrize("label", sorted(DEGREE_12_SHA256))
def test_tuple_types_match_iso_type_at_degree_12(label):
    expr, flag, *rest = label.split(" ", 2)
    problem = _problem(build_text(expr), flag[2:].replace("-", "_"), *rest)
    for s in classify(problem).structures:
        assert s.type_name == iso_type(s.group)


def _regular_tuples(g: FiniteGroup) -> list[tuple[int, ...]]:
    """g's left-regular representation: x -> (i -> x i), identity first."""
    return [tuple(g.mul(x, i) for i in range(len(g))) for x in range(len(g))]


def test_order_statistics_fix_the_nonabelian_types_below_16():
    nonabelian = {6: {"S3"}, 8: {"D4", "Q8"}, 10: {"D5"},
                  12: {"A4", "D6", "Dic3"}, 14: {"D7"}}
    for m in range(1, 16):
        candidates = _nonabelian_candidates(m)
        assert {iso_type(g) for _, g in candidates} == nonabelian.get(m, set())
        for (_, g), (_, h) in itertools.combinations(candidates, 2):
            if sorted(map(g.element_order, range(m))) == sorted(
                    map(h.element_order, range(m))):
                assert are_isomorphic(g, h)
        for _, g in candidates:
            assert _tuple_type(_regular_tuples(g)) == iso_type(g)


CATALOG_BELOW_16 = ([g for m in range(1, 16) for _, g in _nonabelian_candidates(m)]
                    + [cyclic(m) for m in range(1, 16)]
                    + [elementary_abelian(2, 2), elementary_abelian(2, 3),
                       elementary_abelian(3, 2),
                       direct_product(cyclic(2), cyclic(4)),
                       direct_product(cyclic(2), cyclic(6))])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CATALOG_BELOW_16), st.data())
def test_tuple_type_of_a_relabeled_regular_group(g, data):
    # any regular group of order < 16 is typed from its tuples as iso_type
    # types it
    sigma = data.draw(st.permutations(range(len(g))))
    sigma_inv = inverse(sigma)
    tuples = [conjugate(sigma, t, sigma_inv) for t in _regular_tuples(g)]
    assert _tuple_type(data.draw(st.permutations(tuples))) == iso_type(g)


def tuple_route_structures():
    """(label, structures): every structure of three searched rows, and the
    transversal-built structures of D(3), which carry no lattice."""
    rows = [("D(4) --galois", ExtensionProblem.galois(dihedral(4))),
            ("E(2,3) --galois", ExtensionProblem.galois(elementary_abelian(2, 3))),
            ("S(4) --stabilizer-of-point", stabilizer_problem(symmetric(4)))]
    out = [(label, classify(prob).structures) for label, prob in rows]
    act = coset_action(ExtensionProblem.galois(dihedral(3)))
    out.append(("D(3) transversal",
                [HGStructure(act, key) for key in enumerate_via_transversal(act)]))
    return out


def test_tuple_routes_match_the_group_routes():
    # generators, the lattice and key are read from N's image tuples; the
    # group N builds gives the same answers
    for label, structures in tuple_route_structures():
        assert structures, label
        for s in structures:
            gens = s.generator_strings()
            lattice = tuple_sets(s.stable_subgroups)
            assert gens == [cycle_string(s.group.raw(i))
                            for i in s.group.generators()], label
            assert s.group.generators() == greedy_generators(s.group), label
            assert lattice == tuple_sets(g_stable_subgroups(s)), label
            assert s.key() == s.group.raw_elements(), label


def naive_regular_normalized(elements, n, gen_pairs) -> bool:
    """The post-hoc check read off its definition: n elements with distinct
    images of point 0, closed under every product, and g t g^-1 in the set
    for every element t and every pair (g, g^-1)."""
    rng = range(n)
    return (len(elements) == n and len({t[0] for t in elements}) == n
            and all(tuple(a[b[i]] for i in rng) in elements
                    for a in elements for b in elements)
            and all(tuple(g[t[gi[i]]] for i in rng) in elements
                    for g, gi in gen_pairs for t in elements))


REGULAR_GROUPS = [cyclic(4), elementary_abelian(2, 2), cyclic(6), symmetric(3),
                  cyclic(8), dihedral(4), quaternion(8), elementary_abelian(2, 3)]


@st.composite
def post_hoc_inputs(draw):
    """(elements, n, gen_pairs): a regular group (the translations of a
    small group, relabeled by a drawn permutation), sometimes with one
    element swapped for another that sends 0 to the same point, in a drawn
    order; the pairs come from the set itself and from arbitrary
    permutations."""
    group = draw(st.sampled_from(REGULAR_GROUPS))
    n = len(group)
    act = coset_action(ExtensionProblem.galois(group))
    sigma = draw(st.permutations(range(n)))
    sigma_inv = inverse(sigma)
    elements = {conjugate(sigma, t, sigma_inv) for t in act.image}
    if draw(st.booleans()):
        old = draw(st.sampled_from(sorted(elements)))
        new = draw(st.permutations(range(n)).filter(lambda p: p[0] == old[0]))
        elements = (elements - {old}) | {tuple(new)}
    sources = st.one_of(st.sampled_from(sorted(elements)),
                        st.permutations(range(n)).map(tuple))
    gens = draw(st.lists(sources, max_size=3))
    order = draw(st.permutations(sorted(elements)))
    return tuple(order), n, [(g, inverse(g)) for g in gens]


@settings(max_examples=300, deadline=None)
@given(post_hoc_inputs())
def test_post_hoc_check_matches_its_definition(inputs):
    assert _regular_normalized(*inputs) == naive_regular_normalized(*inputs)


def test_post_hoc_check_refuses_a_regular_set_that_is_not_closed():
    # a = (0 1)(2 3), b = (0 2 1) and a b send 0 to 1, 2 and 3, so with the
    # identity the set is regular; but b a and b^2 lie outside it
    identity, a, b = (0, 1, 2, 3), (1, 0, 3, 2), (2, 0, 1, 3)
    elements = [identity, a, b, compose(a, b)]
    assert not naive_regular_normalized(elements, 4, [])
    for order in itertools.permutations(elements):
        assert not _regular_normalized(order, 4, []), order


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


@pytest.mark.parametrize("group,types", [
    # Byott 2004, degree pq: D(p) has p + 2 structures, C(2p) has 3
    pytest.param(lambda: dihedral(7), {"C14": 7, "D7": 2}, id="D7"),
    pytest.param(lambda: cyclic(14), {"C14": 1, "D7": 2}, id="C14"),
])
def test_degree_14_galois_literature_rows(group, types):
    # 9,356 and 4,196 nodes; 695,064 for D(7) when every seed walks every
    # cycle length, so a return to that fails here
    report = classify(ExtensionProblem.galois(group()), degree_cap=14)
    assert Counter(report.types()) == types
    assert report.minimal_count == 0
    assert report.engine["walks_skipped"] == 2
    assert report.nodes_used <= 20_000


def test_degree_12_presentation_invariance():
    # D6 and D3 x C2 are one group in two presentations
    counts = []
    for g in (dihedral(6), direct_product(dihedral(3), cyclic(2))):
        act = coset_action(ExtensionProblem.galois(g))
        counts.append(Counter(s.type_name for s in enumerate_regular_normalized(act)))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) == 40
