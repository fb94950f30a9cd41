import itertools
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hopfgalois.groups as groups
from hopfgalois import (CapExceeded, ExtensionProblem, FiniteGroup,
                        abelian_invariants, alternating, are_isomorphic,
                        automorphism_group, characteristic_subgroups,
                        classify, cyclic, dicyclic, dihedral,
                        direct_product, elementary_abelian, holomorph,
                        holomorph_copies, inner_automorphism,
                        is_characteristically_simple, iso_type, quaternion,
                        semidirect_product, symmetric)
from hopfgalois.dsl import build_text
from hopfgalois.perms import compose, cycle_string, cycles
from conftest import ORDER_12_EXPR, ORDER_36_EXPR, ORDER_56_EXPR
from test_minimality import stable_subgroups_via_filter

# an order-480 subgroup of GL(2,5), above TABLE_MAX
MATGRP_480 = "matgrp(5,2,[[[2,0],[0,1]],[[-1,1],[-1,0]]])"

# -- oracles ---------------------------------------------------------------


def naive_table(g: FiniteGroup) -> list[list[int]]:
    # every product taken raw: |G|^2 calls of the group's own product
    raw, mul = g.raw_elements(), g._mul_raw
    return [[g.index_of(mul(a, b)) for b in raw] for a in raw]


def check_table(g: FiniteGroup) -> None:
    assert len(g) <= groups.TABLE_MAX
    m = len(g)
    assert [[g.mul(a, b) for b in range(m)] for a in range(m)] == naive_table(g)


def check_axioms(g: FiniteGroup) -> None:
    m = len(g)
    for a in range(m):
        assert g.mul(0, a) == a == g.mul(a, 0)
        assert g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a)
    if m <= 24:
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    else:
        gens = g.generators()
        for a in gens:
            for b in range(m):
                for c in gens:
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def characteristic_via_filter(g: FiniteGroup) -> list:
    # every subgroup, kept when every automorphism fixes it
    return stable_subgroups_via_filter(g, automorphism_group(g).raw_elements())


def brute_subgroups(g: FiniteGroup) -> set[frozenset]:
    # all subsets containing the identity that are closed under multiplication
    assert len(g) <= 12, "exponential oracle"
    out = set()
    rest = [i for i in range(1, len(g))]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = frozenset((0,) + combo)
            if all(g.mul(a, b) in s for a in s for b in s):
                out.add(s)
    return out


def brute_normal_subgroups(g: FiniteGroup) -> set[frozenset]:
    # a normal subgroup is a union of conjugacy classes including the
    # identity's; check every such union for closedness
    classes = [frozenset(c) for c in g.conjugacy_classes()]
    nontrivial = [c for c in classes if 0 not in c]
    out = set()
    for r in range(len(nontrivial) + 1):
        for combo in itertools.combinations(nontrivial, r):
            s = frozenset({0}).union(*combo)
            if len(g) % len(s) == 0 and all(g.mul(a, b) in s for a in s for b in s):
                out.add(s)
    return out


def brute_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    # all identity-fixing bijections, checked for multiplicativity
    if len(a) != len(b):
        return False
    m = len(a)
    for images in itertools.permutations(range(1, m)):
        f = (0,) + images
        if all(f[a.mul(x, y)] == b.mul(f[x], f[y]) for x in range(m) for y in range(m)):
            return True
    return False


# -- constructors ------------------------------------------------------------


@pytest.mark.parametrize("group,order", [
    (cyclic(1), 1), (cyclic(8), 8),
    (dihedral(3), 6), (dihedral(4), 8),
    (symmetric(4), factorial(4)), (alternating(4), 12), (alternating(5), 60),
    (elementary_abelian(2, 2), 4), (elementary_abelian(2, 3), 8),
    (elementary_abelian(3, 2), 9),
    (quaternion(8), 8), (quaternion(16), 16), (dicyclic(3), 12),
    # above TABLE_MAX: products on demand, inverses from the power walk
    (alternating(6), 360), (holomorph(elementary_abelian(3, 2)), 432),
    (direct_product(alternating(5), cyclic(5)), 300),
    (build_text(MATGRP_480).group, 480),
])
def test_constructor_orders_and_axioms(group, order):
    assert len(group) == order
    check_axioms(group)


def test_constructor_validation():
    with pytest.raises(ValueError):
        elementary_abelian(4, 2)  # 4 is not prime
    with pytest.raises(ValueError):
        quaternion(12)
    with pytest.raises(ValueError):
        quaternion(4)


def test_alternating_is_the_cycle_parity_filter():
    # parity from the Lehmer code against parity from the cycles: a cycle
    # of length l is l - 1 transpositions
    for m in range(1, 8):
        evens = [p for p in itertools.permutations(range(m))
                 if sum(len(c) - 1 for c in cycles(p)) % 2 == 0]
        assert alternating(m).raw_elements() == tuple(evens)


def naive_order(g: FiniteGroup, i: int) -> int:
    # the power walk from i alone, nothing read from other elements' orders
    out, x = 1, i
    while x != 0:
        out, x = out + 1, g.mul(x, i)
    return out


@pytest.mark.parametrize("build", [
    pytest.param(lambda: alternating(6), id="A6"),
    pytest.param(lambda: symmetric(5), id="S5"),
    pytest.param(lambda: holomorph(elementary_abelian(3, 2)), id="Hol(E(3,2))"),
    pytest.param(lambda: dihedral(4), id="D4"),
])
def test_element_order_fills_powers_correctly(build):
    # element_order records the order of every power it walks past; the
    # orders, queried in index order, must equal an independent walk
    g = build()
    assert [g.element_order(i) for i in range(len(g))] == \
        [naive_order(g, i) for i in range(len(g))]


def test_inverses_come_from_power_walks(monkeypatch):
    # each walk over the powers of i records the inverse of every power, so
    # inverting the whole group takes O(|G|) products (688 here, each one
    # computed: above TABLE_MAX no product is kept), where a scan for the j
    # with i j = 1 takes about |G|^2 / 2 (115,440 here)
    g = build_text(MATGRP_480).group
    assert len(g) > groups.TABLE_MAX
    calls = 0
    raw_mul = g._mul_raw

    def counted(a, b):
        nonlocal calls
        calls += 1
        return raw_mul(a, b)

    monkeypatch.setattr(g, "_mul_raw", counted)
    inverses = [g.inv(i) for i in range(len(g))]
    assert calls <= 3 * len(g)
    monkeypatch.setattr(g, "_mul_raw", raw_mul)
    assert all(g.mul(i, j) == 0 for i, j in enumerate(inverses))


def test_from_permutations_needs_an_element():
    with pytest.raises(ValueError, match="a group needs at least one element"):
        FiniteGroup.from_permutations([])


def test_from_permutations_needs_closed_elements():
    with pytest.raises(ValueError, match="not closed under the product"):
        FiniteGroup.from_permutations([(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError, match="not closed under the product"):
        FiniteGroup.from_permutations([(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)])
    # a generated group short of one element is refused as well
    s4 = [p for p in itertools.permutations(range(4)) if p != (3, 2, 1, 0)]
    with pytest.raises(ValueError, match="not closed under the product"):
        FiniteGroup.from_permutations(s4)
    # above TABLE_MAX products are taken on demand: the first product or
    # inverse that leaves the set is refused the same way
    s6 = list(itertools.permutations(range(6)))
    no_reversal = FiniteGroup.from_permutations(
        p for p in s6 if p != (5, 4, 3, 2, 1, 0))
    assert len(no_reversal) == 719 > groups.TABLE_MAX
    with pytest.raises(ValueError, match="not closed under the product"):
        no_reversal.generators()
    no_3_cycle = FiniteGroup.from_permutations(
        p for p in s6 if p != (1, 2, 0, 3, 4, 5))
    with pytest.raises(ValueError, match="not closed under the product"):
        no_3_cycle.inv(no_3_cycle.index_of((2, 0, 1, 3, 4, 5)))


# -- the Cayley table from generator rows -------------------------------------


@pytest.mark.parametrize("expr", [
    "C(1)", "C(2)", "C(12)", "C(256)", "D(3)", "D(8)", "D(64)",
    "S(1)", "S(2)", "S(3)", "S(4)", "S(5)", "A(3)", "A(4)", "A(5)",
    "E(2,1)", "E(2,4)", "E(2,8)", "E(3,2)", "E(3,4)", "E(5,2)",
    "Q(8)", "Q(16)", "Q(128)",
    "C(4) x C(2)", "S(3) x C(4)", "A(4) x C(3)", "D(4) x C(2) x C(2)",
    "Q(8) x S(3)", "S(4) x E(2,3)",
    "Hol(C(7))", "Hol(C(9))", "Hol(C(12))", "Hol(E(2,2))", "Hol(D(4))",
    "Hol(Q(8))", "Hol(S(3))",
    ORDER_12_EXPR, ORDER_36_EXPR, ORDER_56_EXPR,
])
def test_cayley_table_matches_naive(expr):
    check_table(build_text(expr).group)


def test_cayley_table_of_dicyclic_and_automorphism_groups():
    check_table(dicyclic(3))
    for g in [elementary_abelian(2, 2), elementary_abelian(2, 3),
              elementary_abelian(3, 2), quaternion(8), dihedral(4)]:
        check_table(automorphism_group(g))


def test_cayley_table_of_order_16_candidates():
    from hopfgalois.catalog import _nonabelian_candidates
    for _, g in _nonabelian_candidates(16):
        check_table(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(st.permutations(range(d)).map(tuple), min_size=1, max_size=3)))
def test_cayley_table_of_generated_groups(gens):
    assume(any(p != tuple(range(len(p))) for p in gens))  # gens[()] has no degree
    g = build_text("gens[" + ", ".join(cycle_string(p) for p in gens) + "]").group
    if len(g) <= groups.TABLE_MAX:
        check_table(g)
    else:
        assert g._table is None


def test_cayley_table_takes_few_raw_products(monkeypatch):
    # a table filled product by product would take |G|^2 = 14,400 and 28,224
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return compose(a, b)

    monkeypatch.setattr(groups, "compose", counted)
    assert len(symmetric(5)) == 120
    assert 0 < calls <= 600
    e23 = elementary_abelian(2, 3)
    calls = 0
    assert len(automorphism_group(e23)) == 168
    assert 0 < calls <= 5 * 168


def test_fingerprint_computed_once_per_group(monkeypatch):
    # iso_type compares N's fingerprint with each catalog candidate's; each
    # group's is computed on its first comparison only
    calls = []
    center = FiniteGroup.center

    def counted(self):
        calls.append(id(self))
        return center(self)

    monkeypatch.setattr(FiniteGroup, "center", counted)
    g = direct_product(dihedral(3), cyclic(2))
    names = {iso_type(g) for _ in range(3)}
    assert len(names) == 1
    assert calls.count(id(g)) == 1
    assert set(Counter(calls).values()) == {1}


def test_d3_is_s3_by_brute_force():
    assert brute_isomorphic(dihedral(3), symmetric(3))
    assert are_isomorphic(dihedral(3), symmetric(3))


def test_direct_product():
    klein = direct_product(cyclic(2), cyclic(2))
    assert len(klein) == 4
    assert are_isomorphic(klein, elementary_abelian(2, 2))
    assert are_isomorphic(direct_product(alternating(4), cyclic(1)), alternating(4))
    check_axioms(direct_product(cyclic(2), symmetric(3)))
    big = direct_product(alternating(5), alternating(5))
    assert len(big) == 3600


def test_semidirect_product_a4():
    base = elementary_abelian(2, 2)
    # the order-3 automorphism cycling the three involutions
    theta = (0, 2, 3, 1)
    h = cyclic(3)
    g = semidirect_product(base, h, [(0, 1, 2, 3), theta, compose(theta, theta)])
    assert len(g) == 12
    check_axioms(g)
    assert are_isomorphic(g, alternating(4))
    # the base embeds as the distinguished-complement's... base part {(n, 0)}
    base_part = [g.index_of((i, 0)) for i in range(len(base))]
    assert g.subgroup(base_part).is_normal()


def _times(k: int, m: int) -> tuple[int, ...]:
    # multiplication by k on the indices of cyclic(m)
    return tuple(k * x % m for x in range(m))


@pytest.mark.parametrize("pairs", [
    # a trivial action gives the direct product
    pytest.param(lambda: [(semidirect_product(cyclic(4), cyclic(2), [(0, 1, 2, 3)] * 2),
                           direct_product(cyclic(4), cyclic(2)))], id="C4 x C2"),
    # dihedral's own law is the split extension of C_n by negation
    pytest.param(lambda: [(semidirect_product(cyclic(n), cyclic(2),
                                              [_times(1, n), _times(-1, n)]),
                           dihedral(n)) for n in (*range(1, 9), 64)], id="D(n)"),
])
def test_semidirect_with_trivial_action_is_direct(pairs):
    for sd, expected in pairs():
        # identical under the canonical pairing of raw index pairs
        assert sd.raw_elements() == expected.raw_elements()
        m = len(sd)
        assert all(sd.mul(a, b) == expected.mul(a, b)
                   for a in range(m) for b in range(m))


def _powers(step: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    # step^0, ..., step^(k-1)
    tables = [tuple(range(len(step)))]
    for _ in range(k - 1):
        tables.append(compose(step, tables[-1]))
    return tables


def test_semidirect_rejects_bad_action():
    for n, h, tables in [
        # not a homomorphism: tables[1] o tables[1] is x4, but tables[2] is x1
        (cyclic(5), cyclic(4), [_times(1, 5), _times(2, 5)] * 2),
        # the identity of h must act as the identity
        (cyclic(4), cyclic(2), [_times(3, 4), _times(1, 4)]),
        # a permutation fixing 0 that is not an automorphism
        (cyclic(4), cyclic(2), [_times(1, 4), (0, 2, 1, 3)]),
        # an image outside n's indices
        (cyclic(4), cyclic(2), [_times(1, 4), (0, 1, 2, 5)]),
        # one table per element of h
        (cyclic(4), cyclic(2), [_times(1, 4)]),
        # the powers of a table that respects C2 x C4's generator 1 = (0, 1)
        # but not its generator 5 = (1, 1): a homomorphism into the
        # permutations, so only the automorphism check rejects it
        (direct_product(cyclic(2), cyclic(4)), cyclic(4),
         _powers((0, 1, 2, 3, 5, 6, 7, 4), 4)),
    ]:
        with pytest.raises(ValueError):
            semidirect_product(n, h, tables)


@pytest.mark.parametrize("g", [
    elementary_abelian(2, 2), cyclic(6), symmetric(3),
    direct_product(cyclic(2), cyclic(4)), dihedral(4), quaternion(8),
    elementary_abelian(2, 3),
], ids=lambda g: g.name)
def test_automorphism_check_on_generators_accepts_exactly_aut(g):
    # every permutation fixing 0, tested on g's generators only
    m = len(g)
    accepted = {(0, *rest) for rest in itertools.permutations(range(1, m))
                if groups._is_automorphism_map(g, (0, *rest))}
    assert accepted == set(automorphism_group(g).raw_elements())


# -- automorphisms --------------------------------------------------------


def test_aut_klein_is_order_6_nonabelian():
    aut = automorphism_group(elementary_abelian(2, 2))
    assert len(aut) == 6
    assert not aut.is_abelian()


def test_aut_e23_matches_general_linear_count():
    # |GL_3(F_2)| by the product formula, cross-checking the backtracking
    expected = (8 - 1) * (8 - 2) * (8 - 4)
    assert expected == 168
    assert len(automorphism_group(elementary_abelian(2, 3))) == expected


def test_aut_c2_trivial():
    assert len(automorphism_group(cyclic(2))) == 1


def test_aut_elements_are_automorphisms():
    g = symmetric(3)
    aut = automorphism_group(g)
    assert len(aut) == 6  # Inn(S3) = S3, complete group
    for i in range(len(aut)):
        t = aut.raw(i)
        assert all(t[g.mul(a, b)] == g.mul(t[a], t[b])
                   for a in range(6) for b in range(6))


def test_aut_cap():
    with pytest.raises(CapExceeded):
        automorphism_group(direct_product(alternating(5), cyclic(3)))


def test_aut_stops_one_map_past_the_order_cap(monkeypatch):
    # |Aut(E(2,4))| = |GL(4,2)| = 20,160 > GROUP_ORDER_CAP: the maps are
    # read lazily, so the cap is hit at most one map past it
    yielded = 0
    original = groups._iso_image_maps

    def counted(a, b):
        nonlocal yielded
        for t in original(a, b):
            yielded += 1
            yield t

    monkeypatch.setattr(groups, "_iso_image_maps", counted)
    with pytest.raises(CapExceeded, match="group order exceeds cap 10000"):
        automorphism_group(elementary_abelian(2, 4))
    assert 0 < yielded <= groups.GROUP_ORDER_CAP + 1


# Far past GROUP_ORDER_CAP: each must raise after reading at most one
# element beyond the cap, not after listing the whole group.
@pytest.mark.parametrize("build", [
    pytest.param(lambda: symmetric(11), id="S11"),
    pytest.param(lambda: alternating(12), id="A12"),
    pytest.param(lambda: cyclic(10**9), id="C(10**9)"),
    pytest.param(lambda: dihedral(10**9), id="D(10**9)"),
    pytest.param(lambda: dicyclic(10**9), id="Dic(10**9)"),
    pytest.param(lambda: elementary_abelian(2, 40), id="E(2,40)"),
])
def test_order_cap_checked_before_building(build):
    with pytest.raises(CapExceeded):
        build()


# -- holomorphs ----------------------------------------------------------


@pytest.mark.parametrize("n", [cyclic(2), cyclic(4), cyclic(5), elementary_abelian(2, 2),
                               symmetric(3), quaternion(8)])
def test_holomorph_order(n):
    assert len(holomorph(n)) == len(n) * len(automorphism_group(n))


def test_holomorph_small_cases():
    assert len(holomorph(elementary_abelian(2, 2))) == 24
    assert are_isomorphic(holomorph(elementary_abelian(2, 2)), symmetric(4))
    assert len(holomorph(cyclic(4))) == 8
    assert are_isomorphic(holomorph(cyclic(2)), cyclic(2))


def test_conjugation_pushforward_law():
    # t . conj_g . t^-1 == conj_{t(g)} for every automorphism t
    for n in (symmetric(3), quaternion(8)):
        aut = automorphism_group(n)
        for ti in range(len(aut)):
            t = aut.raw(ti)
            t_inv = aut.raw(aut.inv(ti))
            for g in range(len(n)):
                lhs = tuple(t[n.conj(g, t_inv[x])] for x in range(len(n)))
                assert lhs == inner_automorphism(n, t[g])


@pytest.mark.parametrize("n,abelian", [(symmetric(3), False), (cyclic(4), True),
                                       (dihedral(4), False), (quaternion(8), False)])
def test_holomorph_copies(n, abelian):
    hol, translations, twisted = holomorph_copies(n)
    assert translations.order == len(n) == twisted.order
    assert translations.is_normal() and twisted.is_normal()
    assert (translations == twisted) == abelian
    assert are_isomorphic(twisted.as_group(), n)
    assert are_isomorphic(translations.as_group(), n)


# -- generators ------------------------------------------------------------


def greedy_generators(g: FiniteGroup) -> tuple[int, ...]:
    # the greedy pick as a loop of closures, one per pick: each element, by
    # descending order and then index, that the picks before it do not
    # generate
    gens, have = [], frozenset({0})
    for i in sorted(range(1, len(g)), key=lambda i: (-g.element_order(i), i)):
        if i not in have:
            gens.append(i)
            have = g.closure_of(gens)
            if len(have) == len(g):
                break
    return tuple(gens)


@pytest.mark.parametrize("expr", [
    "C(1)", "C(12)", "D(8)", "S(4)", "S(5)", "A(5)", "E(2,4)", "Q(16)",
    "S(3) x C(4)", "Hol(C(9))", ORDER_56_EXPR,
    # above TABLE_MAX
    "A(6)", "S(6)", "Hol(E(3,2))", "Hol(E(2,3))",
])
def test_generators_match_the_greedy_closure_loop(expr):
    g = build_text(expr).group
    assert g.generators() == greedy_generators(g)


def test_generators_of_searched_groups_match_the_greedy_closure_loop():
    structures = classify(ExtensionProblem.galois(dihedral(4))).structures
    assert len(structures) == 30
    for s in structures:
        assert s.group.generators() == greedy_generators(s.group)


# -- subgroups ------------------------------------------------------------


def test_subgroup_counts_against_brute_force():
    for g, expected in [(cyclic(5), 2), (cyclic(7), 2),
                        (elementary_abelian(2, 2), 5), (symmetric(3), 6)]:
        brute = brute_subgroups(g)
        assert len(brute) == expected
        assert {frozenset(s.members) for s in g.subgroups()} == brute


def test_subgroups_sorted_and_unique():
    subs = symmetric(4).subgroups()
    assert len(subs) == 30
    keys = [s.sort_key() for s in subs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_subgroup_validation():
    g = symmetric(3)
    with pytest.raises(ValueError):
        g.subgroup([0, 1, 2, 3])  # not closed
    with pytest.raises(ValueError):
        g.subgroup([1])  # no identity


def test_normal_subgroups():
    s4 = symmetric(4)
    normals = {frozenset(s.members) for s in s4.normal_subgroups()}
    assert normals == brute_normal_subgroups(s4)
    assert sorted(len(s) for s in normals) == [1, 4, 12, 24]  # 1, V, A4, S4
    assert {frozenset(s.members) for s in alternating(5).normal_subgroups()} == \
        brute_normal_subgroups(alternating(5)) == \
        {frozenset({0}), frozenset(range(60))}
    assert {frozenset(s.members) for s in dihedral(6).normal_subgroups()} == \
        brute_normal_subgroups(dihedral(6))


# -- characteristic structure ----------------------------------------------


def test_characteristic_subgroups_examples():
    q8 = characteristic_subgroups(quaternion(8))
    assert any(s.order == 2 for s in q8)  # the unique order-2 subgroup
    c8 = [s for s in characteristic_subgroups(cyclic(8))
          if not s.is_trivial() and not s.is_full()]
    assert len(c8) >= 2 and {s.order for s in c8} == {2, 4}
    klein = characteristic_subgroups(elementary_abelian(2, 2))
    assert [s.order for s in klein] == [1, 4]


def test_characteristic_subgroups_are_normal():
    for g in (quaternion(8), cyclic(8), dihedral(4), symmetric(3), dihedral(5)):
        normal = {frozenset(s.members) for s in g.normal_subgroups()}
        for s in characteristic_subgroups(g):
            assert frozenset(s.members) in normal


@pytest.mark.parametrize("group,simple", [
    (elementary_abelian(2, 2), True), (elementary_abelian(3, 2), True),
    (elementary_abelian(2, 3), True), (cyclic(5), True),
    (cyclic(4), False), (dihedral(4), False), (cyclic(8), False),
    (quaternion(8), False), (dihedral(3), False), (dihedral(5), False),
    (symmetric(3), False),
])
def test_characteristically_simple_catalog(group, simple):
    assert is_characteristically_simple(group) == simple
    assert characteristic_subgroups(group) == characteristic_via_filter(group)


def test_characteristically_simple_a5():
    a5 = alternating(5)
    assert is_characteristically_simple(a5)
    assert characteristic_subgroups(a5) == characteristic_via_filter(a5)


def test_order_mp_has_characteristic_sylow():
    # order mp with p prime and p > m > 1 forces a unique, characteristic Sylow
    for g, p in [(dihedral(5), 5), (cyclic(6), 3), (dihedral(7), 7), (cyclic(20), 5)]:
        # the brute-force Sylow subgroup: p > m, so it has order p
        [syl] = [s for s in g.subgroups() if s.order == p]
        char = {frozenset(s.members) for s in characteristic_subgroups(g)}
        assert frozenset(syl.members) in char


# -- isomorphism typing -----------------------------------------------------


def test_are_isomorphic_negative():
    assert not are_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert not are_isomorphic(dihedral(4), quaternion(8))
    assert not are_isomorphic(dihedral(6), alternating(4))


@pytest.mark.parametrize("group,name", [
    (cyclic(8), "C8"), (cyclic(6), "C6"),
    (elementary_abelian(2, 2), "E(2,2)"), (elementary_abelian(2, 3), "E(2,3)"),
    (elementary_abelian(3, 2), "E(3,2)"),
    (direct_product(cyclic(4), cyclic(2)), "C2 x C4"),
    (direct_product(cyclic(2), cyclic(6)), "C2 x C6"),
    (dihedral(4), "D4"), (dihedral(5), "D5"), (quaternion(8), "Q8"),
    (quaternion(16), "Q16"), (dicyclic(3), "Dic3"),
    (symmetric(3), "S3"), (dihedral(3), "S3"),
    (symmetric(4), "S4"), (alternating(4), "A4"), (alternating(5), "A5"),
    (holomorph(elementary_abelian(2, 2)), "S4"),
    (holomorph(cyclic(4)), "D4"),
    (holomorph(cyclic(5)), "Hol(C5)"),
    # independent presentations of the order-16 split extensions
    (build_text("gens[(0 1 2 3 4 5 6 7), (1 3)(2 6)(5 7)]").group, "SD16"),
    (build_text("gens[(0 1 2 3 4 5 6 7), (1 5)(3 7)]").group, "M16"),
    (build_text("gens[(0 1 2 3)(4 13 6 15)(5 14 7 12)(8 9 10 11), "
                "(0 4 8 12)(1 5 9 13)(2 6 10 14)(3 7 11 15)]").group, "C4 : C4"),
    (build_text("gens[(0 1 2 3)(4 7 5 6), (0 4 7 3)(1 2 5 6)]").group,
     "(C2 x C2) : C4"),
    (build_text("gens[(0 3 5 7)(1 4 6 2), (0 3 5 7)(1 2 6 4), "
                "(0 4 5 2)(1 3 6 7)]").group, "D4 o C4"),
])
def test_iso_type_names(group, name):
    assert iso_type(group) == name


def test_iso_type_trivial_group():
    # the trivial group has no abelian invariants at all
    assert abelian_invariants(cyclic(1)) == ()
    assert iso_type(cyclic(1)) == "C1"
    assert iso_type(alternating(2)) == "C1"


def test_iso_type_order_16_catalog_is_complete_and_distinct():
    from hopfgalois.catalog import _nonabelian_candidates
    names = {name for name, _ in _nonabelian_candidates(16)}
    assert names == {"D8", "Q16", "SD16", "M16", "C4 : C4", "(C2 x C2) : C4",
                     "D4 x C2", "Q8 x C2", "D4 o C4"}
    built = dict(_nonabelian_candidates(16))
    for a, b in itertools.combinations(sorted(built), 2):
        assert not are_isomorphic(built[a], built[b]), (a, b)
    for name, g in built.items():
        check_axioms(g)
        assert iso_type(g) == name


def _prime_parts(d: int) -> dict[int, int]:
    parts: dict[int, int] = {}
    p = 2
    while d > 1:
        while d % p == 0:
            parts[p] = parts.get(p, 1) * p
            d //= p
        p += 1
    return parts


def test_abelian_invariants():
    # the i-th largest invariant factor is the product over primes of the
    # i-th largest prime-power part of the cyclic factors
    checked = 0
    for size in range(1, 9):
        for orders in itertools.combinations_with_replacement(
                (2, 3, 4, 5, 6, 8, 9, 12), size):
            if prod(orders) > 300:
                continue
            by_prime: dict[int, list[int]] = {}
            for d in orders:
                for p, q in _prime_parts(d).items():
                    by_prime.setdefault(p, []).append(q)
            width = max(len(qs) for qs in by_prime.values())
            expected = [1] * width
            for qs in by_prime.values():
                for i, q in enumerate(sorted(qs, reverse=True)):
                    expected[i] *= q
            g = cyclic(orders[0])
            for d in orders[1:]:
                g = direct_product(g, cyclic(d))
            assert abelian_invariants(g) == tuple(sorted(expected)), orders
            checked += 1
    assert checked == 268
    with pytest.raises(ValueError):
        abelian_invariants(symmetric(3))
