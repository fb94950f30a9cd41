import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgalois import CapExceeded, FiniteGroup, Perm
from hopfgalois.dsl import build_text
from hopfgalois.engine import _regular_normalized
from hopfgalois.perms import uniform_cycle_length

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(n))).map(lambda xs: Perm(tuple(xs)))


def brute_compose(p: Perm, q: Perm) -> Perm:
    # oracle: evaluate p(q(i)) point by point
    return Perm(tuple(p(q(i)) for i in range(p.degree)))


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3))


def test_compose_identity_and_inverse():
    p = Perm.parse("(0 1 2)(3 4)", degree=5)
    assert Perm.identity(5) * p == p
    assert p * p.inverse() == Perm.identity(5)


def test_compose_oracle_on_transpositions():
    p = Perm.parse("(0 1)", degree=3)
    q = Perm.parse("(1 2)", degree=3)
    assert p * q == brute_compose(p, q)
    # q first: 2 -> 1 -> 0, 1 -> 2, 0 -> 1
    assert (p * q).images == (1, 2, 0)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Perm.identity(3) * Perm.identity(4)


@given(perms, perms, perms)
def test_compose_associative(p, q, r):
    n = max(p.degree, q.degree, r.degree)
    p, q, r = (Perm(x.images + tuple(range(x.degree, n))) for x in (p, q, r))
    assert (p * q) * r == p * (q * r)
    assert brute_compose(p, q) == p * q


@given(perms)
def test_inverse_roundtrip(p):
    assert p * p.inverse() == Perm.identity(p.degree)
    assert p.inverse().inverse() == p


def test_cycle_string_roundtrip():
    for images in itertools.permutations(range(4)):
        p = Perm(images)
        assert Perm.parse(p.cycle_string(), degree=4) == p
    assert Perm.identity(3).cycle_string() == "()"
    assert str(Perm.parse("(0 1 2)(3 4)")) == "(0 1 2)(3 4)"


def test_parse_errors():
    with pytest.raises(ValueError):
        Perm.parse("(0 1")
    with pytest.raises(ValueError):
        Perm.parse("(0 1))")
    with pytest.raises(ValueError):
        Perm.parse("()")  # identity needs an explicit degree


def test_semiregular_cycle_type():
    assert uniform_cycle_length(Perm.identity(4).images) == 1
    assert uniform_cycle_length(Perm.parse("(0 1)(2 3)").images) == 2
    assert uniform_cycle_length(Perm.parse("(0 1 2)", degree=4).images) is None


# -- closure: the group a gens[...] expression generates ---------------------


def elements(text: str) -> tuple[tuple[int, ...], ...]:
    return build_text(text).group.raw_elements()


def test_closure_empty_and_small():
    # a lone fixed point only sets the degree: the trivial group
    assert elements("gens[(2)]") == ((0, 1, 2),)
    assert len(elements("gens[(0 1), (1 2)]")) == 6
    assert len(elements("gens[(0 1 2 3)]")) == 4


def test_closure_cap():
    # S8 has 40320 elements; the closure stops once it passes the cap
    with pytest.raises(CapExceeded):
        build_text("gens[(0 1), (0 1 2 3 4 5 6 7)]")


def test_closure_generator_order_independent():
    assert elements("gens[(0 1), (0 1 2 3)]") == elements("gens[(0 1 2 3), (0 1)]")


def test_closure_is_group_exhaustively():
    s = elements("gens[(0 1 2 3), (1 3)]")
    members = set(s)
    rng = range(4)
    assert s[0] == tuple(rng)
    assert all(tuple(a[b[i]] for i in rng) in members for a in s for b in s)
    assert all(Perm(p).inverse().images in members for p in s)
    # dropping the identity leaves a set the group holder refuses
    with pytest.raises(ValueError):
        FiniteGroup.from_permutations(s[1:])


# -- the post-hoc predicate: regular and normalized --------------------------


def images(*texts: str, degree: int = 4) -> list[tuple[int, ...]]:
    return [Perm.parse(t, degree=degree).images for t in texts]


KLEIN = frozenset(images("()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)"))
C4 = frozenset(elements("gens[(0 1 2 3)]"))
S4 = elements("gens[(0 1), (0 1 2 3)]")


def pairs(perms) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(p, Perm(p).inverse().images) for p in perms]


S4_GENS = pairs(images("(0 1)", "(0 1 2 3)"))


def test_is_regular():
    # no generators: only regularity is tested
    assert _regular_normalized(C4, 4, [])
    assert not _regular_normalized(frozenset(elements("gens[(0 1)(3)]")), 4, [])
    # four elements, but point 0 only reaches {0, 1}
    assert not _regular_normalized(frozenset(elements("gens[(0 1), (2 3)]")), 4, [])
    assert _regular_normalized(KLEIN, 4, [])


def test_regular_elements_are_semiregular():
    for s in (KLEIN, C4):
        assert _regular_normalized(s, 4, [])
        assert len(s) == 4
        for p in s:
            d = uniform_cycle_length(p)
            assert d is not None and 4 % d == 0
            assert d > 1 or p == (0, 1, 2, 3)


def test_is_normalized_by():
    assert _regular_normalized(KLEIN, 4, pairs(KLEIN))  # self-normalization
    assert _regular_normalized(KLEIN, 4, S4_GENS)
    # oracle: conjugating by (0 1) moves the 4-cycle out of the subgroup
    g = Perm.parse("(0 1)", degree=4)
    conj = {(g * Perm(p) * g.inverse()).images for p in C4}
    assert conj != set(C4)
    assert not _regular_normalized(C4, 4, S4_GENS)


def test_normalized_by_generators_suffices():
    assert len(S4) == 24
    for s in (KLEIN, C4):
        assert _regular_normalized(s, 4, S4_GENS) == \
            _regular_normalized(s, 4, pairs(S4))
