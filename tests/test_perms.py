import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgalois import CapExceeded, Perm, PermSet

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
    assert Perm.identity(4).semiregular_cycle_length() == 1
    assert Perm.parse("(0 1)(2 3)").semiregular_cycle_length() == 2
    assert Perm.parse("(0 1 2)", degree=4).semiregular_cycle_length() is None


def test_closure_empty_and_small():
    triv = PermSet.closure([], degree=3)
    assert len(triv) == 1 and Perm.identity(3) in triv
    s3 = PermSet.closure([Perm.parse("(0 1)", degree=3), Perm.parse("(1 2)", degree=3)])
    assert len(s3) == 6
    c4 = PermSet.closure([Perm.parse("(0 1 2 3)")])
    assert len(c4) == 4


def test_closure_cap():
    gens = [Perm.parse("(0 1)", degree=5), Perm.parse("(0 1 2 3 4)")]
    with pytest.raises(CapExceeded):
        PermSet.closure(gens, cap=100)


def test_closure_generator_order_independent():
    gens = [Perm.parse("(0 1)", degree=4), Perm.parse("(0 1 2 3)")]
    a = PermSet.closure(gens)
    b = PermSet.closure(list(reversed(gens)))
    assert a.elements == b.elements


def test_closure_is_group_exhaustively():
    s = PermSet.closure([Perm.parse("(0 1 2 3)"), Perm.parse("(1 3)", degree=4)])
    assert s.is_group()
    assert all(p.inverse() in s for p in s)
    # dropping the identity breaks the group predicate
    broken = PermSet(4, tuple(p for p in s if not p.is_identity()))
    assert not broken.is_group()


KLEIN = PermSet.from_perms([Perm.identity(4),
                            Perm.parse("(0 1)(2 3)"),
                            Perm.parse("(0 2)(1 3)"),
                            Perm.parse("(0 3)(1 2)")])

S4_GENS = [Perm.parse("(0 1)", degree=4), Perm.parse("(0 1 2 3)")]


def test_is_regular():
    assert PermSet.closure([Perm.parse("(0 1 2 3)")]).is_regular()
    assert not PermSet.closure([Perm.parse("(0 1)", degree=4)]).is_regular()
    assert KLEIN.is_regular()


def test_regular_elements_are_semiregular():
    for s in (KLEIN, PermSet.closure([Perm.parse("(0 1 2 3)")])):
        assert s.is_regular()
        assert len(s) == s.degree
        for p in s:
            d = p.semiregular_cycle_length()
            assert d is not None and s.degree % d == 0
            assert d > 1 or p.is_identity()


def test_is_normalized_by():
    assert KLEIN.is_normalized_by(KLEIN.elements)  # self-normalization
    assert KLEIN.is_normalized_by(S4_GENS)
    c4 = PermSet.closure([Perm.parse("(0 1 2 3)")])
    # oracle: conjugating by (0 1) moves the 4-cycle out of the subgroup
    g = Perm.parse("(0 1)", degree=4)
    conj = {g * p * g.inverse() for p in c4}
    assert conj != set(c4.elements)
    assert not c4.is_normalized_by(S4_GENS)


def test_normalized_by_generators_suffices():
    s4 = PermSet.closure(S4_GENS)
    assert KLEIN.is_normalized_by(S4_GENS) == KLEIN.is_normalized_by(s4.elements)
    c4 = PermSet.closure([Perm.parse("(0 1 2 3)")])
    assert c4.is_normalized_by(S4_GENS) == c4.is_normalized_by(s4.elements)
