import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgalois import CapExceeded, FiniteGroup
from hopfgalois.dsl import DslError, build_text
from hopfgalois.engine import _regular_normalized
from hopfgalois.perms import (compose, cycle_string, cycles, from_cycles,
                              inverse, uniform_cycle_length)

from conftest import conjugate, read_cycles

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(n))).map(tuple)


def brute_compose(p, q):
    # oracle: evaluate p(q(i)) point by point
    return tuple(p[q[i]] for i in range(len(p)))


def widen(t, n):
    return t + tuple(range(len(t), n))


def test_compose_identity_and_inverse():
    p = read_cycles("(0 1 2)(3 4)", 5)
    ident = tuple(range(5))
    assert compose(ident, p) == compose(p, ident) == p
    assert compose(p, inverse(p)) == ident


def test_compose_oracle_on_transpositions():
    p = read_cycles("(0 1)", 3)
    q = read_cycles("(1 2)", 3)
    assert compose(p, q) == brute_compose(p, q)
    # q first: 2 -> 1 -> 0, 1 -> 2, 0 -> 1
    assert compose(p, q) == (1, 2, 0)


@given(perms, perms, perms)
def test_compose_associative(p, q, r):
    n = max(len(p), len(q), len(r))
    p, q, r = (widen(x, n) for x in (p, q, r))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert brute_compose(p, q) == compose(p, q)


@given(perms)
def test_inverse_roundtrip(p):
    assert compose(p, inverse(p)) == tuple(range(len(p)))
    assert inverse(inverse(p)) == p


@given(perms, perms)
def test_conjugate_is_two_products(g, t):
    n = max(len(g), len(t))
    g, t = widen(g, n), widen(t, n)
    gi = inverse(g)
    assert conjugate(g, t, gi) == compose(compose(g, t), gi)


def comprehension_conjugate(g, t, gi):
    # oracle: g t g^-1 point by point
    return tuple([g[t[x]] for x in gi])


def test_kernels_match_comprehensions_exhaustively():
    # every pair of permutations of degree 1 to 4, where a getter of one
    # index would return a bare entry at degree 1
    for n in range(1, 5):
        every = list(itertools.permutations(range(n)))
        for a, b in itertools.product(every, repeat=2):
            assert compose(a, b) == brute_compose(a, b)
            assert type(compose(a, b)) is tuple
            assert conjugate(a, b, inverse(a)) == \
                comprehension_conjugate(a, b, inverse(a))
    assert compose((), ()) == conjugate((), (), ()) == ()


wide_perms = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(*[st.permutations(range(n)).map(tuple)] * 2))


@given(wide_perms)
def test_kernels_match_comprehensions_up_to_degree_16(pair):
    a, b = pair
    assert compose(a, b) == brute_compose(a, b)
    assert conjugate(a, b, inverse(a)) == comprehension_conjugate(a, b, inverse(a))


def test_cycle_string_roundtrip():
    for n in range(1, 6):
        for t in itertools.permutations(range(n)):
            assert from_cycles(n, cycles(t)) == t
            assert read_cycles(cycle_string(t), n) == t
            assert from_cycles(n, cycles(t, include_fixed=True)) == t
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string(read_cycles("(3 4)(0 1 2)", 5)) == "(0 1 2)(3 4)"
    assert cycles((1, 0, 2), include_fixed=True) == [(0, 1), (2,)]


def test_from_cycles_rejects_bad_points():
    with pytest.raises(ValueError, match="out of range"):
        from_cycles(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        from_cycles(3, [(0, -1)])
    with pytest.raises(ValueError, match="two cycles"):
        from_cycles(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="two cycles"):
        from_cycles(3, [(0, 1, 0)])
    # through the DSL: the degree is max point + 1, so only a negative
    # point is out of range
    with pytest.raises(DslError, match="out of range"):
        build_text("gens[(0 -1)]")
    with pytest.raises(DslError, match="two cycles"):
        build_text("gens[(0 1)(1 2)]")
    with pytest.raises(DslError, match="two cycles"):
        build_text("gens[(0 1 2 0)]")


def test_semiregular_cycle_type():
    assert uniform_cycle_length(tuple(range(4))) == 1
    assert uniform_cycle_length(read_cycles("(0 1)(2 3)", 4)) == 2
    assert uniform_cycle_length(read_cycles("(0 1 2)", 4)) is None


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
    assert all(inverse(p) in members for p in s)
    # dropping the identity leaves a set the group holder refuses
    with pytest.raises(ValueError):
        FiniteGroup.from_permutations(s[1:])


# -- the post-hoc predicate: regular and normalized --------------------------


def images(*texts: str, degree: int = 4) -> list[tuple[int, ...]]:
    return [read_cycles(t, degree) for t in texts]


KLEIN = frozenset(images("()", "(0 1)(2 3)", "(0 2)(1 3)", "(0 3)(1 2)"))
C4 = frozenset(elements("gens[(0 1 2 3)]"))
S4 = elements("gens[(0 1), (0 1 2 3)]")


def pairs(perms) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(p, inverse(p)) for p in perms]


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
    g = read_cycles("(0 1)", 4)  # its own inverse
    conj = {brute_compose(brute_compose(g, p), g) for p in C4}
    assert conj != set(C4)
    assert not _regular_normalized(C4, 4, S4_GENS)


def test_normalized_by_generators_suffices():
    assert len(S4) == 24
    for s in (KLEIN, C4):
        assert _regular_normalized(s, 4, S4_GENS) == \
            _regular_normalized(s, 4, pairs(S4))
