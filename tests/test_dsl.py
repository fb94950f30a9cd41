import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfgalois import are_isomorphic, alternating, elementary_abelian
from hopfgalois.dsl import (Call, DslError, Gens, IntArg, Matrix, MatrixList,
                            Product, build, build_text, parse, render)

from conftest import E24_EXPRS


def same(a, b):
    # nodes are named tuples, and tuples of equal fields compare equal
    # across node types; repr names every node's type
    return repr(a) == repr(b)


def test_parse_simple_calls():
    assert same(parse("S(4)"), Call("S", (IntArg(4),)))
    assert same(parse("E(2, 3)"), Call("E", (IntArg(2), IntArg(3))))
    assert same(parse("Hol(E(3,2))"), Call("Hol", (Call("E", (IntArg(3), IntArg(2))),)))
    # the strict check tells node types apart where == does not
    assert IntArg(4) == (4,) and not same(IntArg(4), (4,))


def test_parse_products():
    expr = parse("C(2) x C(3) x S(3)")
    assert isinstance(expr, Product) and len(expr.factors) == 3
    assert same(parse("(C(2) x C(3)) x S(3)"), Product(
        (Product((Call("C", (IntArg(2),)), Call("C", (IntArg(3),)))),
         Call("S", (IntArg(3),)))))


@pytest.mark.parametrize("text,spaced", [
    ("C(2)xC(3)", "C(2) x C(3)"),
    ("C(2)xgens[(0 1)]", "C(2) x gens[(0 1)]"),
    ("C(2) xHol(C(3))", "C(2) x Hol(C(3))"),
    ("C(2)xSD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))xQ(8)",
     "C(2) x SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]])) x Q(8)"),
])
def test_product_sign_against_a_constructor(text, spaced):
    # the grammar is whitespace-insensitive: 'x' written against the next
    # constructor is still the product sign
    assert same(parse(text), parse(spaced))


def test_parse_semidirect_with_matrices():
    expr = parse("SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))")
    assert isinstance(expr, Call) and expr.name == "SD"
    base, act = expr.args
    assert same(base, Call("E", (IntArg(2), IntArg(3))))
    assert act.name == "matgrp"
    assert same(act.args[2], MatrixList((Matrix(((1, 1, 1), (1, 1, 0), (1, 0, 0))),)))


def test_parse_gens():
    expr = parse("gens[(0 1 2 3), (0 1)]")
    assert same(expr, Gens((((0, 1, 2, 3),), ((0, 1),))))


def test_parse_negative_matrix_entries():
    expr = parse("matgrp(3,2,[[[0,1],[-1,0]]])")
    assert same(expr.args[2].matrices[0], Matrix(((0, 1), (-1, 0))))


def test_syntax_errors_carry_positions():
    with pytest.raises(DslError) as exc:
        parse("Hol(E(3,2)")
    assert exc.value.line == 1 and exc.value.column == 11
    with pytest.raises(DslError):
        parse("S(4) extra")
    with pytest.raises(DslError, match="unknown constructor"):
        parse("Frob(2)")
    # 'x' splits off only in front of a known constructor
    with pytest.raises(DslError, match="unexpected trailing input 'xFrob'"):
        parse("C(2)xFrob(3)")
    with pytest.raises(DslError):
        parse("S(4")
    with pytest.raises(DslError, match="column"):
        parse("S(@)")
    with pytest.raises(DslError):
        parse("gens[(0 1]")
    with pytest.raises(DslError):
        parse("gens[(0 1))]")


# random ASTs for the round-trip property
_leaf = st.sampled_from("CDSA").flatmap(
    lambda n: st.integers(min_value=1, max_value=9).map(
        lambda v: Call(n, (IntArg(v),))))
_gens = st.lists(
    st.lists(st.permutations(range(4)).map(lambda c: tuple(c)), min_size=1,
             max_size=2).map(tuple),
    min_size=1, max_size=2).map(lambda ps: Gens(tuple(ps)))
_expr = st.recursive(
    st.one_of(_leaf, _gens),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: Product(t)),
        inner.map(lambda e: Call("Hol", (e,)))),
    max_leaves=4)


def _flatten(expr):
    # parsing flattens product chains; normalize generated ASTs the same way
    if isinstance(expr, Product):
        factors = []
        for f in expr.factors:
            f = _flatten(f)
            if isinstance(f, Product):
                factors.extend(f.factors)
            else:
                factors.append(f)
        return Product(tuple(factors))
    if isinstance(expr, Call):
        return Call(expr.name, tuple(_flatten(a) if isinstance(a, (Call, Product, Gens))
                                     else a for a in expr.args))
    return expr


@given(_expr)
def test_render_parse_roundtrip(expr):
    expr = _flatten(expr)
    assert same(parse(render(expr)), expr)


def test_roundtrip_fixture_expressions():
    for text in ["S(4)", "C(8)", "E(2,2) x C(1)",
                 "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))",
                 "Hol(E(2,2))", "gens[(0 1 2 3), (1 3)]"]:
        assert same(parse(render(parse(text))), parse(text))


def test_build_families():
    assert len(build_text("C(8)").group) == 8
    assert len(build_text("D(4)").group) == 8
    assert len(build_text("Q(16)").group) == 16
    assert are_isomorphic(build_text("E(2,2) x C(1)").group,
                          elementary_abelian(2, 2))
    assert are_isomorphic(build_text("A(4)").group, alternating(4))


def test_build_tags_complements():
    b = build_text("SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))")
    assert len(b.group) == 36
    assert b.complement is not None and b.complement.order == 4
    # the acting part is cyclic of order 4
    orders = sorted(b.group.element_order(i) for i in b.complement.members)
    assert orders == [1, 2, 4, 4]

    b = build_text("Hol(E(2,2))")
    assert len(b.group) == 24 and b.complement.order == 6

    assert build_text("C(6)").complement is None


def test_build_order_56_case():
    b = build_text("SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))")
    assert len(b.group) == 56
    assert b.complement.order == 7


def test_build_e24_family():
    # GL(4,2) has order 20,160, over the group order cap: SD builds from the
    # matrices' own action tables and never builds it
    for order, expr in E24_EXPRS.items():
        b = build_text(expr)
        assert len(b.group) == order
        assert b.complement.order == order // 16


def test_matgrp_orders():
    assert len(build_text("matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]])").group) == 7
    assert len(build_text("matgrp(3,2,[[[0,1],[-1,0]]])").group) == 4
    # the full general linear group of the plane over F2
    g = build_text("matgrp(2,2,[[[1,1],[1,0]],[[0,1],[1,0]]])").group
    assert len(g) == 6


def test_matgrp_rejects_singular_matrix():
    with pytest.raises(DslError, match="invertible"):
        build_text("matgrp(2,2,[[[1,1],[1,1]]])")
    with pytest.raises(DslError):
        build_text("matgrp(4,2,[[[1,0],[0,1]]])")  # 4 is not prime


def test_sd_shape_validation():
    with pytest.raises(DslError, match="elementary abelian"):
        build_text("SD(C(4), matgrp(2,2,[[[1,1],[1,0]]]))")
    with pytest.raises(DslError, match="does not act"):
        build_text("SD(E(2,2), matgrp(3,2,[[[0,1],[-1,0]]]))")


def test_gens_build():
    b = build_text("gens[(0 1 2 3), (1 3)]")
    assert len(b.group) == 8  # dihedral action on the square
    assert b.group.perm_degree == 4
    assert len(build_text("gens[(0 1)]").group) == 2
    with pytest.raises(DslError, match="cannot infer the degree"):
        build_text("gens[()]")


def test_product_order_always_multiplies():
    b = build_text("SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))")
    assert len(b.group) == 4 * 3
    assert are_isomorphic(b.group, alternating(4))
