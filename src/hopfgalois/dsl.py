"""A small expression language for building groups.

Grammar (whitespace-insensitive)::

    expression := term ('x' term)*
    term       := NAME '(' args ')' | 'gens' '[' perm (',' perm)* ']'
                | '(' expression ')'
    args       := (arg (',' arg)*)?
    arg        := INT | expression | matrix | '[' matrix (',' matrix)* ']'
    matrix     := '[' row (',' row)* ']'   row := '[' INT (',' INT)* ']'
    perm       := cycle-notation permutation, e.g. (0 1 2)(3 4)

Constructors: C(n), D(n), S(m), A(m), E(p,k), Q(2^k), Hol(expr),
SD(E(p,k), matgrp(p,k,[M...])), matgrp(p,k,[M...]), gens[...], and the
infix 'x' for direct products.  SD and Hol tag the acting part so an
extension problem can be formed directly from the built group.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .groups import (FiniteGroup, SubgroupRef, alternating, cyclic, dihedral,
                     direct_product, elementary_abelian, generated, holomorph,
                     quaternion, semidirect_product, symmetric)
from .perms import compose, format_cycles, from_cycles


# The integer families: constructor name -> (builder, number of arguments).
_FAMILIES = {"C": (cyclic, 1), "D": (dihedral, 1), "S": (symmetric, 1),
             "A": (alternating, 1), "Q": (quaternion, 1),
             "E": (elementary_abelian, 2)}


class DslError(ValueError):
    """Syntax or construction error, annotated with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# -- AST ---------------------------------------------------------------

# Nodes are named tuples, which are created at import about seven times
# faster than frozen dataclasses.  Being tuples, two nodes of different
# types with equal fields compare equal; `repr` tells them apart.


class IntArg(NamedTuple):
    value: int


class Matrix(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class MatrixList(NamedTuple):
    matrices: tuple[Matrix, ...]


class Gens(NamedTuple):
    perms: tuple[tuple[tuple[int, ...], ...], ...]  # each perm as cycles


class Call(NamedTuple):
    name: str
    args: tuple


class Product(NamedTuple):
    factors: tuple


GroupExpr = Call | Product | Gens


# -- lexer / parser -----------------------------------------------------

_TOKEN = re.compile(r"\s+|-?\d+|[A-Za-z_]\w*|[()\[\],]|.")


class _Tok(NamedTuple):
    kind: str  # INT NAME ( ) [ ] , END
    text: str
    line: int
    column: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        tok = m.group()
        at = (line, col)
        for ch in tok:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        if tok.isspace():
            continue
        if re.fullmatch(r"-?\d+", tok):
            toks.append(_Tok("INT", tok, *at))
        elif tok[0] == "x" and tok[1:] in _Parser.KNOWN:
            # the infix 'x' written against a constructor, as in C(2)xC(3)
            toks.append(_Tok("NAME", "x", *at))
            toks.append(_Tok("NAME", tok[1:], at[0], at[1] + 1))
        elif re.fullmatch(r"[A-Za-z_]\w*", tok):
            toks.append(_Tok("NAME", tok, *at))
        elif tok in "()[],":
            toks.append(_Tok(tok, tok, *at))
        else:
            raise DslError(f"unexpected character {tok!r}", *at)
    toks.append(_Tok("END", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise DslError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                           t.line, t.column)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise DslError(message, t.line, t.column)

    def parse_list(self, item, close: str = "]") -> tuple:
        """item (',' item)* and then `close`."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        self.expect(close)
        return tuple(items)

    def parse_expression(self):
        factors = [self.parse_term()]
        while self.peek().kind == "NAME" and self.peek().text == "x":
            self.next()
            factors.append(self.parse_term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    KNOWN = frozenset({*_FAMILIES, "SD", "Hol", "matgrp", "gens"})

    def parse_term(self):
        t = self.peek()
        if t.kind == "(":
            self.next()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if t.kind != "NAME":
            self.fail(f"expected a constructor name, found {t.text or 'end of input'!r}")
        if t.text not in self.KNOWN:
            self.fail(f"unknown constructor {t.text!r}")
        name = self.next().text
        if name == "gens":
            return self.parse_gens()
        self.expect("(")
        if self.peek().kind == ")":
            self.next()
            return Call(name, ())
        return Call(name, self.parse_list(self.parse_arg, ")"))

    def parse_arg(self):
        t = self.peek()
        if t.kind == "INT":
            return IntArg(int(self.next().text))
        if t.kind == "[":
            return self.parse_bracketed()
        return self.parse_expression()

    def parse_bracketed(self):
        # lookahead distinguishes a matrix [[1,0],[0,1]] from a matrix list
        # [[[..]], [[..]]] by the token after the second '['
        if (self.toks[self.pos + 1].kind == "[" and
                self.toks[self.pos + 2].kind == "["):
            self.expect("[")
            return MatrixList(self.parse_list(self.parse_matrix))
        return self.parse_matrix()

    def parse_matrix(self) -> Matrix:
        self.expect("[")
        rows = self.parse_list(self.parse_row)
        if any(len(r) != len(rows) for r in rows):
            self.fail("matrix must be square")
        return Matrix(rows)

    def parse_row(self) -> tuple[int, ...]:
        self.expect("[")
        return self.parse_list(lambda: int(self.expect("INT").text))

    def parse_gens(self) -> Gens:
        self.expect("[")
        return Gens(self.parse_list(self.parse_perm))

    def parse_perm(self) -> tuple[tuple[int, ...], ...]:
        cycles = []
        if self.peek().kind != "(":
            self.fail("expected a permutation in cycle notation")
        while self.peek().kind == "(":
            self.next()
            cycle = []
            while self.peek().kind == "INT":
                cycle.append(int(self.next().text))
            self.expect(")")
            if cycle:
                cycles.append(tuple(cycle))
        return tuple(cycles)


def parse(text: str) -> GroupExpr:
    parser = _Parser(text)
    expr = parser.parse_expression()
    t = parser.peek()
    if t.kind != "END":
        raise DslError(f"unexpected trailing input {t.text!r}", t.line, t.column)
    if isinstance(expr, (IntArg, Matrix, MatrixList)):
        raise DslError("expected a group expression", 1, 1)
    return expr


def render(expr) -> str:
    """Canonical text for an AST; parse(render(e)) == e."""
    if isinstance(expr, IntArg):
        return str(expr.value)
    if isinstance(expr, Matrix):
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in expr.rows) + "]"
    if isinstance(expr, MatrixList):
        return "[" + ",".join(render(m) for m in expr.matrices) + "]"
    if isinstance(expr, Gens):
        return "gens[" + ", ".join(format_cycles(p) for p in expr.perms) + "]"
    if isinstance(expr, Product):
        return " x ".join(render(f) for f in expr.factors)
    if isinstance(expr, Call):
        return f"{expr.name}(" + ", ".join(render(a) for a in expr.args) + ")"
    raise TypeError(f"not an AST node: {expr!r}")


# -- evaluation ----------------------------------------------------------


class BuildResult(NamedTuple):
    """A built group; ``complement`` is the tagged acting subgroup G' when
    the expression was a semidirect product or holomorph."""

    group: FiniteGroup
    complement: SubgroupRef | None = None


def _err(message: str) -> DslError:
    return DslError(message, 1, 1)


def _int_args(call: Call, count: int) -> list[int]:
    if len(call.args) != count or not all(isinstance(a, IntArg) for a in call.args):
        raise _err(f"{call.name}() takes {count} integer argument(s)")
    return [a.value for a in call.args]


def _matgrp_args(call: Call) -> tuple[int, int, MatrixList]:
    """(p, k, matrices) of a matgrp(p, k, [matrices]) call, checked before
    any is read: two integers, then one matrix or a list of them."""
    args = call.args
    mats = args[2] if len(args) == 3 else None
    if isinstance(mats, Matrix):
        mats = MatrixList((mats,))
    if not (isinstance(mats, MatrixList) and isinstance(args[0], IntArg)
            and isinstance(args[1], IntArg)):
        raise _err("matgrp(p, k, [matrices]) expected")
    return args[0].value, args[1].value, mats


def _mat_mod(mat: Matrix, p: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(v % p for v in row) for row in mat.rows)


def _mat_mul(a, b, p):
    k = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p
                       for j in range(k)) for i in range(k))


def _is_invertible(mat, p) -> bool:
    k = len(mat)
    m = [list(row) for row in mat]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] % p), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, k):
            f = (m[r][col] * inv) % p
            m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return True


def _matrix_group(p: int, k: int, mats: MatrixList) -> FiniteGroup:
    gens = []
    for mat in mats.matrices:
        if len(mat.rows) != k:
            raise _err(f"matgrp expects {k}x{k} matrices")
        m = _mat_mod(mat, p)
        if not _is_invertible(m, p):
            raise _err(f"matrix {list(map(list, mat.rows))} is not invertible mod {p}")
        gens.append(m)
    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))

    def mul(a, b):
        return _mat_mul(a, b, p)

    return FiniteGroup(generated(gens, ident, mul), mul, identity=ident,
                       name=f"matgrp({p},{k})")


def _matrix_tables(h: FiniteGroup, base: FiniteGroup, p: int,
                   k: int) -> Iterator[tuple[int, ...]]:
    """Yield the action table of each matrix of h on the indices of E(p, k).

    Lazily, one table at a time: `semidirect_product` checks the order cap
    before it reads any, so an oversized product builds none.  The action
    is faithful without a check: two matrices that differ mod p differ on
    some basis vector, so their tables differ.
    """
    for mat in h.raw_elements():
        table = []
        for v in base.raw_elements():
            w = tuple(sum(mat[r][c] * v[c] for c in range(k)) % p for r in range(k))
            table.append(base.index_of(w))
        yield tuple(table)


def build(expr) -> BuildResult:
    """Evaluate an AST to a group (plus the tagged complement, if any)."""
    try:
        return _build(expr)
    except DslError:
        raise
    except ValueError as exc:
        raise _err(str(exc)) from exc


def _build(expr) -> BuildResult:
    if isinstance(expr, Product):
        parts = [build(f).group for f in expr.factors]
        group = parts[0]
        for part in parts[1:]:
            group = direct_product(group, part)
        return BuildResult(group)
    if isinstance(expr, Gens):
        if not expr.perms:
            raise _err("gens[...] needs at least one permutation")
        degree = max((max(c) for p in expr.perms for c in p if c), default=-1) + 1
        if degree < 1:
            raise _err("cannot infer the degree of gens[()]")
        gens = [from_cycles(degree, p) for p in expr.perms]
        closure = generated(gens, tuple(range(degree)), compose)
        group = FiniteGroup.from_permutations(closure, name=f"gens(deg {degree})")
        return BuildResult(group)
    if not isinstance(expr, Call):
        raise _err(f"expected a group expression, found {expr!r}")

    name = expr.name
    if name in _FAMILIES:
        family, count = _FAMILIES[name]
        return BuildResult(family(*_int_args(expr, count)))
    if name == "Hol":
        if len(expr.args) != 1:
            raise _err("Hol() takes one group expression")
        inner = build(expr.args[0]).group
        group = holomorph(inner)
        return BuildResult(group, group.subgroup(group.distinguished))
    if name == "matgrp":
        p, k, mats = _matgrp_args(expr)
        elementary_abelian(p, k)  # validates p prime, k >= 1
        return BuildResult(_matrix_group(p, k, mats))
    if name == "SD":
        if len(expr.args) != 2:
            raise _err("SD(E(p,k), matgrp(p,k,[...])) expected")
        base_expr, act_expr = expr.args
        if not (isinstance(base_expr, Call) and base_expr.name == "E"):
            raise _err("SD base must be an elementary abelian group E(p, k)")
        if not (isinstance(act_expr, Call) and act_expr.name == "matgrp"):
            raise _err("SD action must be a matrix group matgrp(p, k, [...])")
        p, k = _int_args(base_expr, 2)
        ap, ak, mats = _matgrp_args(act_expr)
        if (p, k) != (ap, ak):
            raise _err(f"matgrp({ap},{ak}) does not act on E({p},{k})")
        base = elementary_abelian(p, k)
        h = _matrix_group(p, k, mats)
        group = semidirect_product(base, h, _matrix_tables(h, base, p, k))
        return BuildResult(group, group.subgroup(group.distinguished))
    raise _err(f"unknown constructor {name!r}")


def build_text(text: str) -> BuildResult:
    return build(parse(text))
