"""Finite groups as indexed element tables.

Constructors for the standard families, direct and semidirect products,
holomorphs, automorphism groups, and subgroup machinery.  Elements are
indexed 0..order-1 with index 0 the identity; all arithmetic happens on
indices, and the raw element values are used only for construction,
canonical ordering and display.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded
from .perms import compose, cycles, inverse

TABLE_MAX = 256          # orders up to this get an eager Cayley table, built
                         # from k generator rows: k*order raw products
GROUP_ORDER_CAP = 10_000
AUT_CAP = 120
SUBGROUP_CAP = 200
ISO_CAP = 200


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteGroup:
    """A finite group with explicit element set and multiplication.

    Groups of order up to TABLE_MAX get an eager Cayley table, built from
    the rows of a few generators by composing integer rows (see
    `_cayley_rows`): k*|G| raw products for k generators, not |G|^2, and
    the element set is checked to be closed.  Larger groups (e.g.
    holomorphs of order in the thousands) multiply on demand from the raw
    pair representation and cache the results; there a product or inverse
    outside the element set raises the table's ValueError.

    Instances are immutable after construction.
    """

    def __init__(self, elements: Iterable, mul: Callable, inv: Callable | None = None,
                 *, identity, name: str | None = None, perm_degree: int | None = None):
        # at most one element past the cap is ever read
        raw = list(itertools.islice(elements, GROUP_ORDER_CAP + 1))
        if len(raw) == 0:
            raise ValueError("a group needs at least one element")
        if len(raw) > GROUP_ORDER_CAP:
            raise CapExceeded(f"group order exceeds cap {GROUP_ORDER_CAP}")
        raw.sort()
        try:
            raw.remove(identity)
        except ValueError:
            raise ValueError("identity is not among the elements") from None
        raw.insert(0, identity)
        self._raw = tuple(raw)
        self._index = {r: i for i, r in enumerate(self._raw)}
        if len(self._index) != len(self._raw):
            raise ValueError("duplicate elements")
        self._mul_raw = mul
        self._inv_raw = inv
        self.name = name or f"G{len(raw)}"
        self.perm_degree = perm_degree
        self.distinguished: tuple[int, ...] | None = None
        m = len(self._raw)
        self._inv_list: list[int | None] = [None] * m
        self._orders: list[int | None] = [None] * m
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._table: list[list[int]] | None = None
        if m <= TABLE_MAX:
            self._table = self._cayley_rows()
        self._gens: tuple[int, ...] | None = None
        self._classes: list[tuple[int, ...]] | None = None
        self._aut: FiniteGroup | None = None
        self._fp: tuple | None = None

    @classmethod
    def from_permutations(cls, perms: Iterable[tuple[int, ...]],
                          name: str | None = None) -> FiniteGroup:
        """Group of permutations given as image tuples (must be closed)."""
        elems = [tuple(p) for p in itertools.islice(perms, GROUP_ORDER_CAP + 1)]
        n = len(elems[0]) if elems else 0  # the constructor refuses no elements
        return cls(elems, compose, inverse, identity=tuple(range(n)), name=name,
                   perm_degree=n)

    def _cayley_rows(self) -> list[list[int]]:
        """The Cayley table, row x holding the indices of x*z for every z.

        The first element not yet reached becomes a generator g and costs
        one raw product per element; every other row is composed from
        rows already known, as row(g*x) = row(g) o row(x), since
        (g*x)*z = g*(x*z).  Reaching the elements breadth-first from the
        identity takes k*|G| raw products for k generators, not |G|^2.

        The generator rows also check closure.  Every element is a
        generator or is reached from the identity by left multiplication
        by generators, so it lies in the group they generate; and if each
        generator row stays inside the set, the set, which holds the
        identity, contains that whole group.  So the set is the group.
        """
        raw, idx = self._raw, self._index
        mul = self._mul_raw
        rows: list[list[int] | None] = [None] * len(raw)
        rows[0] = list(range(len(raw)))
        reached = [0]
        gens: list[list[int]] = []
        for g in range(1, len(raw)):
            if rows[g] is not None:
                continue
            a = raw[g]
            row = [idx.get(mul(a, b)) for b in raw]
            if None in row:
                raise ValueError("the elements are not closed under the product")
            gens.append(row)
            rows[g] = row
            reached.append(g)
            for x in reached:
                for r in gens:
                    y = r[x]
                    if rows[y] is None:
                        rows[y] = [r[v] for v in rows[x]]
                        reached.append(y)
        return rows

    # -- element access ------------------------------------------------

    def __len__(self) -> int:
        return len(self._raw)

    @property
    def order(self) -> int:
        return len(self._raw)

    def raw(self, i: int):
        return self._raw[i]

    def raw_elements(self) -> tuple:
        return self._raw

    def index_of(self, value) -> int:
        return self._index[value]

    def label(self, i: int) -> str:
        return str(self._raw[i])

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order {len(self._raw)}>"

    # -- arithmetic ------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        key = (i, j)
        out = self._mul_cache.get(key)
        if out is None:
            out = self._lookup(self._mul_raw(self._raw[i], self._raw[j]))
            self._mul_cache[key] = out
        return out

    def _lookup(self, value) -> int:
        """The index of a product or inverse computed on demand; a value
        outside the element set means the set is not a group."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError("the elements are not closed under the product") \
                from None

    def inv(self, i: int) -> int:
        out = self._inv_list[i]
        if out is None:
            if self._inv_raw is not None:
                out = self._lookup(self._inv_raw(self._raw[i]))
            elif self._table is not None:
                out = self._table[i].index(0)
            else:
                out = next(j for j in range(len(self._raw)) if self.mul(i, j) == 0)
            self._inv_list[i] = out
        return out

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, i: int) -> int:
        """The order m of i; the walk over its powers also records the
        order m / gcd(k, m) of each power i^k."""
        out = self._orders[i]
        if out is None:
            powers = [i]
            while powers[-1] != 0:
                powers.append(self.mul(powers[-1], i))
            out = len(powers)
            for k, x in enumerate(powers, start=1):
                self._orders[x] = out // math.gcd(k, out)
        return out

    def is_abelian(self) -> bool:
        gens = self.generators()
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def center(self) -> tuple[int, ...]:
        gens = self.generators()
        return tuple(x for x in range(len(self))
                     if all(self.mul(x, g) == self.mul(g, x) for g in gens))

    # -- generation and closure -------------------------------------------

    def generators(self) -> tuple[int, ...]:
        """A small generating sequence, greedy by descending element order."""
        if self._gens is None:
            m = len(self)
            gens: list[int] = []
            have: frozenset[int] = frozenset({0})
            for i in sorted(range(1, m), key=lambda i: (-self.element_order(i), i)):
                if i not in have:
                    gens.append(i)
                    have = self.closure_of(gens)
                    if len(have) == m:
                        break
            self._gens = tuple(gens)
        return self._gens

    def closure_of(self, indices: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by `indices` (Dimino's algorithm).

        Each index outside the subgroup H built so far extends it to a
        union of right cosets H r: a representative times a generator lies
        in a coset already found or starts a new one.
        """
        mul = self.mul
        els = {0}
        gens: list[int] = []
        for x in sorted(set(indices)):
            if x in els:
                continue
            gens.append(x)
            sub = tuple(els)
            els.update(mul(h, x) for h in sub)
            reps = [x]
            for r in reps:
                for g in gens:
                    y = mul(r, g)
                    if y not in els:
                        els.update(mul(h, y) for h in sub)
                        reps.append(y)
        return frozenset(els)

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, members: Iterable[int]) -> SubgroupRef:
        return SubgroupRef(self, members)

    def trivial_subgroup(self) -> SubgroupRef:
        return SubgroupRef(self, (0,), _checked=True)

    def full_subgroup(self) -> SubgroupRef:
        return SubgroupRef(self, range(len(self)), _checked=True)

    def subgroups(self) -> list[SubgroupRef]:
        """All subgroups, each exactly once, sorted by (order, member set)."""
        m = len(self)
        if m > SUBGROUP_CAP:
            raise CapExceeded(f"subgroup enumeration capped at order {SUBGROUP_CAP}, "
                              f"got {m}")
        return self.stable_subgroups(())

    def stable_subgroups(self, maps: Iterable[tuple[int, ...]]) -> list[SubgroupRef]:
        """The subgroups that every automorphism table in `maps` carries
        onto itself, sorted by (order, member set).

        A stable subgroup is the join of the closures of the orbits of
        `maps` on its elements, and each such closure is stable; so the
        orbit closures are joined until no new subgroup appears.
        """
        atoms = {self.closure_of(orbit) for orbit in self._orbits(maps)}
        subs = set(atoms)
        frontier = list(atoms)
        while frontier:
            new = []
            for a in frontier:
                for b in atoms:
                    if b <= a:
                        continue
                    j = self.closure_of(a | b)
                    if j not in subs:
                        subs.add(j)
                        new.append(j)
            frontier = new
        refs = [SubgroupRef(self, s, _checked=True) for s in subs]
        refs.sort(key=lambda r: r.sort_key())
        return refs

    def _orbits(self, maps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The orbits of the group generated by the permutation tables
        `maps`, each sorted, in order of their least element."""
        maps = list(maps)
        seen = [False] * len(self)
        orbits = []
        for i in range(len(self)):
            if seen[i]:
                continue
            seen[i] = True
            orbit = [i]
            for x in orbit:
                for t in maps:
                    y = t[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            orbits.append(tuple(sorted(orbit)))
        return orbits

    def _inner_maps(self) -> list[tuple[int, ...]]:
        return [inner_automorphism(self, x) for x in self.generators()]

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._classes is None:
            self._classes = self._orbits(self._inner_maps())
        return self._classes

    def normal_subgroups(self) -> list[SubgroupRef]:
        """All normal subgroups: those stable under inner automorphisms."""
        return self.stable_subgroups(self._inner_maps())


class SubgroupRef:
    """A subgroup of a parent group, stored as a sorted tuple of indices."""

    __slots__ = ("parent", "members", "_set")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], *,
                 _checked: bool = False):
        members = tuple(sorted(set(members)))
        self.parent = parent
        self.members = members
        self._set = frozenset(members)
        if not _checked:
            if 0 not in self._set:
                raise ValueError("subgroup must contain the identity")
            # a set holding the identity is a subgroup iff it is its closure
            if parent.closure_of(members) != self._set:
                raise ValueError("set is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self._set

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupRef) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"<SubgroupRef order {self.order} of {self.parent.name}>"

    def sort_key(self) -> tuple:
        return (len(self.members), self.members)

    def is_trivial(self) -> bool:
        return self.members == (0,)

    def is_full(self) -> bool:
        return len(self.members) == len(self.parent)

    def is_normal(self) -> bool:
        g = self.parent
        return all(g.conj(gen, x) in self._set
                   for gen in g.generators() for x in self.members)

    def as_group(self, name: str | None = None) -> FiniteGroup:
        g = self.parent
        return FiniteGroup([g.raw(i) for i in self.members], g._mul_raw, g._inv_raw,
                           identity=g.raw(0), name=name or f"{g.name}-sub{self.order}",
                           perm_degree=g.perm_degree)


# -- constructors -----------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, lambda a: (-a) % n,
                       identity=0, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the regular n-gon)."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")

    def mul(x, y):
        a, s = x
        b, t = y
        return ((a + b) % n if s == 0 else (a - b) % n, s ^ t)

    def inv(x):
        a, s = x
        return ((-a) % n if s == 0 else a, s)

    elems = ((a, s) for a in range(n) for s in (0, 1))
    return FiniteGroup(elems, mul, inv, identity=(0, 0), name=f"D{n}")


def symmetric(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("symmetric group needs m >= 1")
    return FiniteGroup.from_permutations(itertools.permutations(range(m)),
                                         name=f"S{m}")


def _parity(p: tuple[int, ...]) -> int:
    return sum(len(c) - 1 for c in cycles(p)) & 1


def alternating(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("alternating group needs m >= 1")
    evens = (p for p in itertools.permutations(range(m)) if _parity(p) == 0)
    return FiniteGroup.from_permutations(evens, name=f"A{m}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z/pZ)^k for p prime."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("k must be >= 1")
    elems = itertools.product(range(p), repeat=k)

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(a):
        return tuple((-x) % p for x in a)

    return FiniteGroup(elems, add, neg, identity=(0,) * k, name=f"E({p},{k})")


def dicyclic(m: int) -> FiniteGroup:
    """Dicyclic group of order 4m: <a, b | a^2m = 1, b^2 = a^m, bab^-1 = a^-1>."""
    if m < 2:
        raise ValueError("dicyclic group needs m >= 2")
    n = 2 * m

    def mul(x, y):
        a, s = x
        b, t = y
        if s == 0:
            return ((a + b) % n, t)
        if t == 0:
            return ((a - b) % n, 1)
        return ((a - b + m) % n, 0)

    def inv(x):
        a, s = x
        if s == 0:
            return ((-a) % n, 0)
        return ((a + m) % n, 1)

    name = f"Q{4 * m}" if 4 * m & (4 * m - 1) == 0 else f"Dic{m}"
    elems = ((a, s) for a in range(n) for s in (0, 1))
    return FiniteGroup(elems, mul, inv, identity=(0, 0), name=name)


def quaternion(order: int) -> FiniteGroup:
    """Generalized quaternion group of 2-power order >= 8."""
    if order < 8 or order & (order - 1):
        raise ValueError(f"quaternion group order must be a power of 2 >= 8, got {order}")
    return dicyclic(order // 4)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    if len(a) * len(b) > GROUP_ORDER_CAP:
        raise CapExceeded(f"product order {len(a) * len(b)} exceeds cap")

    def mul(x, y):
        return (a.mul(x[0], y[0]), b.mul(x[1], y[1]))

    def inv(x):
        return (a.inv(x[0]), b.inv(x[1]))

    elems = itertools.product(range(len(a)), range(len(b)))
    return FiniteGroup(elems, mul, inv, identity=(0, 0),
                       name=f"{a.name} x {b.name}")


def _is_automorphism_map(g: FiniteGroup, t: tuple[int, ...]) -> bool:
    m = len(g)
    if len(set(t)) != m or t[0] != 0:
        return False
    return all(t[g.mul(a, b)] == g.mul(t[a], t[b]) for a in range(m) for b in range(m))


def semidirect_product(n: FiniteGroup, h: FiniteGroup,
                       tables: Iterable[tuple[int, ...]],
                       name: str | None = None) -> FiniteGroup:
    """Semidirect product with law (x, s)(y, t) = (x * tables[s][y], s t).

    ``tables[s]`` is the image tuple of h's element s on n's indices.  The
    checks: one permutation per element of h, ``tables[0]`` the identity, the
    table of each generator a of h an automorphism of n, and
    ``tables[a b] == tables[a] o tables[b]`` for every b.  They suffice:
    every element of h is a word a1 ... ak in the generators, so by
    induction on k, ``tables[a1 ... ak y] = tables[a1] o ... o tables[ak] o
    tables[y]`` for every y.  With y = 1 each table is a product of
    automorphisms, hence one; and s -> tables[s] is a homomorphism.
    """
    tables = [tuple(t) for t in tables]
    ident = tuple(range(len(n)))
    if len(tables) != len(h) or any(tuple(sorted(t)) != ident for t in tables):
        raise ValueError("one permutation of the base group's indices per "
                         "element of the acting group required")
    if tables[0] != ident:
        raise ValueError("the identity must act as the identity")
    for a in h.generators():
        if not _is_automorphism_map(n, tables[a]):
            raise ValueError("the action is not by automorphisms of the base group")
        for b in range(len(h)):
            if tables[h.mul(a, b)] != compose(tables[a], tables[b]):
                raise ValueError("the action tables are not a homomorphism")
    if len(n) * len(h) > GROUP_ORDER_CAP:
        raise CapExceeded(f"product order {len(n) * len(h)} exceeds cap")

    def mul(u, v):
        x, s = u
        y, t = v
        return (n.mul(x, tables[s][y]), h.mul(s, t))

    def inv(u):
        x, s = u
        si = h.inv(s)
        return (tables[si][n.inv(x)], si)

    elems = itertools.product(range(len(n)), range(len(h)))
    g = FiniteGroup(elems, mul, inv, identity=(0, 0),
                    name=name or f"{n.name} : {h.name}")
    g.distinguished = tuple(sorted(g.index_of((0, s)) for s in range(len(h))))
    return g


# -- automorphisms ------------------------------------------------------------


def _fingerprint(g: FiniteGroup) -> tuple:
    """Isomorphism invariants of g, computed once per group."""
    if g._fp is None:
        hist: dict[int, int] = {}
        for i in range(len(g)):
            o = g.element_order(i)
            hist[o] = hist.get(o, 0) + 1
        class_sizes = tuple(sorted(len(c) for c in g.conjugacy_classes()))
        g._fp = (len(g), tuple(sorted(hist.items())), g.is_abelian(),
                 len(g.center()), class_sizes)
    return g._fp


def _iso_image_maps(a: FiniteGroup, b: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Yield the image tables of all isomorphisms a -> b.

    Backtracks over images of a generating sequence of ``a``, pruning by
    element order, and extends each assignment over the generated subgroup
    with consistency and injectivity checks.
    """
    m = len(a)
    if len(b) != m or _fingerprint(a) != _fingerprint(b):
        return
    gens = a.generators()
    by_order: dict[int, list[int]] = {}
    for i in range(m):
        by_order.setdefault(b.element_order(i), []).append(i)

    def extend(assigned: list[int]) -> dict[int, int] | None:
        mapping = {0: 0}
        frontier = [0]
        pairs = list(zip(gens[: len(assigned)], assigned))
        while frontier:
            nxt = []
            for x in frontier:
                bx = mapping[x]
                for gen, img in pairs:
                    y = a.mul(x, gen)
                    w = b.mul(bx, img)
                    seen = mapping.get(y)
                    if seen is None:
                        mapping[y] = w
                        nxt.append(y)
                    elif seen != w:
                        return None
            frontier = nxt
        if len(set(mapping.values())) != len(mapping):
            return None
        return mapping

    def place(level: int, assigned: list[int]) -> Iterator[tuple[int, ...]]:
        if level == len(gens):
            mapping = extend(assigned)
            if mapping is not None and len(mapping) == m:
                yield tuple(mapping[i] for i in range(m))
            return
        for cand in by_order.get(a.element_order(gens[level]), ()):
            assigned.append(cand)
            if extend(assigned) is not None:
                yield from place(level + 1, assigned)
            assigned.pop()

    if not gens:  # trivial group
        yield (0,)
        return
    yield from place(0, [])


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    if max(len(a), len(b)) > ISO_CAP:
        raise CapExceeded(f"isomorphism test capped at order {ISO_CAP}")
    if a is b:
        return True
    return next(_iso_image_maps(a, b), None) is not None


def automorphism_group(g: FiniteGroup) -> FiniteGroup:
    """Aut(g) as a group whose raw elements are image tuples on g's indices.

    The raw tuple of each element is its action table on ``g``.
    """
    if len(g) > AUT_CAP:
        raise CapExceeded(f"automorphism search capped at order {AUT_CAP}, "
                          f"got {len(g)}")
    if g._aut is None:
        # each isomorphism is yielded once (its generator images fix it),
        # and the constructor reads at most one map past the order cap
        g._aut = FiniteGroup(_iso_image_maps(g, g), compose, inverse,
                             identity=tuple(range(len(g))), name=f"Aut({g.name})")
    return g._aut


def inner_automorphism(g: FiniteGroup, x: int) -> tuple[int, ...]:
    """The action table of conjugation by x."""
    return tuple(g.conj(x, y) for y in range(len(g)))


def holomorph(n: FiniteGroup) -> FiniteGroup:
    """The semidirect product of n by its full automorphism group."""
    aut = automorphism_group(n)
    return semidirect_product(n, aut, aut.raw_elements(), name=f"Hol({n.name})")


def holomorph_copies(n: FiniteGroup) -> tuple[FiniteGroup, SubgroupRef, SubgroupRef]:
    """The two canonical normal copies of ``n`` inside its holomorph.

    Returns (hol, translations, twisted): the translation copy {(g, 1)} and
    the twisted copy {(g^-1, conj_g)} built from inner automorphisms.  The
    two coincide exactly when ``n`` is abelian.
    """
    aut = automorphism_group(n)
    hol = holomorph(n)
    translations = [hol.index_of((x, 0)) for x in range(len(n))]
    twisted = [hol.index_of((n.inv(x), aut.index_of(inner_automorphism(n, x))))
               for x in range(len(n))]
    return (hol, SubgroupRef(hol, translations, _checked=True),
            SubgroupRef(hol, twisted, _checked=True))


# -- characteristic structure -------------------------------------------------


def characteristic_subgroups(g: FiniteGroup) -> list[SubgroupRef]:
    """Subgroups stable under every automorphism of g."""
    aut = automorphism_group(g)
    return g.stable_subgroups(aut.raw(i) for i in aut.generators())


def is_characteristically_simple(g: FiniteGroup) -> bool:
    if len(g) == 1:
        return False
    return len(characteristic_subgroups(g)) == 2


def abelian_invariants(g: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors (d1 | d2 | ...) of an abelian group, ascending."""
    if not g.is_abelian():
        raise ValueError("invariant factors are defined for abelian groups")
    m = len(g)
    primary: dict[int, list[int]] = {}
    mm = m
    p = 2
    while p * p <= mm:
        if mm % p == 0:
            while mm % p == 0:
                mm //= p
            primary[p] = []
        p += 1
    if mm > 1:
        primary[mm] = []
    orders = [g.element_order(i) for i in range(m)]
    for p in primary:
        # counts[j] = #{x : order(x) divides p^j}; the increments of
        # log_p(counts) give the number of cyclic factors of order >= p^j.
        counts = [1]
        while counts[-1] < m:
            j = len(counts)
            c = sum(1 for o in orders if (p ** j) % o == 0)
            if c == counts[-1]:
                break
            counts.append(c)
        at_least = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            at_least.append(e)  # number of factors with exponent >= j
        exps = []
        for j, cnt in enumerate(at_least, start=1):
            nxt = at_least[j] if j < len(at_least) else 0
            exps.extend([j] * (cnt - nxt))
        primary[p] = sorted(exps, reverse=True)
    factors = []
    while any(primary.values()):
        d = 1
        for p, exps in primary.items():
            if exps:
                d *= p ** exps.pop(0)
        factors.append(d)
    return tuple(sorted(factors))
