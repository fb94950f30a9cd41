"""Finite groups as indexed element tables.

A group is given by its elements and its product; inverses come from the
power walk.  Constructors for the standard families, direct and semidirect
products, holomorphs, automorphism groups, and subgroup machinery.
Elements are indexed 0..order-1 with index 0 the identity; all arithmetic
happens on indices, and the raw element values are used only for
construction, canonical ordering and display.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded
from .perms import compose

TABLE_MAX = 256          # orders up to this get an eager Cayley table, built
                         # from k generator rows: k*order raw products
GROUP_ORDER_CAP = 10_000
AUT_CAP = 120
SUBGROUP_CAP = 200
ISO_CAP = 200


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _divisors(n: int) -> list[int]:
    """The divisors d > 1 of n, ascending."""
    return [d for d in range(2, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    """Euler's phi(n) = n (1 - 1/p) (1 - 1/q) ... over the primes of n."""
    for p in _prime_factors(n):
        n -= n // p
    return n


def generated(gens: Iterable, identity, mul: Callable) -> dict:
    """The group generated by `gens` under `mul`, as a dict of its elements
    (values None) in the order a breadth-first walk from the identity,
    taking mul(g, a) for each generator g, first meets them.

    Raises CapExceeded once it has more than GROUP_ORDER_CAP elements (at
    most len(gens) past it), before anything is built from it.
    """
    gens = list(gens)
    els = {identity: None}
    queue = [identity]
    for a in queue:
        for g in gens:
            c = mul(g, a)
            if c not in els:
                els[c] = None
                queue.append(c)
        if len(els) > GROUP_ORDER_CAP:
            raise CapExceeded(f"group order exceeds cap {GROUP_ORDER_CAP}")
    return els


class FiniteGroup:
    """A finite group with explicit element set and multiplication.

    Groups of order up to TABLE_MAX get an eager Cayley table, built from
    the rows of a few generators by composing integer rows (see
    `_cayley_rows`): k*|G| raw products for k generators, not |G|^2, and
    the element set is checked to be closed.  Larger groups (e.g.
    holomorphs of order in the thousands) take each product on demand, one
    raw product and one index lookup; there a product outside the element
    set raises the table's ValueError.  Inverses are read from the walk
    over the powers of i that `element_order` takes.

    Instances are immutable after construction.
    """

    def __init__(self, elements: Iterable, mul: Callable, *, identity,
                 name: str | None = None, perm_degree: int | None = None):
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
        self.name = name or f"G{len(raw)}"
        self.perm_degree = perm_degree
        self.distinguished: tuple[int, ...] | None = None
        m = len(self._raw)
        self._inv_list: list[int | None] = [None] * m
        self._orders: list[int | None] = [None] * m
        self._table: list[tuple[int, ...]] | None = None
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
        return cls(elems, compose, identity=tuple(range(n)), name=name,
                   perm_degree=n)

    def _cayley_rows(self) -> list[tuple[int, ...]]:
        """The Cayley table, row x holding the indices of x*z for every z.

        The first element not yet reached becomes a generator g and costs
        one raw product per element; every other row is composed from
        rows already known, as row(g*x) = row(g) o row(x), since
        (g*x)*z = g*(x*z), one getter of row(x)'s entries applied to
        row(g).  Reaching the elements breadth-first from the
        identity takes k*|G| raw products for k generators, not |G|^2.

        The generator rows also check closure.  Every element is a
        generator or is reached from the identity by left multiplication
        by generators, so it lies in the group they generate; and if each
        generator row stays inside the set, the set, which holds the
        identity, contains that whole group.  So the set is the group.
        """
        raw, idx = self._raw, self._index
        mul = self._mul_raw
        rows: list[tuple[int, ...] | None] = [None] * len(raw)
        rows[0] = tuple(range(len(raw)))
        reached = [0]
        gens: list[tuple[int, ...]] = []
        for g in range(1, len(raw)):
            if rows[g] is not None:
                continue
            a = raw[g]
            row = tuple([idx.get(mul(a, b)) for b in raw])
            if None in row:
                raise ValueError("the elements are not closed under the product")
            gens.append(row)
            rows[g] = row
            reached.append(g)
            for x in reached:
                for r in gens:
                    y = r[x]
                    if rows[y] is None:
                        rows[y] = itemgetter(*rows[x])(r)
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

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order {len(self._raw)}>"

    # -- arithmetic ------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self._lookup(self._mul_raw(self._raw[i], self._raw[j]))

    def _lookup(self, value) -> int:
        """The index of a product computed on demand; a value outside the
        element set means the set is not a group."""
        try:
            return self._index[value]
        except KeyError:
            raise ValueError("the elements are not closed under the product") \
                from None

    def inv(self, i: int) -> int:
        if self._inv_list[i] is None:
            self.element_order(i)
        return self._inv_list[i]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, i: int) -> int:
        """The order m of i; the walk over its powers also records the
        order m / gcd(k, m) and the inverse i^(m-k) of each power i^k.

        With a table the walk follows i's own row, as i i^k = i^k i.
        Without one it multiplies raw values, one index lookup each."""
        out = self._orders[i]
        if out is None:
            powers = [i]
            if self._table is not None:
                row = self._table[i]
                while powers[-1] != 0:
                    powers.append(row[powers[-1]])
            else:
                mul, a, index = self._mul_raw, self._raw[i], self._index
                x = a
                try:
                    while powers[-1] != 0:
                        x = mul(x, a)
                        powers.append(index[x])
                except KeyError:
                    raise ValueError("the elements are not closed under the "
                                     "product") from None
            out = len(powers)
            orders, invs = self._orders, self._inv_list
            for k, x in enumerate(powers, start=1):
                orders[x] = out // math.gcd(k, out)
                invs[x] = powers[out - k - 1]
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
        """A small generating sequence, greedy by descending element order:
        each element, in that order, that the ones picked before it do not
        generate."""
        if self._gens is None:
            orders = list(map(self.element_order, range(len(self))))
            # stable, so equal orders keep ascending index
            greedy = sorted(range(1, len(self)), key=orders.__getitem__,
                            reverse=True)
            self._gens = self._grow((0,), (), greedy)[1]
        return self._gens

    def closure_of(self, indices: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by `indices`."""
        return self._grow((0,), (), indices)[0]

    def _grow(self, members: Iterable[int], gens: Iterable[int],
              extra: Iterable[int]) -> tuple[frozenset[int], tuple[int, ...]]:
        """(K, generators of K) for K the subgroup generated by the subgroup
        `members`, which `gens` generates, and the indices `extra`
        (Dimino's algorithm).

        Each index of `extra` outside the subgroup H built so far becomes a
        generator and extends H to a union of right cosets: a
        representative times a generator lies in a coset already found or
        starts a new one.
        """
        mul = self.mul
        els = set(members)
        gens = list(gens)
        for x in extra:
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
        return frozenset(els), tuple(gens)

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
        `maps` on its elements (the atoms), and each such closure is
        stable; so the atoms are joined depth first, a join of a and b
        growing a by the generators of b.  A subgroup reached with start s
        is walked once, at its first arrival, and joined only with the
        atoms of index >= s not inside it: the rule of
        `engine._combine_atoms`, whose docstring proves that it loses no
        subgroup.
        """
        atoms = list(dict(self._grow((0,), (), orbit)
                          for orbit in self._orbits(maps)).items())
        subs: dict[frozenset[int], tuple[int, ...]] = {}

        def extend(a, a_gens, start):
            if a in subs:
                return
            subs[a] = a_gens
            for j in range(start, len(atoms)):
                b, b_gens = atoms[j]
                if not b <= a:
                    extend(*self._grow(a, a_gens, b_gens), j + 1)

        for j, (a, a_gens) in enumerate(atoms):
            extend(a, a_gens, j + 1)
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
        return FiniteGroup([g.raw(i) for i in self.members], g._mul_raw,
                           identity=g.raw(0), name=name or f"{g.name}-sub{self.order}",
                           perm_degree=g.perm_degree)


# -- constructors -----------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, identity=0,
                       name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the regular n-gon)."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")

    def mul(x, y):
        a, s = x
        b, t = y
        return ((a + b) % n if s == 0 else (a - b) % n, s ^ t)

    elems = ((a, s) for a in range(n) for s in (0, 1))
    return FiniteGroup(elems, mul, identity=(0, 0), name=f"D{n}")


def symmetric(m: int) -> FiniteGroup:
    if m < 1:
        raise ValueError("symmetric group needs m >= 1")
    return FiniteGroup.from_permutations(itertools.permutations(range(m)),
                                         name=f"S{m}")


def alternating(m: int) -> FiniteGroup:
    """The even permutations of {0..m-1}.  `itertools.product` yields the
    Lehmer codes in step with `itertools.permutations`, both in
    lexicographic order, and a permutation's parity is that of its code's
    digit sum, its number of inversions."""
    if m < 1:
        raise ValueError("alternating group needs m >= 1")
    codes = itertools.product(*map(range, range(m, 0, -1)))
    evens = itertools.compress(itertools.permutations(range(m)),
                               (not sum(c) & 1 for c in codes))
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

    return FiniteGroup(elems, add, identity=(0,) * k, name=f"E({p},{k})")


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

    name = f"Q{4 * m}" if 4 * m & (4 * m - 1) == 0 else f"Dic{m}"
    elems = ((a, s) for a in range(n) for s in (0, 1))
    return FiniteGroup(elems, mul, identity=(0, 0), name=name)


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

    elems = itertools.product(range(len(a)), range(len(b)))
    return FiniteGroup(elems, mul, identity=(0, 0),
                       name=f"{a.name} x {b.name}")


def _is_automorphism_map(g: FiniteGroup, t: tuple[int, ...]) -> bool:
    """Whether the permutation t of g's indices is an automorphism of g.

    It tests t(x s) = t(x) t(s) for every x and each generator s of g:
    |g|*k products for k generators, not |g|^2.  That suffices.  Taking
    x = 1 gives t(s) = t(1) t(s), so t(1) = 1.  Then t(x w) = t(x) t(w)
    for every x and every word w in the generators, by induction on the
    length of w: t(x w s) = t(x w) t(s) = t(x) t(w) t(s) = t(x) t(w s).
    So t is a homomorphism, and a permutation one is an automorphism;
    that t is a permutation is for the caller to check (semidirect_product
    checks it for every table).
    """
    mul = g.mul
    gens = g.generators()
    return all(t[mul(x, s)] == mul(t[x], t[s])
               for x in range(len(g)) for s in gens)


def semidirect_product(n: FiniteGroup, h: FiniteGroup,
                       tables: Iterable[tuple[int, ...]],
                       name: str | None = None) -> FiniteGroup:
    """Semidirect product with law (x, s)(y, t) = (x * tables[s][y], s t).

    ``tables[s]`` is the image tuple of h's element s on n's indices.  The
    order cap is checked first, so an oversized product costs no product
    of n.  The checks: one permutation per element of h, ``tables[0]`` the
    identity, the table of each generator a of h an automorphism of n
    (|n| products per generator of n, see `_is_automorphism_map`), and
    ``tables[a b] == tables[a] o tables[b]`` for every b.  They suffice:
    every element of h is a word a1 ... ak in the generators, so by
    induction on k, ``tables[a1 ... ak y] = tables[a1] o ... o tables[ak] o
    tables[y]`` for every y.  With y = 1 each table is a product of
    automorphisms, hence one; and s -> tables[s] is a homomorphism.
    """
    if len(n) * len(h) > GROUP_ORDER_CAP:
        raise CapExceeded(f"product order {len(n) * len(h)} exceeds cap")
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

    def mul(u, v):
        x, s = u
        y, t = v
        return (n.mul(x, tables[s][y]), h.mul(s, t))

    elems = itertools.product(range(len(n)), range(len(h)))
    g = FiniteGroup(elems, mul, identity=(0, 0),
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


def _iso_image_maps(a: FiniteGroup, b: FiniteGroup,
                    gens: tuple[int, ...] | None = None,
                    first: list[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the image tables of all isomorphisms a -> b.

    Backtracks over images of a generating sequence of ``a``, pruning by
    element order, and extends each assignment over the generated subgroup
    with consistency and injectivity checks.  ``gens`` is that sequence
    (default ``a.generators()``), and ``first``, when given, holds the only
    images tried for its first element: then exactly the isomorphisms that
    send it into ``first`` are yielded.  A group is not fingerprinted
    against itself.
    """
    m = len(a)
    if len(b) != m or a is not b and _fingerprint(a) != _fingerprint(b):
        return
    if gens is None:
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
        if level == 0 and first is not None:
            cands = first
        else:
            cands = by_order.get(a.element_order(gens[level]), ())
        last = level + 1 == len(gens)
        for cand in cands:
            assigned.append(cand)
            mapping = extend(assigned)
            if mapping is not None:
                if not last:
                    yield from place(level + 1, assigned)
                elif len(mapping) == m:
                    yield tuple(mapping[i] for i in range(m))
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
        g._aut = FiniteGroup(_iso_image_maps(g, g), compose,
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
    return invariant_factors([g.element_order(i) for i in range(len(g))])


def invariant_factors(orders: list[int]) -> tuple[int, ...]:
    """Invariant factors, ascending, of the abelian group whose element
    orders are `orders`.

    For each prime p, |A[p^j]| / |A[p^(j-1)]| = p^r, where A[q] is the set
    of elements of order dividing q and r is the number of factors whose
    p-part is at least p^j; so step j multiplies the r largest factors by p.
    """
    factors: list[int] = []  # descending
    for p in _prime_factors(len(orders)):
        below, q = 1, p
        while True:
            count = sum(1 for o in orders if q % o == 0)
            ratio, r = count // below, 0
            while ratio > 1:
                ratio //= p
                r += 1
            if r == 0:
                break
            factors += [1] * (r - len(factors))
            factors[:r] = [d * p for d in factors[:r]]
            below, q = count, q * p
    return tuple(reversed(factors))
