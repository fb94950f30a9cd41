"""Coset translation actions and the regular-normalized subgroup search.

Given a pair (G, G') with G' core-free, the points are the left cosets of
G' and G acts by left translation.  The search enumerates every regular
subgroup of the full symmetric group on the points that is normalized by
the translation image of G; each one is a Hopf-Galois structure on the
extension the pair models.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

from .catalog import iso_type
from .errors import BudgetExceeded, CapExceeded, NotNormalClosure
from .groups import (FiniteGroup, GroupHom, SubgroupRef, _is_prime,
                     automorphism_group)
from .perms import (compose, conjugate, cycle_string, cycles,
                    uniform_cycle_length)

DEGREE_CAP = 12
CROSS_CHECK_CAP = 8
DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudget:
    """A counter of search work; raises once the limit is hit.

    One node is one permutation product or conjugation computed inside the
    search.  Exhaustion is always loud, never a silent truncation.
    """

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exhausted")


class ExtensionProblem:
    """A pair (G, G') with G' core-free, modeling a separable extension
    together with its normal closure."""

    def __init__(self, group: FiniteGroup, subgroup: SubgroupRef):
        if subgroup.parent is not group:
            raise ValueError("subgroup must belong to the given group")
        if len(group) % subgroup.order:
            raise ValueError("subgroup order must divide the group order")
        self.group = group
        self.subgroup = subgroup
        self.degree = len(group) // subgroup.order
        if self.degree < 2:
            raise ValueError("degree-1 extensions are excluded")
        core = self._core()
        if core != {0}:
            raise NotNormalClosure(
                "the subgroup contains a nontrivial normal subgroup of order "
                f"{len(core)}; the pair does not model a normal closure")

    def _core(self) -> set[int]:
        g = self.group
        core = set(self.subgroup.members)
        for x in range(len(g)):
            if core == {0}:
                break
            xi = g.inv(x)
            core &= {g.mul(g.mul(x, m), xi) for m in core}
        return core

    @staticmethod
    def galois(group: FiniteGroup) -> ExtensionProblem:
        """The Galois case: G' trivial, the action is the regular one."""
        return ExtensionProblem(group, group.trivial_subgroup())


class CosetAction:
    """Left-translation action of G on the cosets of G'.

    Point 0 is the coset G' itself; the remaining cosets are indexed by
    first appearance while scanning G in canonical element order, which
    makes every derived object deterministic.
    """

    def __init__(self, problem: ExtensionProblem,
                 generators: tuple[int, ...] | None = None):
        self.problem = problem
        g = problem.group
        sub = problem.subgroup.members
        coset_of = [-1] * len(g)
        reps = []
        for x in range(len(g)):
            if coset_of[x] >= 0:
                continue
            idx = len(reps)
            reps.append(x)
            for s in sub:
                coset_of[g.mul(x, s)] = idx
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        self.generators = tuple(generators) if generators is not None \
            else g.generators()
        if g.closure_of(self.generators) != frozenset(range(len(g))):
            raise ValueError("the given indices do not generate the group")
        self._translations: dict[int, tuple[int, ...]] = {}

    @property
    def degree(self) -> int:
        return self.problem.degree

    def translation(self, x: int) -> tuple[int, ...]:
        """The image tuple of the cosets under left translation by x."""
        t = self._translations.get(x)
        if t is None:
            g = self.problem.group
            t = tuple(self.coset_of[g.mul(x, r)] for r in self.reps)
            self._translations[x] = t
        return t

    def generator_pairs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(lambda(g), lambda(g^-1)) for each generator g of G."""
        g = self.problem.group
        return [(self.translation(x), self.translation(g.inv(x)))
                for x in self.generators]


def coset_action(problem: ExtensionProblem,
                 generators: tuple[int, ...] | None = None) -> CosetAction:
    return CosetAction(problem, generators)


class HGStructure:
    """One Hopf-Galois structure: a regular, translation-normalized
    permutation subgroup N, held as the group of its image tuples, and its
    isomorphism type."""

    def __init__(self, action: CosetAction, elements: Iterable[tuple[int, ...]]):
        self.action = action
        self.group = FiniteGroup.from_permutations(
            elements, name=f"N(deg {action.degree})")
        self.type_name = iso_type(self.group)
        self._conj_cache: dict[int, tuple[int, ...]] = {}
        self._hom: GroupHom | None = None

    def key(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of N in sorted order (the identity sorts first)."""
        return self.group.raw_elements()

    def conj_action(self, x: int) -> tuple[int, ...]:
        """Conjugation by the translation of x, as a map on N's indices.

        Raises KeyError if that translation does not normalize N.
        """
        out = self._conj_cache.get(x)
        if out is None:
            lam = self.action.translation(x)
            lam_inv = self.action.translation(self.action.problem.group.inv(x))
            index_of = self.group.index_of
            out = tuple(index_of(conjugate(lam, t, lam_inv))
                        for t in self.group.raw_elements())
            self._conj_cache[x] = out
        return out

    def action_hom(self) -> GroupHom:
        """The homomorphism G -> Aut(N) induced by translation conjugation.

        Raises ValueError if N is not normalized by the translations.
        """
        if self._hom is None:
            g = self.action.problem.group
            try:
                tables = [self.conj_action(x) for x in range(len(g))]
            except KeyError:
                raise ValueError("the subgroup is not normalized by the "
                                 "translations") from None
            aut = automorphism_group(self.group)
            self._hom = GroupHom(g, aut, [aut.index_of(t) for t in tables],
                                 check=False)
        return self._hom

    def generator_strings(self) -> list[str]:
        return [cycle_string(self.group.raw(i)) for i in self.group.generators()]

    def __repr__(self) -> str:
        return f"<HGStructure type {self.type_name} degree {self.action.degree}>"


def _regular_normalized(elements, n: int, gen_pairs) -> bool:
    """The post-hoc check of a group given as a set of image tuples.

    Regular: n elements whose images of point 0 are all distinct.
    Normalized: g t g^-1 lies in the set for every element t and every
    pair (g, g^-1) of `gen_pairs`.
    """
    if len(elements) != n or len({t[0] for t in elements}) != n:
        return False
    rng = range(n)
    return all(tuple(g[t[gi[i]]] for i in rng) in elements
               for g, gi in gen_pairs for t in elements)


# -- the search ----------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def _semiregular_tuples(n: int, d: int):
    """Yield all permutations of {0..n-1} whose cycles all have length d."""
    images = [0] * n

    def rec(free: tuple[int, ...]):
        if not free:
            yield tuple(images)
            return
        a = free[0]
        rest = free[1:]
        for combo in itertools.permutations(rest, d - 1):
            cycle = (a,) + combo
            for i in range(d):
                images[cycle[i]] = cycle[(i + 1) % d]
            taken = set(combo)
            yield from rec(tuple(x for x in rest if x not in taken))

    yield from rec(tuple(range(n)))


def _conj_orbit(t0, gen_pairs, budget):
    """The translation-conjugation orbit of t0, or None at the first two of
    its elements that send point 0 to the same point (then the orbit lies
    in no regular N)."""
    by0 = {t0[0]: t0}
    stack = [t0]
    ops = 0
    try:
        while stack:
            a = stack.pop()
            for g, gi in gen_pairs:
                ops += 1
                c = conjugate(g, a, gi)
                s = by0.setdefault(c[0], c)
                if s is c:
                    stack.append(c)
                elif s != c:
                    return None
        return list(by0.values())
    finally:
        budget.spend(ops)


def _closure(group, extra, n, budget):
    """The group generated by the group `group` and the elements `extra`,
    or None at the first two of its elements that send point 0 to the same
    point.

    The search only closes translation-stable sets (an orbit plus the
    identity, or two stable groups), so the generated group H is normalized
    by the translation image of G.  That image is transitive, so the point
    stabilizers of H are conjugate: H is semiregular iff its stabilizer of
    0 is trivial, i.e. iff no two elements agree on 0, and then |H| <= n.
    Products among the elements of `group` are never recomputed.
    """
    els = list(group)
    by0 = [None] * n
    for t in els:
        by0[t[0]] = t
    for c in extra:
        s = by0[c[0]]
        if s is None:
            by0[c[0]] = c
            els.append(c)
        elif s != c:
            return None
    ops = 0
    try:
        # every pair with a new element is multiplied, both ways, once
        i = len(group)
        while i < len(els):
            a = els[i]
            for b in els[:i + 1]:
                ops += 2
                for c in (compose(a, b), compose(b, a)):
                    s = by0[c[0]]
                    if s is None:
                        by0[c[0]] = c
                        els.append(c)
                    elif s != c:
                        return None
            i += 1
        return frozenset(els)
    finally:
        budget.spend(ops)


def _semiregular_centralizer(sigma: tuple[int, ...], d: int):
    """Yield each permutation commuting with the image tuple sigma whose
    cycles all have length d, exactly once.

    Such a permutation c maps every cycle of sigma onto a cycle of the same
    length l, shifted by some rotation s: c(z_j) = z'_{j+s}.  So c permutes
    the cycles of length l, and a k-cycle of those cycles whose shifts add
    up to r splits into cycles of length k * l / gcd(r, l).  Fixed points
    are the case l = 1.  The cycles-of-cycles are chosen, length by length,
    so that this comes out as d; nothing else is ever built.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for cycle in cycles(sigma, include_fixed=True):
        by_length.setdefault(len(cycle), []).append(cycle)
    classes = sorted(by_length.items())
    images = [0] * len(sigma)

    def rec(ci: int, free: tuple[int, ...]):
        if not free:
            if ci + 1 == len(classes):
                yield tuple(images)
            else:
                yield from rec(ci + 1, tuple(range(len(classes[ci + 1][1]))))
            return
        l, same_length = classes[ci]
        a, rest = free[0], free[1:]
        for k in range(1, min(d, len(free)) + 1):
            if d % k or l % (d // k):
                continue
            step = l * k // d
            totals = [r for r in range(l) if math.gcd(r, l) == step]
            for combo in itertools.permutations(rest, k - 1):
                chain = (a,) + combo
                left = tuple(x for x in rest if x not in combo)
                for shifts in itertools.product(range(l), repeat=k - 1):
                    partial = sum(shifts)
                    for r in totals:
                        for i, shift in enumerate(shifts + ((r - partial) % l,)):
                            src = same_length[chain[i]]
                            dst = same_length[chain[(i + 1) % k]]
                            for j in range(l):
                                images[src[j]] = dst[(j + shift) % l]
                        yield from rec(ci, left)

    yield from rec(0, tuple(range(len(classes[0][1]))))


def _prime_order_translations(action: CosetAction) -> list[tuple[int, ...]]:
    """The translation of one representative of each conjugacy class of
    elements of prime order in G."""
    g = action.problem.group
    return [action.translation(cls[0]) for cls in g.conjugacy_classes()
            if _is_prime(g.element_order(cls[0]))]


def _viable_atoms(n, gen_pairs, seeds, budget):
    """Stage 1: orbit inventory, seeded from centralizers.

    Every translation-conjugation orbit of semiregular permutations whose
    elements send point 0 to distinct points is grown to the group it
    generates, kept when that group does too (see `_closure`).  Every
    regular normalized N is a union of such atoms.

    The orbits are found from `seeds`, the translations lambda(x) of one x
    per class of prime-order elements of G.  Take t != 1 in such an orbit
    O.  Then |O| <= n - 1 < |G|, so the centralizer of t in the translation
    image is nontrivial and holds some lambda(y) of prime order; with
    y = g x g^-1, the conjugate of t by lambda(g)^-1 lies in O and commutes
    with lambda(x).  So walking the semiregular elements of the
    centralizers of the seeds in Sym(n) meets every such orbit, and the
    atoms are exactly those of a walk over all semiregular permutations.
    """
    trivial = (tuple(range(n)),)
    atoms: set[frozenset] = set()
    visited: set[tuple[int, ...]] = set()
    for sigma in seeds:
        for d in _divisors(n):
            for t in _semiregular_centralizer(sigma, d):
                if t in visited:
                    continue
                orbit = _conj_orbit(t, gen_pairs, budget)
                if orbit is None:
                    continue
                visited.update(orbit)
                grown = _closure(trivial, orbit, n, budget)
                if grown is not None:
                    atoms.add(grown)
    return sorted(atoms, key=sorted)


def _combine_atoms(atoms, n, budget):
    """Stage 2: depth-first unions of atoms, closing after every step."""
    results: set[frozenset] = set()
    smaller = []
    for a in atoms:
        if len(a) == n:
            results.add(a)
        else:
            smaller.append(a)
    seen = set()

    def extend(p, start):
        if len(p) == n:
            results.add(p)
            return
        for j in range(start, len(smaller)):
            a = smaller[j]
            if a <= p:
                continue
            q = _closure(p, a, n, budget)
            if q is None:
                continue
            state = (q, j + 1)
            if state in seen:
                continue
            seen.add(state)
            extend(q, j + 1)

    for j in range(len(smaller)):
        extend(smaller[j], j + 1)
    return results


def enumerate_regular_normalized(action: CosetAction, *,
                                 degree_cap: int = DEGREE_CAP,
                                 budget: NodeBudget | None = None) -> list[HGStructure]:
    """All regular subgroups of Sym(points) normalized by the translation
    image of G, each exactly once, in canonical order.

    Every result is re-checked post hoc for regularity and normalization,
    independently of the pruning used by the search.
    """
    n = action.degree
    if n > degree_cap:
        raise CapExceeded(f"enumeration capped at degree {degree_cap}, got {n}")
    if budget is None:
        budget = NodeBudget()
    gen_pairs = action.generator_pairs()
    atoms = _viable_atoms(n, gen_pairs, _prime_order_translations(action),
                          budget)
    structures = []
    for fs in _combine_atoms(atoms, n, budget):
        if not _regular_normalized(fs, n, gen_pairs):
            raise RuntimeError("search produced an invalid subgroup; "
                               "this is a bug in the pruning")
        structures.append(HGStructure(action, fs))
    structures.sort(key=lambda s: (s.type_name, s.key()))
    return structures


def translation_structure(action: CosetAction, members) -> HGStructure:
    """The structure whose N is the translation image of a subgroup of G.

    Valid whenever the image is regular and normalized (e.g. the image of a
    normal complement of G'); raises ValueError otherwise.
    """
    elements = {action.translation(x) for x in members}
    if not _regular_normalized(elements, action.degree, action.generator_pairs()):
        raise ValueError("translation image is not a regular, normalized "
                         "subgroup")
    return HGStructure(action, elements)


def enumerate_via_transversal(action: CosetAction, *,
                              budget: NodeBudget | None = None
                              ) -> list[tuple[tuple[int, ...], ...]]:
    """Independent second engine for small degrees.

    Regularity forces one element per image of point 0, so backtrack over
    that transversal directly, closing the partial group after every choice.
    Used to cross-check the orbit engine; returns each N as its sorted image
    tuples (what `HGStructure.key` gives), in sorted order.
    """
    n = action.degree
    if n > CROSS_CHECK_CAP:
        raise CapExceeded(f"transversal engine capped at degree "
                          f"{CROSS_CHECK_CAP}, got {n}")
    if budget is None:
        budget = NodeBudget()
    gen_pairs = action.generator_pairs()
    rng = range(n)
    id_t = tuple(rng)

    by_first: dict[int, list[tuple[int, ...]]] = {j: [] for j in range(1, n)}
    for d in _divisors(n):
        for t in _semiregular_tuples(n, d):
            by_first[t[0]].append(t)

    def close(seed):
        els = set(seed)
        changed = True
        ops = 0
        while changed:
            changed = False
            snapshot = list(els)
            for a in snapshot:
                for b in snapshot:
                    ops += 1
                    c = tuple(a[b[i]] for i in rng)
                    if c not in els:
                        if uniform_cycle_length(c) is None or len(els) >= n:
                            budget.spend(ops)
                            return None
                        els.add(c)
                        changed = True
                for g, gi in gen_pairs:
                    ops += 1
                    c = tuple(g[a[gi[i]]] for i in rng)
                    if c not in els:
                        if uniform_cycle_length(c) is None or len(els) >= n:
                            budget.spend(ops)
                            return None
                        els.add(c)
                        changed = True
        budget.spend(ops)
        return frozenset(els)

    results: set[frozenset] = set()
    visited: set[frozenset] = set()

    def dfs(p):
        if len(p) == n:
            results.add(p)
            return
        covered = {t[0] for t in p}
        j = min(x for x in range(n) if x not in covered)
        for cand in by_first[j]:
            q = close(p | {cand})
            if q is not None and q not in visited:
                visited.add(q)
                dfs(q)

    dfs(frozenset({id_t}))
    for fs in results:
        if not _regular_normalized(fs, n, gen_pairs):
            raise RuntimeError("transversal search produced an invalid subgroup")
    return sorted(tuple(sorted(fs)) for fs in results)
