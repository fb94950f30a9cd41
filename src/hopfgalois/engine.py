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
from collections.abc import Collection, KeysView
from operator import itemgetter
from typing import Iterable

from .catalog import _totient, iso_type, type_from_orders
from .errors import BudgetExceeded, CapExceeded, NotNormalClosure
from .groups import FiniteGroup, SubgroupRef, _is_prime, _iso_image_maps
from .perms import (compose, conjugate, cycle_string, cycles, inverse,
                    uniform_cycle_length)

DEGREE_CAP = 12
CROSS_CHECK_CAP = 8
DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudget:
    """A counter of search work; raises once the limit is hit.

    One node is one permutation product or conjugation computed inside the
    search.  Exhaustion is always loud, never a silent truncation.  It also
    counts the stage-1 seeds: `seeds`, one per conjugacy class of cyclic
    subgroups of prime order (see `_prime_order_translations`), and
    `seeds_walked`, one per class of those under the automorphisms the
    search found (see `_seed_maps`); and the centralizer walks, one per
    walked seed and cycle length: `walks` run and `walks_skipped` (see
    `_walked_lengths`).  `counters()` is the record of them that reports
    and the command line carry.
    """

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        self.limit = limit
        self.used = 0
        self.seeds = 0
        self.seeds_walked = 0
        self.walks = 0
        self.walks_skipped = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} nodes exhausted")

    def counters(self) -> dict[str, int]:
        """A snapshot of every counter, `used` as "nodes"."""
        return {"nodes": self.used, "seeds": self.seeds,
                "seeds_walked": self.seeds_walked, "walks": self.walks,
                "walks_skipped": self.walks_skipped}


def _cosets(group: FiniteGroup, members) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(reps, coset_of) for the left cosets of the subgroup `members`.

    Coset 0 is the subgroup itself; the others are indexed by first
    appearance while scanning G in canonical element order, which makes
    every derived object deterministic.  Costs |G| products.
    """
    coset_of = [-1] * len(group)
    reps = []
    for x in range(len(group)):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for s in members:
            coset_of[group.mul(x, s)] = idx
    return tuple(reps), tuple(coset_of)


def _core(group: FiniteGroup, members, reps, coset_of) -> list[int]:
    """The core of the subgroup `members` (its largest subgroup normal in
    G): the kernel of the action on its cosets, i.e. the h in it with
    h r in the coset of r for every representative r.  `members` is sorted,
    so the identity comes first and needs no test.  Costs at most
    (|G'| - 1) n products, and for most h only two or three."""
    mul = group.mul
    return [0] + [h for h in members[1:]
                  if all(coset_of[mul(h, r)] == i for i, r in enumerate(reps))]


class ExtensionProblem:
    """A pair (G, G') with G' core-free, modeling a separable extension
    together with its normal closure.

    `reps` and `coset_of` describe the left cosets of G' (see `_cosets`);
    the core-free check and every `CosetAction` read them.
    """

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
        self.reps, self.coset_of = _cosets(group, subgroup.members)
        core = _core(group, subgroup.members, self.reps, self.coset_of)
        if len(core) > 1:
            raise NotNormalClosure(
                "the subgroup contains a nontrivial normal subgroup of order "
                f"{len(core)}; the pair does not model a normal closure")

    @staticmethod
    def galois(group: FiniteGroup) -> ExtensionProblem:
        """The Galois case: G' trivial, the action is the regular one."""
        return ExtensionProblem(group, group.trivial_subgroup())


class CosetAction:
    """Left-translation action of G on the cosets of G'.

    The points are the problem's cosets: point 0 is G' itself, the others
    are numbered as in `_cosets`.  The image lambda(G) and its blocks at
    point 0 are built on first use, from the generator translations alone.
    """

    def __init__(self, problem: ExtensionProblem,
                 generators: tuple[int, ...] | None = None):
        self.problem = problem
        g = problem.group
        self.reps = problem.reps
        self.coset_of = problem.coset_of
        if generators is None:
            self.generators = g.generators()
        else:
            self.generators = tuple(generators)
            if g.closure_of(self.generators) != frozenset(range(len(g))):
                raise ValueError("the given indices do not generate the group")
        self._translations: dict[int, tuple[int, ...]] = {}
        self._pairs = tuple((lam, inverse(lam))
                            for lam in map(self.translation, self.generators))
        self._image: dict[tuple[int, ...], None] | None = None
        self._blocks: tuple[frozenset[int], ...] | None = None
        self._block_bits: tuple[int, ...] | None = None

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

    def generator_pairs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(lambda(g), lambda(g^-1)) for each generator g of G, built once."""
        return self._pairs

    @property
    def image(self) -> KeysView[tuple[int, ...]]:
        """lambda(G) as a set-like view of image tuples, in breadth-first
        order from the identity under the generator translations.

        Built by closing the generator translations, with no product in G:
        one getter of each element a met gives g a for every generator
        translation g.  The action is faithful (G' is core-free) and the
        generators generate G, so the image has |G| elements; that is checked.
        """
        if self._image is None:
            lams = list(map(self.translation, self.generators))
            queue = [tuple(range(self.degree))]
            image = dict.fromkeys(queue)
            for a in queue:
                for c in map(itemgetter(*a), lams):
                    if c not in image:
                        image[c] = None
                        queue.append(c)
            if len(image) != len(self.problem.group):
                raise RuntimeError("the translation image does not have the "
                                   "order of the group")
            self._image = image
        return self._image.keys()

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks of lambda(G) at point 0, {0} first (`_walk_blocks`)."""
        if self._blocks is None:
            self._blocks = self._walk_blocks()
        return self._blocks

    @property
    def block_bits(self) -> tuple[int, ...]:
        """For each point x, the int whose bit i is set when `blocks[i]`
        holds x: the table `_stable_fibers` tests with (`_mark_blocks`)."""
        if self._block_bits is None:
            self._block_bits = self._mark_blocks()
        return self._block_bits

    def _mark_blocks(self) -> tuple[int, ...]:
        bits = [0] * self.degree
        for i, block in enumerate(self.blocks):
            for x in block:
                bits[x] |= 1 << i
        return tuple(bits)

    def _walk_blocks(self) -> tuple[frozenset[int], ...]:
        """The walk starts from {0}, whose block system is the partition
        into points.  It holds each block B's system as union-find labels
        (class roots) and, from them, makes one pass of Atkinson's
        union-find (Math. Comp. 29, 1975) per other class: join it to 0's
        class, then the images of every two classes joined, under each
        generator, until the partition is stable.  Exact by two facts.  (1)
        If B <= C are blocks, C's system is coarser than B's; so the finest
        invariant partition coarser than B's system that joins 0 to a point
        a has as its class of 0 the minimal block holding B and a, and every
        block is reached by such steps from {0}.  (2) That partition joins a
        to a's whole class, so the points of a class give the same block.
        """
        n, gens = self.degree, list(map(self.translation, self.generators))
        def find(parent, a):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            return a

        found, systems = {frozenset([0]): None}, [list(range(n))]
        for labels in systems:
            for a in set(labels) - {labels[0]}:
                parent, pending = labels.copy(), [(labels[0], a)]
                parent[a] = labels[0]
                while pending:
                    u, v = pending.pop()
                    for g in gens:
                        x, y = find(parent, g[u]), find(parent, g[v])
                        if x != y:
                            parent[y] = x
                            pending.append((x, y))
                joined = [find(parent, b) for b in range(n)]
                block = frozenset(b for b, r in enumerate(joined) if r == joined[0])
                if block not in found:
                    found[block] = None
                    systems.append(joined)
        return tuple(found)


def coset_action(problem: ExtensionProblem,
                 generators: tuple[int, ...] | None = None) -> CosetAction:
    return CosetAction(problem, generators)


class HGStructure:
    """One Hopf-Galois structure: a regular, translation-normalized
    permutation subgroup N, held as its image tuples, with its isomorphism
    type and sub-Hopf lattice.

    `_regular_normalized` checks N at construction (else ValueError).
    `key`, `generator_strings` and `stable_subgroups` read the tuples;
    `group`, N as a `FiniteGroup` with its Cayley table, is built on first
    read.  `type_name` is given by the caller or computed on first read:
    from the tuples where `_tuple_type` can, else by `iso_type` of `group`.
    """

    def __init__(self, action: CosetAction, elements: Iterable[tuple[int, ...]],
                 type_name: str | None = None):
        self.action = action
        self._key = tuple(sorted(elements))
        if not _regular_normalized(self._key, action.degree, action.generator_pairs()):
            raise ValueError("N is not a regular group normalized by lambda(G)")
        self._type_name = type_name
        self._group: FiniteGroup | None = None
        self._lattice: list[frozenset[tuple[int, ...]]] | None = None

    @property
    def group(self) -> FiniteGroup:
        """N as a `FiniteGroup`, its indices in `key` order."""
        if self._group is None:
            self._group = FiniteGroup.from_permutations(
                self._key, name=f"N(deg {self.action.degree})")
        return self._group

    @property
    def type_name(self) -> str:
        if self._type_name is None:
            self._type_name = _tuple_type(self._key) or iso_type(self.group)
        return self._type_name

    @property
    def stable_subgroups(self) -> list[frozenset[tuple[int, ...]]]:
        """N's sub-Hopf lattice: its subgroups stable under conjugation by
        the translations of G, as sets of image tuples, the trivial group
        first.  Read on first use through the Galois correspondence, as the
        fibers N_B = {t in N : t[0] in B} over the blocks B of lambda(G) at
        0 (`action.blocks`) that pass one test (`_stable_fibers`).  Exact:
        lambda(G) permutes the orbits of a stable M <= N, so B = M.0 is a
        block, and M = N_B since N is regular.  Conversely, a stable N_B is
        a group: for s, t in N_B, some h in lambda(G) has h(0) = t(0), so h
        fixes B and st(0) = h (h^-1 s h)(0) lies in B.  g t g^-1 lies in N,
        so in N_B iff it sends 0 into B: the one test is g[t[g^-1[0]]] in B
        for each generator pair (g, g^-1) and each t in N_B."""
        if self._lattice is None:
            self._lattice = _stable_fibers(self.action, self._key)
        return self._lattice

    def key(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of N in sorted order.  The identity sorts
        first, so this is `group.raw_elements()`."""
        return self._key

    def conj_action(self, x: int) -> tuple[int, ...]:
        """Conjugation by the translation of x, as a map on N's indices, for
        the oracle `minimality.g_stable_subgroups`; it normalizes N, as
        checked at construction."""
        lam = self.action.translation(x)
        conj = _conjugation(lam, inverse(lam))
        return tuple(map(self.group.index_of, map(conj, self._key)))

    def generator_strings(self) -> list[str]:
        """N's generators as cycle strings, picked by the greedy rule of
        `FiniteGroup.generators` on the image tuples: by descending element
        order, then in `key` order, each element that the earlier picks do
        not generate.  N is semiregular, so the order of t is the length of
        its cycle through point 0, and t is the one element of N sending 0
        to t[0]; `have` holds the picks' group by those points, grown by
        right cosets as in `_closure`."""
        identity, *rest = self._key
        have, gens = {0: identity}, []
        for t in sorted(rest, key=lambda t: -_cycle_length_at_0(t)):
            if t[0] in have:
                continue
            gens.append(t)
            sub, reps = tuple(have.values()), [t]
            have.update({c[0]: c for c in map(itemgetter(*t), sub)})
            for r in reps:
                for g in gens:
                    y = compose(r, g)
                    if y[0] not in have:
                        have.update({c[0]: c for c in map(itemgetter(*y), sub)})
                        reps.append(y)
        return [cycle_string(t) for t in gens]

    def __repr__(self) -> str:
        return f"<HGStructure type {self.type_name} degree {self.action.degree}>"


def _cycle_length_at_0(t: tuple[int, ...]) -> int:
    """The length of t's cycle through point 0: t's order if t is
    semiregular."""
    k, j = 1, t[0]
    while j:
        j, k = t[j], k + 1
    return k


def _tuple_type(key: Collection[tuple[int, ...]]) -> str | None:
    """N's type from its image tuples, or None where `type_from_orders`
    needs a group.  N is regular, so s t = t s iff both send 0 to the same
    point, s[t[0]] == t[s[0]]."""
    abelian = all(s[t[0]] == t[s[0]] for s, t in itertools.combinations(key, 2))
    return type_from_orders(list(map(_cycle_length_at_0, key)), abelian)


def _stable_fibers(action: CosetAction, key) -> list[frozenset[tuple[int, ...]]]:
    """The fibers of N (its sorted tuples `key`) over the blocks of
    `action` that pass the test of `HGStructure.stable_subgroups`.  `good`
    has one bit per block, cleared for the blocks that hold t[0] but not
    g[t[g^-1[0]]]: n - 1 mask steps per generator pair, read off the
    per-action table `block_bits`."""
    bits, blocks = action.block_bits, action.blocks
    pairs = [(g, gi[0]) for g, gi in action.generator_pairs()]
    good = (1 << len(blocks)) - 1
    for t in key[1:]:
        miss = ~bits[t[0]]
        for g, a in pairs:
            good &= bits[g[t[a]]] | miss
    by0 = {t[0]: t for t in key}
    return [frozenset(map(by0.__getitem__, block))
            for i, block in enumerate(blocks) if good >> i & 1]


def _regular_normalized(elements, n: int, gen_pairs) -> bool:
    """The post-hoc check of a group given as a collection of image tuples.

    Regular: n elements whose images of point 0 are all distinct; `by0`
    holds each under that image, and the one fixing 0 is the identity.
    A group: closing the identity under generators picked from the set
    meets every element, and every product it takes lies in the set.  Each
    element not met yet becomes a generator, and the group H closed so far
    grows by right cosets, as in `_closure`: H x, then for each
    representative r and generator g, r g lies in a coset already met or
    opens the new coset H r g.
    Normalized: g t g^-1 lies in the set, as the element of `by0` at its
    image of 0, for every picked generator t and every pair (g, g^-1) of
    `gen_pairs`.  Conjugation by g is an automorphism, so it then maps the
    group the picks generate into itself.

    Every product is written out here, with no permutation kernel.
    """
    by0 = {t[0]: t for t in elements}
    if len(elements) != n or len(by0) != n or by0[0] != tuple(range(n)):
        return False
    met = [False] * n
    met[0] = True
    found: list[tuple[int, ...]] = []  # the non-identity elements met
    sub: tuple[tuple[int, ...], ...] = ()

    def add_coset(r) -> bool:
        for c in [r] + [tuple([h[j] for j in r]) for h in sub]:
            if c != by0[c[0]]:
                return False
            met[c[0]] = True
            found.append(c)
        return True

    gens = []
    for x in elements:
        if met[x[0]]:
            continue
        sub = tuple(found)
        gens.append(x)
        if not add_coset(x):
            return False
        reps = [x]
        for r in reps:
            for g in gens:
                y = tuple([r[j] for j in g])
                if not met[y[0]]:
                    if not add_coset(y):
                        return False
                    reps.append(y)
                elif y != by0[y[0]]:
                    return False
    for g, gi in gen_pairs:
        for t in gens:
            c = tuple([g[t[j]] for j in gi])
            if c != by0[c[0]]:
                return False
    return True


# -- the search ----------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


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


def _orbit_bound(n: int, d: int) -> int:
    """U(d): at most this many elements lie in a kept stage-1 orbit of
    cycle length d at degree n (see `_walked_lengths`).  It is phi(d) when
    d = n, or when d = q^a is the full q-part of n and no divisor k > 1 of
    n/d is 1 mod q; else n - 1."""
    primes = _prime_factors(d)
    q, rest = primes[0], n // d
    if d == n or (len(primes) == 1 and rest % q
                  and all(k % q != 1 for k in _divisors(rest))):
        return _totient(d)
    return n - 1


def _walked_lengths(p: int, n: int, order: int) -> list[int]:
    """The cycle lengths d that stage 1 walks in the centralizer of a seed
    of prime order p, at degree n with |G| = order.

    Take a kept orbit O of cycle length d (see `_viable_atoms`) and t in O.
    O lies in the group A it generates, which is semiregular, so |A|
    divides n and |O| <= n - 1.  |O| is the index in lambda(G) of the
    centralizer C of t, so it divides |G|.  If <t> is characteristic in A,
    then lambda(G), which normalizes A, maps <t> onto itself, and O lies
    among the generators of <t>: |O| <= phi(d).  That holds when d = n
    (then A = <t>), and when d = q^a is the full q-part of n and no
    divisor k > 1 of n/d is 1 mod q: <t> is then a Sylow q-subgroup of A,
    and their number divides n/d and is 1 mod q, so it is 1.  So |O| <=
    U(d), as `_orbit_bound` gives it.

    Let q be the largest prime dividing |C| = |G|/|O|.  By Cauchy's
    theorem C holds an element of order q, so some conjugate of t in O
    commutes with a q-seed, and the walk of that seed over d meets O (for
    a merged Galois seed, through the maps phibar).  That walk is never
    skipped: s = |O| leaves no prime of |G|/s above q.  So a p-seed skips
    d when, for every s dividing |G| with s <= U(d), |G|/s has a prime
    factor larger than p; every kept orbit of cycle length d is then met
    from a larger prime's seed.  A seed of the largest prime dividing |G|
    walks every d.
    """
    return [d for d in _divisors(n)
            if any(order % s == 0 and max(_prime_factors(order // s)) <= p
                   for s in range(1, _orbit_bound(n, d) + 1))]


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


def _conj_orbit(t0, gen_pairs, visited, budget):
    """The translation-conjugation orbit of t0, or None at the first two of
    its elements that send point 0 to the same point (then the orbit lies
    in no regular N).  Every element met is added to the set `visited`:
    all of them lie in the orbit of t0, so a walk from any of them meets
    the same orbit, kept or dropped, and need not run.

    Each conjugate g a g^-1 is g o (a o g^-1), with one getter of g^-1's
    images per generator pair."""
    pairs = [(g, itemgetter(*gi)) for g, gi in gen_pairs]
    by0 = {t0[0]: t0}
    stack = [t0]
    ops = 0
    try:
        while stack:
            a = stack.pop()
            for g, right in pairs:
                ops += 1
                c = itemgetter(*right(a))(g)
                s = by0.setdefault(c[0], c)
                if s is c:
                    stack.append(c)
                elif s != c:
                    visited.add(c)
                    return None
        return list(by0.values())
    finally:
        visited.update(by0.values())
        budget.spend(ops)


def _closure(group, gens, extra, n, budget):
    """(K, generators of K) for K the group generated by the group `group`,
    which `gens` generates, and the elements `extra`; or None at the first
    two elements of K found that send point 0 to the same point.

    The search only closes translation-stable sets (an orbit plus the
    identity, or two stable groups), so K is normalized by the translation
    image of G.  That image is transitive, so the point stabilizers of K
    are conjugate: K is semiregular iff its stabilizer of 0 is trivial,
    i.e. iff no two elements agree on 0, and then |K| <= n.

    K is built by Dimino's algorithm, as in `FiniteGroup.closure_of`.  Each
    x of `extra` outside the group H built so far becomes a generator, and
    H grows to a union of right cosets: first H x, then, for each
    representative r and each generator g, r g lies in a coset already
    found or opens a new one, H r g.  `by0` holds each found element under
    its image of 0, so membership is one lookup, and every element found
    is checked there and against `known`, the elements of `extra` by their
    image of 0, which lie in K too.  This keeps the point-0 rule exact.
    Until the first collision, the found set is a union of whole cosets of
    H, so a y with `by0[y[0]]` empty is new and so is all of H y, and the
    cosets list K.  If K is semiregular nothing collides and K is listed
    in full; if not, two of its elements agree on 0 and the later one found
    collides, often early, with an element of `extra`.  Each generator at
    least doubles the group, so there are at most log2 |K|.  A coset H r
    is one getter of r's images mapped over H.
    """
    els = list(group)
    gens = list(gens)
    by0 = [None] * n
    for t in els:
        by0[t[0]] = t
    ops = 0
    known = {}
    for x in extra:
        if known.setdefault(x[0], x) != x:
            return None

    def add_coset(sub, r) -> bool:
        nonlocal ops
        coset = list(map(itemgetter(*r), sub))
        ops += len(coset)
        for c in coset:
            if by0[c[0]] is not None or known.get(c[0], c) != c:
                return False
            by0[c[0]] = c
        els.extend(coset)
        return True

    try:
        for x in extra:
            s = by0[x[0]]
            if s is not None:
                if s != x:
                    return None
                continue
            sub = tuple(els)
            gens.append(x)
            if not add_coset(sub, x):
                return None
            reps = [x]
            for r in reps:
                for g in gens:
                    ops += 1
                    y = compose(r, g)
                    s = by0[y[0]]
                    if s is None:
                        if not add_coset(sub, y):
                            return None
                        reps.append(y)
                    elif s != y:
                        return None
        return frozenset(els), tuple(gens)
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


def _prime_order(t: tuple[int, ...]) -> int:
    """The order of the permutation t != 1 if it is prime, else 0: t has
    prime order p exactly when p is prime, some cycle of t has length p,
    and t^p = 1."""
    i = 0
    while t[i] == i:
        i += 1
    p, j = 1, t[i]
    while j != i:
        j, p = t[j], p + 1
    if not _is_prime(p):
        return 0
    u, times_t = t, itemgetter(*t)
    for _ in range(p - 1):
        u = times_t(u)
    return p if u == tuple(range(len(t))) else 0


def _prime_order_translations(action: CosetAction):
    """(seeds, class_of, kinds) for stage 1, read from lambda(G) alone and
    spending no nodes: one seed per conjugacy class of cyclic subgroups of
    prime order of lambda(G); the index of its seed for every generator of
    every group of that class; and each class's (p, size of that set).

    The first element of prime order p in `action.image` that no earlier
    class holds is a seed t, and its class is walked from all of t, t^2,
    ..., t^(p-1) by conjugating with the generator pairs.  One seed per
    class of groups suffices: conjugate cyclic groups have conjugate
    centralizers, so the centralizer walks of their generators meet the
    same orbits (see `_viable_atoms`).
    """
    identity = tuple(range(action.degree))
    pairs = [(g, itemgetter(*gi)) for g, gi in action.generator_pairs()]
    class_of: dict[tuple[int, ...], int] = {}
    seeds, kinds = [], []
    for t in action.image:
        if t in class_of or t == identity:
            continue
        p = _prime_order(t)
        if not p:
            continue
        i = len(seeds)
        seeds.append(t)
        met = len(class_of)
        stack = [t]
        while len(stack) < p - 1:
            stack.append(compose(t, stack[-1]))
        class_of.update(dict.fromkeys(stack, i))
        while stack:
            a = stack.pop()
            for g, right in pairs:
                c = itemgetter(*right(a))(g)
                if c not in class_of:
                    class_of[c] = i
                    stack.append(c)
        kinds.append((p, len(class_of) - met))
    return seeds, class_of, kinds


def _seed_maps(action: CosetAction, seeds, class_of, kinds, budget):
    """(the seeds to walk, each as (sigma, its prime), and the maps
    (phibar, phibar^-1)) for stage 1.

    `seeds`, `class_of` and `kinds` are as `_prime_order_translations`
    returns them.  Only Galois problems (G' trivial) look for maps; the
    others walk every seed with no map.  An automorphism phi of G permutes
    the points by phibar(i) = coset_of[phi(reps[i])], and phibar lambda(g)
    phibar^-1 = lambda(phi(g)).  So phibar maps the seed class of sigma
    onto the class of phibar sigma phibar^-1, and the atoms met from sigma
    onto the atoms met from it (see `_viable_atoms`).  The maps are read
    lazily from the isomorphisms G -> G, and one is kept when it merges two
    seed classes; `label[i]` is the least seed merged with seed i.  An
    automorphism keeps the order p of a generator and the number of
    generators of the conjugates of <sigma>, so classes of different kinds
    never merge: the search stops once as many classes are left as there
    are kinds, and otherwise runs through Aut(G).  Each conjugation of a
    seed is a node.
    """
    target = len(set(kinds))
    label = list(range(len(seeds)))
    maps = []
    if action.problem.subgroup.order == 1 and target < len(seeds):
        g = action.problem.group
        reps, coset_of = action.reps, action.coset_of
        for phi in _iso_image_maps(g, g):
            if len(set(label)) == target:
                break
            bar = tuple(coset_of[phi[r]] for r in reps)
            bar_inv = inverse(bar)
            budget.spend(len(seeds))
            before = label
            for i, sigma in enumerate(seeds):
                a, b = sorted((label[i], label[class_of[conjugate(bar, sigma, bar_inv)]]))
                label = [a if x == b else x for x in label]
            if label != before:
                maps.append((bar, bar_inv))
    return [(sigma, kinds[i][0]) for i, sigma in enumerate(seeds)
            if label[i] == i], maps


def _conjugation(bar, bar_inv):
    """t -> phibar t phibar^-1, as phibar o (t o phibar^-1), with one getter
    of phibar^-1's images."""
    right = itemgetter(*bar_inv)
    return lambda t: itemgetter(*right(t))(bar)


def _close_under(found: dict, keys, maps, budget, carry) -> None:
    """Add to `found`, a dict keyed by sets of image tuples, the conjugate
    of each key by each phibar of `maps` (pairs (phibar, phibar^-1)),
    starting from `keys`, until nothing new appears.  A new key's value is
    carry(value of its preimage, the conjugation by phibar that gave it);
    the key itself is conjugated straight into a frozenset.  One node per
    conjugation."""
    conjugations = [_conjugation(bar, bar_inv) for bar, bar_inv in maps]
    stack = list(keys)
    while stack:
        a = stack.pop()
        for conj in conjugations:
            budget.spend(len(a))
            b = frozenset(map(conj, a))
            if b not in found:
                found[b] = carry(found[a], conj)
                stack.append(b)


def _viable_atoms(action: CosetAction, budget: NodeBudget):
    """Stage 1: orbit inventory, seeded from centralizers.

    Every translation-conjugation orbit of semiregular permutations whose
    elements send point 0 to distinct points is grown to the group it
    generates, kept when that group does too (see `_closure`).  Every
    regular normalized N is a union of such atoms.  Returns (atoms, maps):
    the (atom, its generators) pairs, sorted by atom, where an atom reached
    from several orbits keeps the generators of the first; and the maps
    (phibar, phibar^-1) that `_seed_maps` kept.  It adds to the budget's four
    stage-1 counters.

    The orbits are found from seeds lambda(x) for one x of prime order p
    per class of the cyclic groups <x> of G (see
    `_prime_order_translations`).  Take t != 1 in such an orbit O.  Then
    |O| <= n - 1 < |G|, so the centralizer of t in the translation image
    is nontrivial and holds some lambda(y) of prime order; with <y> =
    g <x> g^-1 for a seed x, the conjugate of t by lambda(g)^-1 lies in O
    and commutes with lambda(x).  So walking the semiregular elements of
    the centralizers of the seeds in Sym(n) meets every such orbit, and the
    atoms are exactly those of a walk over all semiregular permutations.
    A seed of prime p walks only the cycle lengths `_walked_lengths` gives
    for p, n and |G|: the kept orbits of every other length are
    met from the seeds of a larger prime.  The budget counts each walk run
    and each one skipped.  No orbit is walked twice: a walk adds every
    element it met to `visited`, whether its orbit is kept or dropped (see
    `_conj_orbit`), and an element in `visited` starts no walk.

    For a Galois problem, one seed is walked per class under the maps
    phibar (see `_seed_maps`), and the atoms found are closed
    under conjugation by each phibar, which carries an atom's generators to
    generators of its image.  That gives the same atoms: phibar normalizes
    lambda(G), so it maps kept orbits to kept orbits and atoms to atoms, and
    the atoms met from sigma onto those met from phibar sigma phibar^-1.  A
    finite set closed under an injective map is closed under its inverse,
    so the closure also holds the atoms of every seed left unwalked.  Other
    problems walk every seed and find no map.
    """
    n, order = action.degree, len(action.problem.group)
    gen_pairs = action.generator_pairs()
    trivial = frozenset([tuple(range(n))])
    seeds, class_of, kinds = _prime_order_translations(action)
    budget.seeds += len(seeds)
    walked, maps = _seed_maps(action, seeds, class_of, kinds, budget)
    budget.seeds_walked += len(walked)
    atoms: dict[frozenset, tuple] = {}
    visited: set[tuple[int, ...]] = set()
    for sigma, p in walked:
        lengths = _walked_lengths(p, n, order)
        budget.walks += len(lengths)
        budget.walks_skipped += len(_divisors(n)) - len(lengths)
        for d in lengths:
            for t in _semiregular_centralizer(sigma, d):
                if t in visited:
                    continue
                orbit = _conj_orbit(t, gen_pairs, visited, budget)
                grown = orbit and _closure(trivial, (), orbit, n, budget)
                if grown:
                    atoms.setdefault(*grown)
    _close_under(atoms, list(atoms), maps, budget,
                 lambda gens, conj: tuple(map(conj, gens)))
    return sorted(atoms.items(), key=lambda item: sorted(item[0])), maps


def _combine_atoms(atoms, n, budget):
    """Stage 2: depth-first unions of atoms, closing after every step.

    `atoms` holds (atom, generators) pairs, as `_viable_atoms` finds them.
    Each group formed carries its generators, so the join of p and an atom
    a is closed from p's generators plus a's (see `_closure`): they
    generate the same group as p and a.

    Returns the set of regular groups found, every regular normalized N:
    N is the join of the atoms inside it (the groups that the orbits of its
    elements generate), and adding them in index order prunes no step.

    A join is skipped before any product when p and a already hold two
    distinct elements that agree on point 0: both lie in the join, so
    `_closure` would return None.  It compares point masks, the bits t[0]
    of a group's elements (p's once per state).  p and a are semiregular,
    one element per point covered, so |a & p| is at most the number of
    points both cover, with equality iff none carries two elements.

    A join is also read without a closure when p has an index-2 join q,
    one already closed from p with |q| = 2|p|, that holds a.  Then p < p v
    a <= q, since a is not inside p, and |p v a| is a multiple of |p| by
    Lagrange, so it is 2|p| and p v a = q.  `doubles` keeps these q, with
    their generators, per p, over every state of p.
    """
    results: set[frozenset] = set()
    smaller = []
    for a, a_gens in atoms:
        if len(a) == n:
            results.add(a)
        else:
            smaller.append((a, a_gens, sum(1 << t[0] for t in a)))
    seen = set()
    doubles: dict[frozenset, list] = {}

    def extend(p, p_gens, start):
        if len(p) == n:
            results.add(p)
            return
        p_mask = sum(1 << t[0] for t in p)
        p_doubles = doubles.setdefault(p, [])
        for j in range(start, len(smaller)):
            a, a_gens, a_mask = smaller[j]
            if a <= p:
                continue
            for grown in p_doubles:
                if a <= grown[0]:
                    break
            else:
                if (a_mask & p_mask).bit_count() != len(a & p):
                    continue
                grown = _closure(p, p_gens, a_gens, n, budget)
                if grown is None:
                    continue
                if len(grown[0]) == 2 * len(p):
                    p_doubles.append(grown)
            q, q_gens = grown
            state = (q, j + 1)
            if state in seen:
                continue
            seen.add(state)
            extend(q, q_gens, j + 1)

    for j, (a, a_gens, _) in enumerate(smaller):
        extend(a, a_gens, j + 1)
    return results


def enumerate_regular_normalized(action: CosetAction, *,
                                 degree_cap: int = DEGREE_CAP,
                                 budget: NodeBudget | None = None) -> list[HGStructure]:
    """All regular subgroups of Sym(points) normalized by the translation
    image of G, each exactly once, in canonical order.

    Every result is re-checked post hoc as its `HGStructure` is built,
    independently of the pruning (a failure raises RuntimeError), and
    reads its lattice like any other; N's `FiniteGroup` is built only
    where its type is computed.

    Stage 1 walks one seed per class of cyclic subgroups of prime order
    (see `_prime_order_translations`), each over the cycle lengths `_walked_lengths`
    gives.  For a Galois problem, it walks one seed per class under some
    automorphisms of G and maps the atoms found to the others (see
    `_viable_atoms`).  An N that `_tuple_type` does not type is typed by
    `iso_type` once per orbit of those maps: conjugation by phibar is an
    isomorphism from N to phibar N phibar^-1.
    """
    n = action.degree
    if n > degree_cap:
        raise CapExceeded(f"enumeration capped at degree {degree_cap}, got {n}")
    if budget is None:
        budget = NodeBudget()
    atoms, maps = _viable_atoms(action, budget)
    type_of: dict[frozenset, str] = {}
    structures = []
    for fs in _combine_atoms(atoms, n, budget):
        name = type_of.get(fs) or _tuple_type(fs)
        try:
            structure = HGStructure(action, fs, name)
        except ValueError as error:
            raise RuntimeError("search produced an invalid subgroup; "
                               "this is a bug in the pruning") from error
        if name is None:
            type_of[fs] = structure.type_name
            _close_under(type_of, [fs], maps, budget, lambda name, _: name)
        structures.append(structure)
    structures.sort(key=lambda s: (s.type_name, s.key()))
    return structures


def translation_structure(action: CosetAction, members) -> HGStructure:
    """The structure whose N is the translation image of a subgroup of G.
    Valid whenever the image is regular and normalized (e.g. the image of
    a normal complement of G'); `HGStructure` raises ValueError otherwise."""
    return HGStructure(action, {action.translation(x) for x in members})


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
