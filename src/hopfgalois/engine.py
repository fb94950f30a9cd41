"""Extension problems and the regular-normalized subgroup search.

An `ExtensionProblem` is a pair (G, G') with G' core-free and the action
of G by left translation on the left cosets of G', its points.  The
search enumerates every regular subgroup of the full symmetric group on
the points that is normalized by the translation image of G; each one is
a Hopf-Galois structure on the extension the pair models.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import KeysView
from operator import add, itemgetter
from typing import Iterable

from .catalog import iso_type, type_from_orders
from .errors import BudgetExceeded, CapExceeded, NotNormalClosure
from .groups import (FiniteGroup, SubgroupRef, _divisors, _is_prime,
                     _iso_image_maps, _prime_factors, _totient)
from .perms import (compose, cycle_string, cycles, inverse,
                    uniform_cycle_length)

DEGREE_CAP = 12
CROSS_CHECK_CAP = 8
DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudget:
    """A counter of search work; raises once the limit is hit.

    One node is one permutation product or conjugation computed inside the
    search; each backtrack of `_seed_maps` for an automorphism, found or
    not, costs one node per seed.  Exhaustion is always loud, never a
    silent truncation.  It also counts the stage-1 seeds: `seeds`, one per
    conjugacy class of cyclic subgroups of prime order (see
    `_prime_order_translations`), and `seeds_walked`, one per class of
    those under the automorphisms the search found (see `_seed_maps`); and
    the centralizer walks, one per walked seed and cycle length: `walks`
    run and `walks_skipped` (see `_walked_lengths` and `_search_lengths`).
    `counters()` is the record of them that reports and the command line
    carry.
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
    together with its normal closure, and G's action on the left cosets of
    G' by left translation: point 0 is G' itself, the others are numbered
    as in `_cosets`, which gives `reps` and `coset_of`.

    The constructor computes only the cosets and the core-free check.  The
    rest is built on first read, from G's own `generators()`: the pairs
    (lambda(g), lambda(g^-1)) of `generator_pairs`; the `conjugators`, one
    per pair: lambda(g) with a getter of lambda(g^-1)'s images, so that g
    a g^-1 is `itemgetter(*right(a))(g)`; and, from the generator
    translations alone, the image lambda(G) and its blocks at point 0.
    The blocks need no generator where the suborbits of G' show lambda(G)
    primitive, as at prime degree (see `_read_blocks`).
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
        self._pairs = self._conjugators = self._image = None
        self._blocks = self._block_bits = None

    @staticmethod
    def galois(group: FiniteGroup) -> ExtensionProblem:
        """The Galois case: G' trivial, the action is the regular one."""
        return ExtensionProblem(group, group.trivial_subgroup())

    def translation(self, x: int) -> tuple[int, ...]:
        """The image tuple of the cosets under left translation by x."""
        mul, coset_of = self.group.mul, self.coset_of
        return tuple(coset_of[mul(x, r)] for r in self.reps)

    def generator_pairs(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(lambda(g), lambda(g^-1)) for each generator g of G, built once."""
        if self._pairs is None:
            lams = map(self.translation, self.group.generators())
            self._pairs = tuple((lam, inverse(lam)) for lam in lams)
        return self._pairs

    @property
    def conjugators(self) -> tuple:
        """(lambda(g), getter of lambda(g^-1)'s images) per pair, built once."""
        if self._conjugators is None:
            self._conjugators = tuple((lam, itemgetter(*lam_inv))
                                      for lam, lam_inv in self.generator_pairs())
        return self._conjugators

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
            lams = [lam for lam, _ in self.generator_pairs()]
            queue = [tuple(range(self.degree))]
            image = dict.fromkeys(queue)
            for a in queue:
                for c in map(itemgetter(*a), lams):
                    if c not in image:
                        image[c] = None
                        queue.append(c)
            if len(image) != len(self.group):
                raise RuntimeError("the translation image does not have the "
                                   "order of the group")
            self._image = image
        return self._image.keys()

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks of lambda(G) at point 0, {0} first (`_read_blocks`)."""
        if self._blocks is None:
            self._blocks, self._block_bits = self._read_blocks()
        return self._blocks

    @property
    def block_bits(self) -> tuple[int, ...]:
        """For each point x, the int whose bit i is set when `blocks[i]`
        holds x: the table `_stable_fibers` tests with (`_read_blocks`)."""
        if self._block_bits is None:
            self._blocks, self._block_bits = self._read_blocks()
        return self._block_bits

    def _read_blocks(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        """(blocks, block_bits) from `_walk_blocks`, or with no walk when
        the suborbits of G' (its orbits on the points other than 0) show
        that lambda(G) is primitive (Dixon and Mortimer, Permutation Groups,
        1.5).  A block B at 0 is fixed by G', the stabilizer of 0, so it
        holds the G'-orbit of each of its points: B is {0} plus a union of
        suborbits.  lambda(G) is transitive, so B's translates all have |B|
        points and partition the points, and |B| divides n.  So a block
        other than {0} and all the points needs suborbits whose sizes sum
        to d - 1 for some divisor 1 < d < n.  `sums` holds, as bits, the
        sums reachable from the suborbits walked so far; the orbit of point
        a is G' r_a read through `coset_of`, |G'| products in G and no
        generator of G.  At prime n no d exists and nothing is read."""
        n, members, mul = self.degree, self.subgroup.members, self.group.mul
        wanted = sum(1 << d - 1 for d in range(2, n) if n % d == 0)
        sums, seen = 1, {0}
        for a in range(1, n) if wanted else ():
            if a not in seen:
                orbit = {self.coset_of[mul(h, self.reps[a])] for h in members}
                seen |= orbit
                sums |= sums << len(orbit)
                if sums & wanted:
                    return self._walk_blocks()
        return (frozenset([0]), frozenset(range(n))), (0b11,) + (0b10,) * (n - 1)

    def _walk_blocks(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        """(blocks, block_bits), each block's bits set as it is found.

        The walk starts from {0}, whose block system is the partition
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

        Each root also holds its class's points as an int mask, one OR per
        union, so a pass reads the block at 0 from the mask of 0's root.
        `found` is keyed by that mask; a block's labels and frozenset are
        built only when it is new.
        """
        n, gens = self.degree, [lam for lam, _ in self.generator_pairs()]
        def find(parent, a):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            return a

        found = {1: frozenset([0])}
        systems = [(list(range(n)), [1 << b for b in range(n)])]
        bits = [1] + [0] * (n - 1)
        for labels, masks in systems:
            for a in set(labels) - {labels[0]}:
                parent, mask = labels.copy(), masks.copy()
                parent[a], pending = labels[0], [(labels[0], a)]
                mask[labels[0]] |= mask[a]
                while pending:
                    u, v = pending.pop()
                    for g in gens:
                        x, y = find(parent, g[u]), find(parent, g[v])
                        if x != y:
                            parent[y] = x
                            mask[x] |= mask[y]
                            pending.append((x, y))
                joined = mask[find(parent, 0)]
                if joined not in found:
                    block = frozenset(b for b in range(n) if joined >> b & 1)
                    for b in block:
                        bits[b] |= 1 << len(found)
                    found[joined] = block
                    systems.append(([find(parent, b) for b in range(n)], mask))
        return tuple(found.values()), tuple(bits)


def coset_action(problem: ExtensionProblem) -> ExtensionProblem:
    """`problem` itself, its own coset action: an alias `bench/crosscheck.py` calls."""
    return problem


class HGStructure:
    """One Hopf-Galois structure: a regular, translation-normalized
    permutation subgroup N, held as its image tuples, with its isomorphism
    type and sub-Hopf lattice.

    `_regular_normalized` checks N at construction (else ValueError), and
    its picks are N's generators.  `key`, `generator_strings`,
    `lattice_bits` and `stable_subgroups` read the tuples; `group`, N as a
    `FiniteGroup` with its Cayley table, is built on first read.
    `type_name` is given by the caller, or read from the tuples where
    `_tuple_type` can, or else computed on first read by `iso_type` of
    `group`.
    """

    def __init__(self, problem: ExtensionProblem,
                 elements: Iterable[tuple[int, ...]], type_name: str | None = None):
        self.problem = problem
        try:
            self._key = key = tuple(sorted(elements))
            orders = list(map(_cycle_length_at_0, key))
        except (IndexError, KeyError, TypeError) as error:
            raise ValueError("N is not a set of image tuples") from error
        greedy = sorted(range(len(key)), key=orders.__getitem__, reverse=True)
        self._picks = _regular_normalized([key[i] for i in greedy], problem.degree,
                                          problem.generator_pairs())
        if self._picks is None:
            raise ValueError("N is not a regular group normalized by lambda(G)")
        self._type_name = type_name or _tuple_type(orders, self._picks)
        self._group: FiniteGroup | None = None
        self._bits: int | None = None
        self._lattice: list[frozenset[tuple[int, ...]]] | None = None

    @property
    def group(self) -> FiniteGroup:
        """N as a `FiniteGroup`, its indices in `key` order."""
        if self._group is None:
            self._group = FiniteGroup.from_permutations(
                self._key, name=f"N(deg {self.problem.degree})")
        return self._group

    @property
    def type_name(self) -> str:
        if self._type_name is None:
            self._type_name = iso_type(self.group)
        return self._type_name

    @property
    def lattice_bits(self) -> int:
        """N's sub-Hopf lattice as the image of the Galois correspondence:
        the int whose bit i is set when the fiber N_B over B = `blocks[i]`
        of the problem is in the lattice (`stable_subgroups`), read on first
        use by `_stable_fibers`.  So the lattice has `bit_count()` members,
        and N_B has |B| elements, since N is regular."""
        if self._bits is None:
            self._bits = _stable_fibers(self.problem, self._key)
        return self._bits

    @property
    def stable_subgroups(self) -> list[frozenset[tuple[int, ...]]]:
        """N's sub-Hopf lattice: its subgroups stable under conjugation by
        the translations of G, as sets of image tuples, the trivial group
        first.  They are read through the Galois correspondence, as the
        fibers N_B = {t in N : t[0] in B} over the blocks B of lambda(G) at
        0 (`problem.blocks`) that `lattice_bits` marks, and built on first
        read only (`_fiber_sets`).  Exact: lambda(G) permutes the orbits of
        a stable M <= N, so B = M.0 is a block, and M = N_B since N is
        regular.  Conversely, a stable N_B is a group: for s, t in N_B, some
        h in lambda(G) has h(0) = t(0), so h fixes B and st(0) = h (h^-1 s
        h)(0) lies in B.  g t g^-1 lies in N, so in N_B iff it sends 0 into
        B: the one test is g[t[g^-1[0]]] in B for each generator pair (g,
        g^-1) and each t in N_B."""
        if self._lattice is None:
            self._lattice = _fiber_sets(self.problem.blocks, self._key,
                                        self.lattice_bits)
        return self._lattice

    def key(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of N in sorted order.  The identity sorts
        first, so this is `group.raw_elements()`."""
        return self._key

    def conj_action(self, x: int) -> tuple[int, ...]:
        """Conjugation by the translation of x, as a map on N's indices, for
        the oracle `minimality.g_stable_subgroups`; it normalizes N, as
        checked at construction."""
        lam = self.problem.translation(x)
        conj = _conjugation(lam, inverse(lam))
        return tuple(map(self.group.index_of, map(conj, self._key)))

    def generator_strings(self) -> list[str]:
        """N's generators as cycle strings: the picks of the post-hoc check,
        which walks N by the greedy rule of `FiniteGroup.generators`."""
        return [cycle_string(t) for t in self._picks]

    def __repr__(self) -> str:
        return f"<HGStructure type {self.type_name} degree {self.problem.degree}>"


def _cycle_length_at_0(t: tuple[int, ...]) -> int:
    """The length of t's cycle through point 0: t's order if t is
    semiregular.  The walk stops after len(t) steps, so a tuple that is no
    permutation gives some length and no endless loop."""
    k, j, n = 1, t[0], len(t)
    while j and k < n:
        j, k = t[j], k + 1
    return k


def _tuple_type(orders: list[int], picks) -> str | None:
    """The type of a regular N from its element orders and generators
    `picks`, or None where `type_from_orders` needs a group.  N is abelian
    iff its generators commute pairwise, and, N being regular, s t = t s
    iff both send 0 to the same point, s[t[0]] == t[s[0]]."""
    abelian = all(s[t[0]] == t[s[0]] for s, t in itertools.combinations(picks, 2))
    return type_from_orders(orders, abelian)


def _stable_fibers(problem: ExtensionProblem, key) -> int:
    """The int with bit i set when the fiber of N (its sorted tuples
    `key`) over `problem.blocks[i]` passes the test of
    `HGStructure.stable_subgroups`.  `good` has one bit per block, cleared
    for the blocks that hold t[0] but not g[t[g^-1[0]]]: n - 1 mask steps
    per generator pair, read off the per-problem table `block_bits`."""
    bits = problem.block_bits
    pairs = [(g, gi[0]) for g, gi in problem.generator_pairs()]
    good = (1 << len(problem.blocks)) - 1
    for t in key[1:]:
        miss = ~bits[t[0]]
        for g, a in pairs:
            good &= bits[g[t[a]]] | miss
    return good


def _fiber_sets(blocks, key, good: int) -> list[frozenset[tuple[int, ...]]]:
    """The fibers of N (its sorted tuples `key`) over the blocks whose
    bits `good` sets, as sets of image tuples."""
    by0 = {t[0]: t for t in key}
    return [frozenset(map(by0.__getitem__, block))
            for i, block in enumerate(blocks) if good >> i & 1]


def _regular_normalized(elements, n: int, gen_pairs) -> list[tuple[int, ...]] | None:
    """The post-hoc check of a group given as a collection of image tuples:
    its generators picked in the order given, or None when it fails.

    Regular: n elements whose images of point 0 are all distinct; `by0`
    holds each under that image, and the one fixing 0 is the identity.
    A group: closing the identity under generators picked from the set
    meets every element, and every product it takes lies in the set.  Each
    element not met yet, in the order of `elements`, becomes a generator,
    and the group H closed so far grows by right cosets, as in `_closure`:
    H x, then for each representative r and generator g, r g lies in a
    coset already met or opens the new coset H r g.  `HGStructure` walks N
    by descending element order, then in `key` order: the greedy rule of
    `FiniteGroup.generators`.
    Normalized: g t g^-1 lies in the set, as the element of `by0` at its
    image of 0, for every picked generator t and every pair (g, g^-1) of
    `gen_pairs`.  Conjugation by g is an automorphism, so it then maps the
    group the picks generate into itself.

    Exact for any tuples: only the picks, at most log2 n, must be
    permutations of 0..n-1.  Every element met is then a product of them,
    met where it equals the element of `by0` at its point 0 (`met` holds
    those points), and an element of the set is either that element (no
    two share a point 0) or is picked.  So an accepted set is made of
    permutations, and it is the group its picks generate.

    Every product is written out here, with no permutation kernel.
    """
    points = list(range(n))
    by0 = {t[0]: t for t in elements}
    if len(elements) != n or len(by0) != n or by0.get(0) != tuple(points):
        return None
    met = {0}
    found: list[tuple[int, ...]] = []  # the non-identity elements met
    sub: tuple[tuple[int, ...], ...] = ()

    def add_coset(r) -> bool:
        for c in [r] + [tuple([h[j] for j in r]) for h in sub]:
            if c != by0.get(c[0]):
                return False
            met.add(c[0])
            found.append(c)
        return True

    gens = []
    for x in elements:
        if x[0] in met:
            continue
        if sorted(x) != points:
            return None
        sub = tuple(found)
        gens.append(x)
        if not add_coset(x):
            return None
        reps = [x]
        for r in reps:
            for g in gens:
                y = tuple([r[j] for j in g])
                if y[0] not in met:
                    if not add_coset(y):
                        return None
                    reps.append(y)
                elif y != by0[y[0]]:
                    return None
    for g, gi in gen_pairs:
        for t in gens:
            c = tuple([g[t[j]] for j in gi])
            if c != by0[c[0]]:
                return None
    return gens


# -- the search ----------------------------------------------------------


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


def _conj_orbit(t0, conjugators, visited, budget):
    """The translation-conjugation orbit of t0, or None at the first two of
    its elements that send point 0 to the same point (then the orbit lies
    in no regular N).  Every element met is added to the set `visited`:
    all of them lie in the orbit of t0, so a walk from any of them meets
    the same orbit, kept or dropped, and need not run.

    Each conjugate g a g^-1 is g o (a o g^-1), read with the problem's
    `conjugators`: one getter of g^-1's images per generator pair."""
    by0 = {t0[0]: t0}
    stack = [t0]
    ops = 0
    try:
        while stack:
            a = stack.pop()
            for g, right in conjugators:
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


def _semiregular_centralizer(sigma: tuple[int, ...]):
    """The centralizer walk of the image tuple sigma: for a cycle length d,
    walk(d) yields each permutation commuting with sigma whose cycles all
    have length d, exactly once.

    Such a permutation c maps every cycle of sigma onto a cycle of the same
    length l, shifted by some rotation s: c(z_j) = z'_{j+s}.  So c permutes
    the cycles of length l, and a k-cycle of those cycles whose shifts add
    up to r splits into cycles of length k * l / gcd(r, l).  Fixed points
    are the case l = 1.  The chains of cycles are chosen, length by length
    and each from the first cycle still free, so that this comes out as d.

    A chain sets the images of its own points only, and the choices after
    it read only the cycles still free.  So a walk keeps the elements of
    each such suffix, as images on its points cycle by cycle, and joins a
    chain's rotation blocks to each, placed by one getter per chain (at the
    top, in point order).  Cycles of one length are alike, so a chain size
    whose suffixes are empty is passed over at once.  The order is the
    plain depth-first walk's: chain size, chain, shifts, total, suffix.
    Cycles and rotations serve every d; kept suffixes live for one walk(d).
    """
    found = sorted(cycles(sigma, include_fixed=True), key=len)
    rotations = [[c[s:] + c[:s] for s in range(len(c))] for c in found]

    def walk(d: int):
        memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): [()]}

        def choices(free, points, in_order):
            """The elements of each chain from free[0] in turn, at `points`."""
            a, l = free[0], len(found[free[0]])
            m = sum(len(found[c]) == l for c in free)
            rest, other = free[1:m], free[m:]
            for k in range(1, min(d, m) + 1):
                if d % k or l % (d // k) or not tail(rest[k - 1:] + other):
                    continue
                totals = [r for r in range(l) if math.gcd(r, l) == l * k // d]
                for combo in itertools.permutations(rest, k - 1):
                    left = tuple(x for x in rest if x not in combo) + other
                    heads = [(0, ())]  # (sum of the shifts, blocks) so far
                    for c in combo:
                        heads = [(p + s, h + rot) for p, h in heads
                                 for s, rot in enumerate(rotations[c])]
                    blocks = [h + rotations[a][(r - p) % l]
                              for p, h in heads for r in totals]
                    joined = itertools.starmap(add, itertools.product(blocks, tail(left)))
                    if in_order and combo == rest[:k - 1]:
                        yield joined  # already in place
                    else:
                        raw = [x for c in (a,) + combo + left for x in found[c]]
                        at = dict(zip(raw, itertools.count()))
                        yield map(itemgetter(*map(at.__getitem__, points)), joined)

        def tail(free):
            if free not in memo:
                points = [x for c in free for x in found[c]]
                memo[free] = list(itertools.chain(*choices(free, points, True)))
            return memo[free]

        flat = [x for c in found for x in c]
        top = choices(tuple(range(len(found))), range(len(sigma)), flat == sorted(flat))
        return itertools.chain.from_iterable(top)

    return walk


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


def _prime_order_translations(problem: ExtensionProblem):
    """(seeds, class_of, kinds) for stage 1, read from lambda(G) alone and
    spending no nodes: one seed per conjugacy class of cyclic subgroups of
    prime order of lambda(G); the index of its seed for every generator of
    every group of that class; and each class's (p, size of that set).

    The first element of prime order p in `problem.image` that no earlier
    class holds is a seed t, and its class is walked from all of t, t^2,
    ..., t^(p-1) by conjugating with the generator pairs.  One seed per
    class of groups suffices: conjugate cyclic groups have conjugate
    centralizers, so the centralizer walks of their generators meet the
    same orbits (see `_viable_atoms`).  The conjugations read the problem's
    `conjugators`.
    """
    identity = tuple(range(problem.degree))
    conjugators = problem.conjugators
    class_of: dict[tuple[int, ...], int] = {}
    seeds, kinds = [], []
    for t in problem.image:
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
            for g, right in conjugators:
                c = itemgetter(*right(a))(g)
                if c not in class_of:
                    class_of[c] = i
                    stack.append(c)
        kinds.append((p, len(class_of) - met))
    return seeds, class_of, kinds


def _seed_maps(problem: ExtensionProblem, seeds, class_of, kinds, budget):
    """(label, maps) for stage 1: label[i] is the least seed whose class an
    automorphism of G maps onto seed i's, and maps are the pairs (phibar,
    phibar^-1) kept; the seeds with label[i] == i are walked.

    `seeds`, `class_of` and `kinds` are as `_prime_order_translations`
    returns them.  Only Galois problems (G' trivial) look for maps; the
    others walk every seed with no map.  An automorphism phi of G permutes
    the points by phibar(i) = coset_of[phi(reps[i])], and phibar lambda(g)
    phibar^-1 = lambda(phi(g)).  So phibar maps the seed class of sigma
    onto the class of phibar sigma phibar^-1, and the atoms met from sigma
    onto the atoms met from it (see `_viable_atoms`).  An automorphism
    keeps the order p of a generator and the number of generators of the
    conjugates of <sigma>, so only classes of one kind can merge.

    The seeds are taken in index order.  A seed not merged yet is tried
    against each walked root r of its kind, by one backtrack over the
    automorphisms phi that send x, the element with lambda(x) = seeds[r],
    into the seed's class (`_iso_image_maps` on a generating sequence that
    starts with x).  The first phi found is kept, and it merges every two
    classes it maps onto each other: `label` takes the least seed of each
    merged set.  A seed that no backtrack reaches is a root.  Each backtrack
    is exhaustive, so the roots are the least seeds of the orbits of Aut(G)
    on the classes, as a scan of all of Aut(G) gives them.  Each one costs
    len(seeds) nodes, as many as the conjugations of the seeds by a kept
    map.
    """
    label = list(range(len(seeds)))
    maps = []
    if problem.subgroup.order > 1:
        return label, maps
    g = problem.group
    reps, coset_of = problem.reps, problem.coset_of
    members: dict[int, list[int]] = {}
    for t, i in class_of.items():
        members.setdefault(i, []).append(reps[t[0]])
    roots: list[tuple[int, tuple[int, ...]]] = []  # (seed, gens from its x)
    for j in range(len(seeds)):
        if label[j] != j:
            continue
        for r, gens in roots:
            if kinds[r] != kinds[j]:
                continue
            budget.spend(len(seeds))
            phi = next(_iso_image_maps(g, g, gens, members[j]), None)
            if phi is not None:
                break
        else:
            x = reps[seeds[j][0]]
            roots.append((j, g._grow((0,), (), (x, *g.generators()))[1]))
            continue
        bar = tuple(coset_of[phi[r]] for r in reps)
        bar_inv = inverse(bar)
        maps.append((bar, bar_inv))
        conj = _conjugation(bar, bar_inv)
        for i, sigma in enumerate(seeds):
            a, b = sorted((label[i], label[class_of[conj(sigma)]]))
            label = [a if x == b else x for x in label]
    return label, maps


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


def _viable_atoms(problem: ExtensionProblem, budget: NodeBudget, lengths):
    """Stage 1: orbit inventory, seeded from centralizers, over the cycle
    lengths `lengths` (the search passes those of `_search_lengths`).

    Every translation-conjugation orbit of semiregular permutations whose
    cycles have a length in `lengths` and whose elements send point 0 to
    distinct points is grown to the group it generates, kept when that
    group does too (see `_closure`).  Every regular normalized N is a union
    of such atoms over all lengths.  Returns (atoms, maps):
    the (atom, its generators) pairs, sorted by atom, where an atom reached
    from several orbits keeps the generators of the first; and the maps
    (phibar, phibar^-1) that `_seed_maps` kept, both empty, with no image
    and no seed, when `lengths` is.  It adds to the four stage-1 counters.

    The orbits are found from seeds lambda(x) for one x of prime order p
    per class of the cyclic groups <x> of G (see
    `_prime_order_translations`).  Take t != 1 in such an orbit O.  Then
    |O| <= n - 1 < |G|, so the centralizer of t in the translation image
    is nontrivial and holds some lambda(y) of prime order; with <y> =
    g <x> g^-1 for a seed x, the conjugate of t by lambda(g)^-1 lies in O
    and commutes with lambda(x).  So walking the semiregular elements of
    the centralizers of the seeds in Sym(n) meets every such orbit, and the
    atoms are exactly those of a walk over all semiregular permutations.
    A seed of prime p walks only the cycle lengths of `lengths` that
    `_walked_lengths` gives for p, n and |G|: the kept orbits of every other
    length are met from the seeds of a larger prime.  That rule holds
    length by length, so it holds for any `lengths`.  The budget counts each
    walk run and each length skipped, by that rule or by `lengths`.
    Conjugation keeps cycle type, so every orbit lies in one length, and
    `visited` holds elements of the walked lengths only.  No orbit is
    walked twice: a walk adds every element it met to `visited`, whether
    its orbit is kept or dropped (see `_conj_orbit`), and an element in
    `visited` starts no walk.

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
    if not lengths:
        return [], []
    n, order = problem.degree, len(problem.group)
    trivial = frozenset([tuple(range(n))])
    seeds, class_of, kinds = _prime_order_translations(problem)
    budget.seeds += len(seeds)
    label, maps = _seed_maps(problem, seeds, class_of, kinds, budget)
    conjugators = problem.conjugators
    walked = [(sigma, kinds[i][0]) for i, sigma in enumerate(seeds) if label[i] == i]
    budget.seeds_walked += len(walked)
    atoms: dict[frozenset, tuple] = {}
    visited: set[tuple[int, ...]] = set()
    for sigma, p in walked:
        walks = [d for d in _walked_lengths(p, n, order) if d in lengths]
        budget.walks += len(walks)
        budget.walks_skipped += len(_divisors(n)) - len(walks)
        walk = _semiregular_centralizer(sigma)
        for d in walks:
            for t in walk(d):
                if t in visited:
                    continue
                orbit = _conj_orbit(t, conjugators, visited, budget)
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

    A group p reached with start s is joined with the atoms of index >= s,
    and only at its first arrival: `walked` holds the groups walked, and a
    later arrival is skipped.  No join is lost, since the first arrival has
    the least start.  The walk meets the chains of atoms (indices
    ascending, each atom outside the join before it) in lexicographic
    order, and a chain to p holds atoms inside p only.  So the first chain
    to p is the greedy one, each atom of p in index order that the join
    before it does not hold; it ends at the least m such that the atoms of
    p up to index m join to p, and no chain to p ends below m.  A skipped
    arrival cuts only joins that an earlier walk of the same group, from a
    start no higher, made before it.

    A join is skipped before any product when p and a hold two distinct
    elements that agree on point 0: both lie in the join, so `_closure`
    would return None.  Two int tables, built once per call over the atoms
    below order n, give all of p's candidates in one pass over p's
    elements: bit j of `has[t]` is set when atom j holds the element t, and
    bit j of `cover[x]` when atom j has an element that sends 0 to x.  For
    t in p, bit j of `has[t] | ~cover[t[0]]` is clear iff atom j has an
    element at t[0] other than t, so `ok`, the AND of these over p with
    the bits below `start` cleared, holds exactly the atoms from `start` on
    that clash with p nowhere, and the loop visits its bits in ascending
    index.  p and a are semiregular, one element per point covered, so
    |a & p| is at most the number of points both cover, with equality iff
    no point carries two distinct elements: `ok` is the atoms that pass
    (a_mask & p_mask).bit_count() == len(a & p), where a mask holds the
    bits t[0] of a group's elements.  An atom inside p, or inside a
    semiregular group that holds p, clashes with p nowhere, so no atom that
    `ok` drops is read below.  And an atom a in `ok` lies inside p iff its
    points do, since p's element at each of them is a's: `not a_mask &
    ~p_mask`.

    A join is also read without a closure when p has an index-2 join q,
    one already closed from p with |q| = 2|p|, that holds a.  Then p < p v
    a <= q, since a is not inside p, and |p v a| is a multiple of |p| by
    Lagrange, so it is 2|p| and p v a = q.  `p_doubles` keeps these q, with
    their generators, over p's one walk.
    """
    results: set[frozenset] = set()
    smaller = []
    for a, a_gens in atoms:
        if len(a) == n:
            results.add(a)
        else:
            smaller.append((a, a_gens, sum(1 << t[0] for t in a)))
    if not smaller:  # no join to make, as on every primitive problem
        return results
    has: dict[tuple[int, ...], int] = {}
    cover = [0] * n
    for j, (a, _, _) in enumerate(smaller):
        for t in a:
            has[t] = has.get(t, 0) | 1 << j
            cover[t[0]] |= 1 << j
    clear = [~bits for bits in cover]
    every = (1 << len(smaller)) - 1
    walked: set[frozenset] = set()

    def extend(p, p_gens, start):
        if len(p) == n:
            results.add(p)
            return
        if p in walked:
            return
        walked.add(p)
        p_doubles = []
        ok, p_mask = every >> start << start, 0
        for t in p:
            ok &= has.get(t, 0) | clear[t[0]]
            p_mask |= 1 << t[0]
        while ok:
            j = (ok & -ok).bit_length() - 1
            ok &= ok - 1
            a, a_gens, a_mask = smaller[j]
            if not a_mask & ~p_mask:
                continue
            for grown in p_doubles:
                if a <= grown[0]:
                    break
            else:
                grown = _closure(p, p_gens, a_gens, n, budget)
                if grown is None:
                    continue
                if len(grown[0]) == 2 * len(p):
                    p_doubles.append(grown)
            extend(*grown, j + 1)

    for j, (a, a_gens, _) in enumerate(smaller):
        extend(a, a_gens, j + 1)
    return results


def _search_lengths(problem: ExtensionProblem) -> list[int]:
    """The cycle lengths that stage 1 walks: every divisor of n, unless
    lambda(G) is primitive (two blocks at point 0) and n = p^k or n < 60.
    Then they are [p] when n = p^k and |G| divides |AGL(k,p)|, and none
    otherwise, so that the search reads no image, no seed and no node.
    Either way the search finds every regular normalized N, by five facts.

    (1) A minimal N is characteristically simple.  lambda(G) normalizes N,
    so conjugation by each lambda(g) is an automorphism of N, and every
    characteristic subgroup of N is lambda(G)-stable; a minimal N has no
    stable subgroup but 1 and N, so it is T^k for a simple T.  If n = p^k,
    |T| is a power of p, so T = C_p and N = E(p,k), for any n.  Otherwise T
    is nonabelian, so |T| >= 60: if n < 60 is not a prime power, there is
    no minimal N.

    (2) A minimal N is one stage-1 atom.  The lambda(G)-orbit O of any
    t != 1 in N lies in N, so its elements send 0 to distinct points, and
    the group it generates is a nontrivial stable subgroup of N: it is N.
    By (1), t has order p and, N being semiregular, every cycle of t has
    length p.  So O is a kept orbit of cycle length p, which stage 1 over
    that length alone meets (`_viable_atoms`, whose skip rule holds length
    by length), and N is its atom.

    (3) On a primitive problem every N is minimal.  The Galois
    correspondence maps the stable subgroups of N injectively into the
    blocks of lambda(G) at 0 (M -> M.0, see `HGStructure.stable_subgroups`).
    Primitive means those blocks are {0} and all the points only
    (`len(problem.blocks) == 2`), so N has at most two stable subgroups, 1
    and N.  So by (2) every N is an atom at length p.

    (4) A minimal N bounds |G|.  By (1) it is E(p,k), and it is regular,
    so its normalizer in Sym(n) is Hol(N) = AGL(k,p), of order
    n (n - 1)(n - p) ... (n - p^(k-1)).  lambda(G) normalizes N and lambda
    is faithful (G' is core-free), so |G| divides that order.  When it
    does not, there is no minimal N.  At k = 1 this is Childs' (1989)
    test: |G| divides p(p - 1).  Here and in (1), where the suborbits of
    G' show lambda(G) primitive (`ExtensionProblem._read_blocks`, always
    at prime degree), no generator of G is read either.

    (5) On a primitive problem every atom has order n, so `_combine_atoms`
    returns the atoms as they are.  An atom A is a lambda(G)-stable
    semiregular group, so lambda(G) permutes the orbits of A, which are
    therefore blocks.  Primitivity leaves them single points or all the
    points, and A != 1 is semiregular, so no element but 1 fixes 0: A is
    transitive, hence regular, of order n.  Conversely an atom of order n
    is regular and, generated by a stable set, normalized.
    """
    n = problem.degree
    primes = _prime_factors(n)
    if len(problem.blocks) > 2 or (n >= 60 and len(primes) > 1):
        return _divisors(n)
    if len(primes) > 1:
        return []
    agl, q = n, 1
    while q < n:
        agl *= n - q
        q *= primes[0]
    return [] if agl % len(problem.group) else primes


def enumerate_regular_normalized(problem: ExtensionProblem, *,
                                 degree_cap: int = DEGREE_CAP,
                                 budget: NodeBudget | None = None) -> list[HGStructure]:
    """All regular subgroups of Sym(points) normalized by the translation
    image of G, each exactly once, in canonical order.

    Every result is re-checked post hoc as its `HGStructure` is built,
    independently of the pruning (a failure raises RuntimeError), and
    reads its lattice like any other; N's `FiniteGroup` is built only
    where its type is computed.

    Every problem takes the one route: stage 1 walks one seed per class of
    cyclic subgroups of prime order (see `_prime_order_translations`),
    each over the cycle lengths of `_search_lengths` that `_walked_lengths`
    gives, and stage 2 joins the atoms found (`_combine_atoms`).  For a
    Galois problem, it walks one seed per class under some automorphisms
    of G and maps the atoms found to the others (see `_viable_atoms`).  An
    N that `_tuple_type` does not type is typed by `iso_type` once per
    orbit of those maps: conjugation by phibar is an isomorphism from N to
    phibar N phibar^-1.
    """
    n = problem.degree
    if n > degree_cap:
        raise CapExceeded(f"enumeration capped at degree {degree_cap}, got {n}")
    if budget is None:
        budget = NodeBudget()
    lengths = _search_lengths(problem)
    atoms, maps = _viable_atoms(problem, budget, lengths)
    groups = _combine_atoms(atoms, n, budget)
    type_of: dict[frozenset, str] = {}
    structures = []
    for fs in groups:
        try:
            structure = HGStructure(problem, fs, type_of.get(fs))
        except ValueError as error:
            raise RuntimeError("search produced an invalid subgroup; "
                               "this is a bug in the pruning") from error
        if structure._type_name is None:  # its tuples do not fix N's type
            type_of[fs] = structure.type_name
            _close_under(type_of, [fs], maps, budget, lambda name, _: name)
        structures.append(structure)
    structures.sort(key=lambda s: (s.type_name, s.key()))
    return structures


def translation_structure(problem: ExtensionProblem, members) -> HGStructure:
    """The structure whose N is the translation image of a subgroup of G.
    Valid whenever the image is regular and normalized (e.g. the image of
    a normal complement of G'); `HGStructure` raises ValueError otherwise."""
    return HGStructure(problem, {problem.translation(x) for x in members})


def enumerate_via_transversal(problem: ExtensionProblem, *,
                              budget: NodeBudget | None = None
                              ) -> list[tuple[tuple[int, ...], ...]]:
    """Independent second engine for small degrees.

    Regularity forces one element per image of point 0, so backtrack over
    that transversal directly, closing the partial group after every choice.
    Used to cross-check the orbit engine; returns each N as its sorted image
    tuples (what `HGStructure.key` gives), in sorted order.
    """
    n = problem.degree
    if n > CROSS_CHECK_CAP:
        raise CapExceeded(f"transversal engine capped at degree "
                          f"{CROSS_CHECK_CAP}, got {n}")
    if budget is None:
        budget = NodeBudget()
    gen_pairs = problem.generator_pairs()
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
        if _regular_normalized(fs, n, gen_pairs) is None:
            raise RuntimeError("transversal search produced an invalid subgroup")
    return sorted(tuple(sorted(fs)) for fs in results)
