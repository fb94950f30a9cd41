"""Canonical names for small groups.

Covers every group of order <= 16 plus the parametric families (cyclic,
dihedral, dicyclic/quaternion, symmetric, alternating, elementary abelian,
abelian invariant products, holomorphs of small cyclic groups).  The
non-abelian candidates are built by the group constructors only: the
order-16 ones are direct products or split extensions n : C_k from
`semidirect_product`, which checks the action.  Groups outside the
catalog get a deterministic fingerprint label.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable

from .errors import CapExceeded
from .groups import (ISO_CAP, FiniteGroup, _fingerprint, _is_prime, _totient,
                     alternating, are_isomorphic, cyclic, dicyclic, dihedral,
                     direct_product, elementary_abelian, holomorph,
                     invariant_factors, quaternion, semidirect_product,
                     symmetric)
from .perms import compose


def _cyclic_extension(n: FiniteGroup, k: int, act: Callable,
                      name: str) -> FiniteGroup:
    """n : C_k, the generator of C_k acting on n's raw elements by `act`."""
    step = tuple(n.index_of(act(x)) for x in n.raw_elements())
    tables = [tuple(range(len(n)))]
    for _ in range(k - 1):
        tables.append(compose(step, tables[-1]))
    return semidirect_product(n, cyclic(k), tables, name=name)


@functools.cache
def _nonabelian_candidates(m: int) -> list[tuple[str, FiniteGroup]]:
    out: list[tuple[str, FiniteGroup]] = []
    fact = 1
    t = 1
    while fact < m:
        t += 1
        fact *= t
        if fact == m and t >= 3:
            out.append((f"S{t}", symmetric(t)))
        if fact == 2 * m and t >= 4:
            out.append((f"A{t}", alternating(t)))
    if m % 2 == 0 and m >= 6:
        out.append((f"D{m // 2}", dihedral(m // 2)))
    if m % 4 == 0 and m >= 8:
        q = dicyclic(m // 4)
        out.append((q.name, q))
    if m == 16:
        c8, c4, c2 = cyclic(8), cyclic(4), cyclic(2)
        out.extend((g.name, g) for g in [
            _cyclic_extension(c8, 2, lambda a: 3 * a % 8, "SD16"),
            _cyclic_extension(c8, 2, lambda a: 5 * a % 8, "M16"),
            _cyclic_extension(c4, 4, lambda a: -a % 4, "C4 : C4"),
            _cyclic_extension(elementary_abelian(2, 2), 4, lambda v: v[::-1],
                              "(C2 x C2) : C4"),
            direct_product(dihedral(4), c2),
            direct_product(quaternion(8), c2),
            # the Pauli group, on the index pairs (a, x) of C4 x C2
            _cyclic_extension(direct_product(c4, c2), 2,
                              lambda v: ((v[0] + 2 * v[1]) % 4, v[1]), "D4 o C4"),
        ])
    for k in range(3, 25):
        if k * _totient(k) == m:
            out.append((f"Hol(C{k})", holomorph(cyclic(k))))
    return out


def fingerprint_label(g: FiniteGroup) -> str:
    digest = hashlib.sha1(repr(_fingerprint(g)).encode()).hexdigest()[:8]
    return f"G{len(g)}#{digest}"


@functools.cache
def _nonabelian_by_order_statistics(m: int) -> dict[tuple[int, ...], str]:
    """Sorted element orders -> the first candidate of order m with them."""
    return {tuple(sorted(map(g.element_order, range(m)))): name
            for name, g in reversed(_nonabelian_candidates(m))}


def type_from_orders(orders: list[int], abelian: bool) -> str | None:
    """`iso_type`'s name for a group with these element orders, or None
    where they do not fix it.  They do for an abelian group, and for a
    nonabelian one of order < 16: S3, D4, Q8, D5, A4, D6, Dic3 and D7 are
    candidates with pairwise distinct orders (16 is the least order where
    two groups share them: C4 x C4 and C2 x Q8).  The answer is a function
    of the multiset of orders and `abelian` alone, so it is kept per
    (sorted orders, abelian) for the life of the process."""
    return _type_from_sorted_orders(tuple(sorted(orders)), abelian)


@functools.cache
def _type_from_sorted_orders(orders: tuple[int, ...], abelian: bool) -> str | None:
    m = len(orders)
    if m > ISO_CAP:
        return None
    if abelian:
        inv = invariant_factors(orders)
        if len(inv) <= 1:  # () for the trivial group
            return f"C{m}"
        d = inv[0]
        if _is_prime(d) and all(x == d for x in inv):
            return f"E({d},{len(inv)})"
        return " x ".join(f"C{d}" for d in inv)
    if m < 16:
        return _nonabelian_by_order_statistics(m).get(orders)
    return None


def iso_type(g: FiniteGroup) -> str:
    """Canonical name of the isomorphism type, or a fingerprint label."""
    m = len(g)
    if m > ISO_CAP:
        return fingerprint_label(g)
    if g.is_abelian():
        return type_from_orders(list(map(g.element_order, range(m))), True)
    for name, cand in _nonabelian_candidates(m):
        try:
            if are_isomorphic(g, cand):
                return name
        except CapExceeded:
            break
    return fingerprint_label(g)
