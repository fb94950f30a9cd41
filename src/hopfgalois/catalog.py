"""Canonical names for small groups.

Covers every group of order <= 16 plus the parametric families (cyclic,
dihedral, dicyclic/quaternion, symmetric, alternating, elementary abelian,
abelian invariant products, holomorphs of small cyclic groups).  Groups
outside the catalog get a deterministic fingerprint label.
"""

from __future__ import annotations

import hashlib
import math

from .errors import CapExceeded
from .groups import (ISO_CAP, FiniteGroup, _fingerprint, _is_prime,
                     abelian_invariants, alternating, are_isomorphic, dicyclic,
                     dihedral, direct_product, holomorph, quaternion, symmetric)


def _metacyclic_2(n: int, t: int, name: str) -> FiniteGroup:
    # C_n extended by an involution acting as multiplication by t (t^2 = 1 mod n)
    assert (t * t) % n == 1

    def mul(x, y):
        a, s = x
        b, t_ = y
        return ((a + (t if s else 1) * b) % n, s ^ t_)

    def inv(x):
        a, s = x
        return ((-a) % n if s == 0 else (-t * a) % n, s)

    elems = [(a, s) for a in range(n) for s in (0, 1)]
    return FiniteGroup(elems, mul, inv, identity=(0, 0), name=name)


def _c4_by_c4() -> FiniteGroup:
    # <a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>
    def mul(x, y):
        a, s = x
        b, t = y
        return ((a + (b if s % 2 == 0 else -b)) % 4, (s + t) % 4)

    elems = [(a, s) for a in range(4) for s in range(4)]
    return FiniteGroup(elems, mul, None, identity=(0, 0), name="C4 : C4")


def _klein_by_c4() -> FiniteGroup:
    # C4 acting on C2 x C2 through its quotient of order 2, by swapping
    def mul(x, y):
        (a1, a2), s = x
        (b1, b2), t = y
        if s % 2:
            b1, b2 = b2, b1
        return (((a1 + b1) % 2, (a2 + b2) % 2), (s + t) % 4)

    elems = [((a1, a2), s) for a1 in (0, 1) for a2 in (0, 1) for s in range(4)]
    return FiniteGroup(elems, mul, None, identity=((0, 0), 0), name="(C2 x C2) : C4")


# Central product of the order-8 dihedral group with C4 (identified centers).
# Elements are (phase, word) pairs with phases in Z4 and words multiplying
# like the projective two-letter sign system below; the cocycle table _OMEGA
# records the phase picked up by each word product.
_OMEGA = {(1, 3): 1, (3, 1): 3, (3, 2): 1, (2, 3): 3, (2, 1): 1, (1, 2): 3}


def _central_product_16() -> FiniteGroup:
    def mul(x, y):
        s, p = x
        t, q = y
        return ((s + t + _OMEGA.get((p, q), 0)) % 4, p ^ q)

    def inv(x):
        s, p = x
        return ((-s) % 4, p)

    elems = [(s, p) for s in range(4) for p in range(4)]
    return FiniteGroup(elems, mul, inv, identity=(0, 0), name="D4 o C4")


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


_CANDIDATE_CACHE: dict[int, list[tuple[str, FiniteGroup]]] = {}


def _nonabelian_candidates(m: int) -> list[tuple[str, FiniteGroup]]:
    if m in _CANDIDATE_CACHE:
        return _CANDIDATE_CACHE[m]
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
        out.extend([
            ("SD16", _metacyclic_2(8, 3, "SD16")),
            ("M16", _metacyclic_2(8, 5, "M16")),
            ("C4 : C4", _c4_by_c4()),
            ("(C2 x C2) : C4", _klein_by_c4()),
            ("D4 x C2", direct_product(dihedral(4), _cyclic2())),
            ("Q8 x C2", direct_product(quaternion(8), _cyclic2())),
            ("D4 o C4", _central_product_16()),
        ])
    for k in range(3, 25):
        if k * _totient(k) == m:
            from .groups import cyclic
            out.append((f"Hol(C{k})", holomorph(cyclic(k))))
    _CANDIDATE_CACHE[m] = out
    return out


def _cyclic2() -> FiniteGroup:
    from .groups import cyclic
    return cyclic(2)


def fingerprint_label(g: FiniteGroup) -> str:
    digest = hashlib.sha1(repr(_fingerprint(g)).encode()).hexdigest()[:8]
    return f"G{len(g)}#{digest}"


def iso_type(g: FiniteGroup) -> str:
    """Canonical name of the isomorphism type, or a fingerprint label."""
    m = len(g)
    if m > ISO_CAP:
        return fingerprint_label(g)
    if g.is_abelian():
        inv = abelian_invariants(g)
        if len(inv) <= 1:  # () for the trivial group
            return f"C{m}"
        d = inv[0]
        if _is_prime(d) and all(x == d for x in inv):
            return f"E({d},{len(inv)})"
        return " x ".join(f"C{d}" for d in inv)
    for name, cand in _nonabelian_candidates(m):
        try:
            if are_isomorphic(g, cand):
                return name
        except CapExceeded:
            break
    return fingerprint_label(g)
