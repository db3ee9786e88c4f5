"""Homotopy invariants and equivalence decisions.

A pointed rational function is classified by its degree, the stable Witt
class of its Bezout form, and the exact determinant of that form (carried
here as the exact resultant, from which det = (-1)^{n(n-1)/2} res).  The
Witt class is read off the continued-fraction values (ratmap.cf_values), a
diagonal form in the stable class of the Bezout form (isometric to it
outside characteristic 2).  The values and the point's resultant come from
one Euclidean remainder sequence each (poly.remainder_sequence), so a
decision takes O(n^2) field operations and builds no n x n matrix.  The
pair (Witt class, determinant) ranges over the fiber product cut out by
the discriminant; the coherence check below is the stronger statement that
the values multiply to the exact determinant.

A decision compares the invariants cheapest first: degree, resultant and,
over Q, signature need no prime, so the full invariant, whose Hasse symbols
need the primes of the resultant, is built only when these agree.

Unpointed classes reduce the determinant further modulo 2n-th powers;
maps to higher-dimensional projective spaces are classified by the degree
alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .fields import FieldError, Rationals, factorize, rational_root
from .poly import Poly, PolyRing, poly_xgcd, const, zero
from .quadform import (
    WittInvariant,
    invariant_from_values,
    relevant_primes_q,
    witt_sum,
    witt_tensor,
)
from .ratmap import PointedRat, UnpointedRat, cf_values, normalize_unpointed


def _detbez_sign(n: int) -> int:
    return -1 if (n * (n - 1) // 2) % 2 else 1


@dataclass(frozen=True)
class PointedInvariant:
    """Degree, stable Witt class of the Bezout form, exact resultant."""

    n: int
    witt: WittInvariant | None
    res: object
    field: object

    def detbez(self):
        """Exact determinant of the Bezout form."""
        if self.n == 0:
            return self.field.one
        v = self.res
        return self.field.neg(v) if _detbez_sign(self.n) < 0 else v

    def _key(self):
        witt_key = None if self.witt is None else self.witt._key()
        return (self.n, witt_key, self.res)

    def __eq__(self, other):
        return (
            isinstance(other, PointedInvariant)
            and self.field == other.field
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash(self._key())


def pointed_invariant(f: PointedRat) -> PointedInvariant:
    field = f.ring
    if isinstance(field, PolyRing):
        raise FieldError("invariants are taken over the base field")
    if f.n == 0:
        return PointedInvariant(0, None, field.one, field)
    return _pointed_invariant_cached(f)


def _checked_values(f: PointedRat) -> tuple:
    """cf_values(f) of a field point of degree >= 1, after the coherence
    check: the values multiply to the exact determinant of the Bezout form
    (so the discriminant is that of the determinant).  The cheap stage of a
    decision and the full invariant both read them here, and each runs the
    check; the point keeps its values, so a decision expands it once."""
    field = f.ring
    values = cf_values(f)
    det = f.res if _detbez_sign(f.n) > 0 else field.neg(f.res)
    if isinstance(field, Rationals):
        # cross-multiplied on integers: the values are in lowest terms, and
        # no Fraction is built
        coherent = (math.prod(v.numerator for v in values) * det.denominator
                    == det.numerator * math.prod(v.denominator for v in values))
    else:
        coherent = field.is_zero(field.sub(reduce(field.mul, values), det))
    if not coherent:
        raise FieldError("continued-fraction values do not multiply to det Bez")
    return values


def _signature(f: PointedRat) -> int:
    """The number of positive values of a Q point of degree >= 1: with the
    rank, its signature."""
    return sum(1 for v in _checked_values(f) if v > 0)


@lru_cache(maxsize=65536)
def _pointed_invariant_cached(f: PointedRat) -> PointedInvariant:
    field = f.ring
    values = _checked_values(f)
    relevant = None
    if isinstance(field, Rationals):
        relevant = relevant_primes_q(f.A.coeffs + f.B.coeffs, f.res)
    return PointedInvariant(f.n, invariant_from_values(field, values, relevant), f.res, field)


def sum_invariant(i1: PointedInvariant, i2: PointedInvariant) -> PointedInvariant:
    """Invariant of an addition of functions: Witt sum, determinant product.

    On resultants the product twists by (-1)^{n1 n2} (the determinant of
    the Bezout form is the multiplicative coordinate).
    """
    if i1.field != i2.field:
        raise FieldError("invariants over different fields")
    field = i1.field
    if i1.n == 0:
        return i2
    if i2.n == 0:
        return i1
    res = field.mul(i1.res, i2.res)
    if (i1.n * i2.n) % 2:
        res = field.neg(res)
    return PointedInvariant(i1.n + i2.n, witt_sum(i1.witt, i2.witt), res, field)


def compose_invariant(i1: PointedInvariant, i2: PointedInvariant) -> PointedInvariant:
    """Invariant of a composition: tensor the forms; on determinants,
    d1^{rank b2} * d2^{(rank b1)^2}."""
    if i1.field != i2.field:
        raise FieldError("invariants over different fields")
    field = i1.field
    n1, n2 = i1.n, i2.n
    n3 = n1 * n2
    d1, d2 = i1.detbez(), i2.detbez()
    d3 = field.mul(field.pow(d1, n2), field.pow(d2, n1 * n1))
    if n3 == 0:
        return PointedInvariant(0, None, field.one, field)
    witt = witt_tensor(i1.witt, i2.witt)
    res3 = field.mul(d3, field.from_int(_detbez_sign(n3)))
    return PointedInvariant(n3, witt, res3, field)


def pointed_difference(f: PointedRat, g: PointedRat) -> str | None:
    """The first invariant on which two field points differ, or None when
    they are in the same naive homotopy class.

    The invariants are compared cheapest first, and a mismatch answers at
    once: the degree, then the exact resultant each point holds, then over
    Q the signature (the positive continued-fraction values, after the
    coherence check).  None of these needs a prime.  Only when all agree
    are the full invariants built, which over Q factor the resultant for
    the Hasse symbols.  An identical point is equivalent without either
    stage.  The reason names that one invariant: "degree a vs b",
    "resultant r vs s", or "stable Witt class differs" for a signature or
    a full-invariant mismatch."""
    field = f.ring
    if field != g.ring:
        raise FieldError("points over different fields")
    if isinstance(field, PolyRing):
        raise FieldError("invariants are taken over the base field")
    if f.A == g.A and f.B == g.B:
        return None
    if f.n != g.n:
        return f"degree {f.n} vs {g.n}"
    if f.res != g.res:
        return f"resultant {field.format(f.res)} vs {field.format(g.res)}"
    if (isinstance(field, Rationals) and _signature(f) != _signature(g)
            or pointed_invariant(f) != pointed_invariant(g)):
        return "stable Witt class differs"
    return None


def pointed_equiv(f: PointedRat, g: PointedRat) -> bool:
    """Same naive homotopy class iff all invariants agree, compared
    cheapest first (pointed_difference)."""
    return pointed_difference(f, g) is None


# ---------------------------------------------------------------------------
# Unpointed classes
# ---------------------------------------------------------------------------


def res_class_mod_2n(field, r, n: int):
    """Canonical representative of r modulo 2n-th powers of units."""
    if isinstance(field, Rationals):
        r = field.coerce(r)
        sign = -1 if r < 0 else 1
        exps: dict[int, int] = {}
        for p, e in factorize(abs(r.numerator)).items():
            exps[p] = exps.get(p, 0) + e
        for p, e in factorize(r.denominator).items():
            exps[p] = exps.get(p, 0) - e
        out = Fraction(sign)
        for p in sorted(exps):
            out *= Fraction(p) ** (exps[p] % (2 * n))
        return out
    if field.p == 2:
        return 1
    # r = g^E; with zeta = g^((p-1)/d) of order d, r^((p-1)/d) = zeta^(E mod d),
    # so E mod d is found among d <= 2n powers instead of by a discrete log
    p = field.p
    if r % p == 0:
        raise FieldError("res_class_mod_2n(0)")
    d = math.gcd(2 * n, p - 1)
    g = field.generator()
    t = pow(r, (p - 1) // d, p)
    zeta = pow(g, (p - 1) // d, p)
    e, z = 0, 1
    while z != t:
        e, z = e + 1, z * zeta % p
    return pow(g, e, p)


@dataclass(frozen=True)
class UnpointedInvariant:
    n: int
    witt: WittInvariant | None
    res_class: object
    field: object

    def _key(self):
        witt_key = None if self.witt is None else self.witt._key()
        return (self.n, witt_key, self.res_class)

    def __eq__(self, other):
        return (
            isinstance(other, UnpointedInvariant)
            and self.field == other.field
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash(self._key())


def unpointed_invariant(u: UnpointedRat) -> UnpointedInvariant:
    return _unpointed_invariant_of(normalize_unpointed(u)[0])


def _unpointed_invariant_of(f: PointedRat) -> UnpointedInvariant:
    """The unpointed invariant of a point with normalized representative f."""
    base = pointed_invariant(f)
    if base.n == 0:
        return UnpointedInvariant(0, None, base.field.one, base.field)
    return UnpointedInvariant(
        base.n, base.witt, res_class_mod_2n(base.field, base.res, base.n), base.field
    )


def normalized_equiv(f1: PointedRat, f2: PointedRat) -> bool:
    """Unpointed equivalence of two points given by their normalized
    representatives (ratmap.normalize_unpointed), cheapest invariant
    first: the degree, then over Q the signature and the class of the
    resultant modulo 2n-th powers.  Over Q that class is equal when
    r2/r1 is the 2n-th power of a positive rational, decided by exact
    integer roots (fields.rational_root) with no factoring.  A mismatch
    answers at once; only when all agree are the full invariants built,
    which over Q factor the resultants for the Hasse symbols and the
    class (over F_p they need no factoring)."""
    if f1.n != f2.n:
        return False
    field = f1.ring
    if f1.n and isinstance(field, Rationals) and (
        _signature(f1) != _signature(f2)
        or rational_root(field.div(f2.res, f1.res), 2 * f1.n) is None
    ):
        return False
    return _unpointed_invariant_of(f1) == _unpointed_invariant_of(f2)


def unpointed_equiv(u1: UnpointedRat, u2: UnpointedRat) -> bool:
    """Same unpointed class iff the unpointed invariants agree, compared
    cheapest first (normalized_equiv): the degree, over Q the signature
    and the 2n-th-power class of the resultant, and only then the full
    invariants."""
    if u1.field != u2.field:
        raise FieldError("points over different fields")
    return normalized_equiv(normalize_unpointed(u1)[0], normalize_unpointed(u2)[0])


# ---------------------------------------------------------------------------
# Maps to higher projective spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdPoint:
    """A pointed map to d-dimensional projective space: monic A and a
    d-tuple of B's generating the unit ideal, certified by cofactors."""

    ring: object
    d: int
    A: Poly
    Bs: tuple
    cofactors: tuple  # (c_0, ..., c_d) with A c_0 + sum B_i c_i = 1

    @property
    def n(self):
        return self.A.degree

    def key(self):
        return (self.A.coeffs, tuple(B.coeffs for B in self.Bs))


def mk_pd(A: Poly, Bs, cofactors=None) -> PdPoint:
    """Validate and build a point; over a field cofactors are constructed
    by iterated extended gcd when not supplied."""
    ring = A.ring
    Bs = tuple(Bs)
    d = len(Bs)
    if d < 2:
        raise FieldError("maps to P^d need d >= 2")
    n = A.degree
    if n < 0 or not (A.is_monic() or (n == 0 and not A.is_zero())):
        raise FieldError("A must be monic")
    for B in Bs:
        if B.ring != ring:
            raise FieldError("mixed rings")
        if B.degree >= n and not (n == 0 and B.is_zero()):
            raise FieldError("deg B_i must be below deg A")
    if cofactors is None:
        if isinstance(ring, PolyRing):
            raise FieldError("k[T] points need explicit cofactors")
        cofactors = _field_cofactors(A, Bs)
    cofactors = tuple(cofactors)
    total = A * cofactors[0]
    for B, c in zip(Bs, cofactors[1:]):
        total = total + B * c
    if not (total - const(ring, ring.one)).is_zero():
        raise FieldError("cofactors do not certify unimodularity")
    return PdPoint(ring, d, A, Bs, cofactors)


def _field_cofactors(A: Poly, Bs):
    ring = A.ring
    if A.degree == 0:
        return (const(ring, ring.inv(A.constant())),) + tuple(
            zero(ring) for _ in Bs
        )
    g = A
    combo = [const(ring, ring.one)] + [zero(ring)] * len(Bs)
    for idx, B in enumerate(Bs):
        if g.degree == 0:
            break
        if B.is_zero():
            continue
        g2, s, t = poly_xgcd(g, B)
        combo = [c * s for c in combo]
        combo[1 + idx] = combo[1 + idx] + t
        g = g2
    if g.degree != 0:
        raise FieldError("not unimodular: the ideal (A, B_1..B_d) is proper")
    # g is the monic gcd of degree 0, i.e. exactly 1
    return tuple(combo)


def pd_equiv(p1: PdPoint, p2: PdPoint) -> bool:
    """Degree is a complete invariant for d >= 2."""
    if p1.ring != p2.ring:
        raise FieldError("points over different fields")
    if p1.d != p2.d:
        raise FieldError("different target dimensions")
    if p1.d < 2:
        raise FieldError("d >= 2 required; d = 1 is the main machinery")
    return p1.n == p2.n
