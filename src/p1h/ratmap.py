"""Pointed and unpointed rational functions, and their algebraic structure.

A pointed rational function of degree n over a coefficient ring R is a pair
(A, B) with A monic of degree n, deg B < n and res_{n,n}(A, B) a unit of R.
Over a base field these are the points we classify; over k[T] they are the
homotopies (paths), whose endpoints come from evaluating T at 0 and 1.

The monoid law stacks two functions by multiplying their unimodular
2x2 matrices [A -V; B U]; the twisted continued fraction expansion is its
inverse at the level of field points.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import comb

from . import linalg
from .fields import FieldError, PrimeField
from .poly import (
    Poly,
    PolyRing,
    X,
    bezout_pair,
    const,
    poly_divmod,
    poly_str,
    remainder_sequence,
    resultant_nn,
    sequence_cofactors,
    sequence_resultant,
    zero,
)


class RejectedPoint(ValueError):
    """Input pair is not a valid point: the resultant is not a unit."""

    def __init__(self, resultant, message="resultant is not a unit"):
        super().__init__(message)
        self.resultant = resultant


class RejectedPath(RejectedPoint):
    """k[T] input whose resultant is not a nonzero constant."""

    def __init__(self, resultant):
        super().__init__(resultant, "non-constant resultant: not a homotopy")


@dataclass(frozen=True)
class PointedRat:
    """A point of F_n(R): monic A, B with unit resultant res.

    The Bezout pair (U, V), the unique solution of A U + B V = 1 with
    deg U <= n-2 and deg V <= n-1, is built when first read and then kept.
    A field point validated by a remainder sequence of (A, B) keeps its
    steps, which cf_expand reads and U, V are folded from; a point built
    from a known pair (a monoid sum, a polynomial point) keeps the pair,
    and the remainder sequence that cf_expand runs on its first read.  Its
    continued-fraction values are kept after the first read too, so the
    stages of one decision expand it once.  Equality and hashing see (ring, A, B, res) only, so a point is
    the same cache key whether or not its pair has been built.
    """

    ring: object
    A: Poly
    B: Poly
    res: object
    _pair: tuple | None = dataclass_field(default=None, compare=False, repr=False)
    _steps: tuple | None = dataclass_field(default=None, compare=False, repr=False)
    # derived from A and B; not an __init__ argument, so a dataclasses.replace
    # that changes them carries no stale values
    _values: tuple | None = dataclass_field(default=None, init=False, compare=False, repr=False)

    @property
    def U(self) -> Poly:
        return self._bezout()[0]

    @property
    def V(self) -> Poly:
        return self._bezout()[1]

    def _bezout(self) -> tuple[Poly, Poly]:
        # folded from the kept remainder sequence, or solved by bezout_pair
        # (over k[T]), on the first read
        if self._pair is None:
            if self._steps is not None:  # the gcd of a point's A and B is 1
                pair = sequence_cofactors(self._steps, const(self.ring, self.ring.one))
            else:
                pair = bezout_pair(self.A, self.B)
            object.__setattr__(self, "_pair", pair)
        return self._pair

    @property
    def n(self) -> int:
        return self.A.degree

    degree = n

    @property
    def is_path(self) -> bool:
        return isinstance(self.ring, PolyRing)

    def __repr__(self):
        return f"({poly_str(self.A)})/({poly_str(self.B)})"

    def key(self):
        return (self.A.coeffs, self.B.coeffs)


def _unit_resultant(ring, res):
    if isinstance(ring, PolyRing):
        return res.is_constant() and not res.is_zero()
    return not ring.is_zero(res)


def mk_pointed(A: Poly, B: Poly) -> PointedRat:
    """Validate and build a point of F_n, raising RejectedPoint/RejectedPath.
    Over a field res is read off one remainder sequence of (A, B), whose
    steps the point keeps; over k[T] it is a determinant.  Neither builds
    (U, V)."""
    ring = A.ring
    if B.ring != ring:
        raise FieldError("numerator and denominator over different rings")
    n = A.degree
    if not A.is_monic():
        raise FieldError("numerator must be monic")
    if B.degree >= n and not (n == 0 and B.is_zero()):
        raise FieldError("denominator degree must be below the numerator degree")
    if n == 0:
        if not B.is_zero():
            raise FieldError("degree-0 point must be 1/0")
        return identity_point(ring)
    steps = None
    if isinstance(ring, PolyRing):
        res = resultant_nn(A, B, n)
    else:
        steps, g = remainder_sequence(A, B)
        res = sequence_resultant(steps, g)
    if not _unit_resultant(ring, res):
        _reject(ring, res)
    return PointedRat(ring, A, B, res, _steps=steps)


def _reject(ring, res):
    if isinstance(ring, PolyRing):
        raise RejectedPath(res)
    raise RejectedPoint(res)


def pointed_from_pair(A: Poly, B: Poly, U: Poly, V: Poly) -> PointedRat:
    """Build a point from a known Bezout pair, checking it rather than solving.

    With A monic of degree n >= 1, deg B < n, deg U <= n-2, deg V <= n-1 and
    A U + B V = 1, B is a unit modulo A with inverse V, so (U, V) is the
    unique Bezout pair and res_{n,n}(A, B) = det(B mod A) is a unit.  Over
    k[T] a unit is a constant, and reduction modulo a monic A commutes with
    T -> 0, so res is the n x n resultant over k of the T = 0 specialisation.
    Raises FieldError when any of these conditions fails.
    """
    ring = A.ring
    if not (B.ring == U.ring == V.ring == ring):
        raise FieldError("Bezout pair over different rings")
    n = A.degree
    if n < 1 or not A.is_monic():
        raise FieldError("numerator must be monic of degree >= 1")
    if B.degree >= n or U.degree > n - 2 or V.degree > n - 1:
        raise FieldError("Bezout pair degree bounds violated")
    if (A * U + B * V).coeffs != (ring.one,):
        raise FieldError("A U + B V != 1: not a Bezout pair")
    steps = None
    if isinstance(ring, PolyRing):
        base = ring.base
        at0 = lambda P: Poly.trimmed(base, [c.constant() for c in P.coeffs])
        res = const(base, resultant_nn(at0(A), at0(B), n))
    else:
        steps, g = remainder_sequence(A, B)
        res = sequence_resultant(steps, g)
    return PointedRat(ring, A, B, res, _pair=(U, V), _steps=steps)


def identity_point(ring) -> PointedRat:
    """The unique degree-0 point 1/0, the unit for the addition law."""
    one = const(ring, ring.one)
    return PointedRat(ring, one, zero(ring), ring.one, _pair=(one, zero(ring)))


def poly_point(P: Poly, b) -> PointedRat:
    """The polynomial function P/b (P monic, b a unit), in closed form:
    U = 0, V = 1/b and res = b^n."""
    ring = P.ring
    n = P.degree
    if n < 1:
        return mk_pointed(P, const(ring, b))
    if not P.is_monic():
        raise FieldError("numerator must be monic")
    B = const(ring, b)
    b = B.constant()
    res = ring.one
    for _ in range(n):
        res = ring.mul(res, b)
    if not _unit_resultant(ring, res):
        _reject(ring, res)
    return PointedRat(ring, P, B, res, _pair=(zero(ring), const(ring, ring.inv(b))))


def x_over(ring, u) -> PointedRat:
    return poly_point(X(ring), u)


def monomial_sum(ring, units) -> PointedRat:
    """[u_1, ..., u_n] = X/u_1 (+) ... (+) X/u_n."""
    return oplus_all(ring, [x_over(ring, u) for u in units])


def oplus_all(ring, points) -> PointedRat:
    """f_1 (+) ... (+) f_m in this order (1/0 for none), folded pairwise as a
    balanced tree.  oplus is associative, so the point is that of the fold
    from the left; but each oplus multiplies (and over a field checks) at
    the degree it builds, and a left fold would rebuild every running
    prefix: m small blocks cost m products of degree up to m there, and
    log2(m) levels of products of total degree m here."""
    pts = list(points)
    if not pts:
        return identity_point(ring)
    while len(pts) > 1:
        pairs = [oplus(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
        pts = pairs + pts[2 * len(pairs) :]
    return pts[0]


def oplus(f: PointedRat, g: PointedRat) -> PointedRat:
    """The graded addition: multiply the attached 2x2 unimodular matrices.

    The product matrix [A3 -V3; B3 U3] gives the sum and its Bezout pair,
    and its resultant is read off the summands': the determinant of the
    Bezout form is multiplicative, res_{n,n} twisted by (-1)^{n1 n2}.  The
    degree bounds hold by construction.  Over a field the result is a point
    exactly when A3 U3 + B3 V3 = 1, which is checked (FieldError otherwise);
    no remainder sequence is run, and cf_expand runs one on the first read.
    Over k[T] a sum is a certificate step, and `certify.verify` checks each
    step's resultant and endpoints, so nothing is checked here.
    """
    if f.ring != g.ring:
        raise FieldError("oplus over different rings")
    # the only degree-0 point is 1/0, whose matrix is the identity
    if f.n == 0:
        return g
    if g.n == 0:
        return f
    ring = f.ring
    A3 = f.A * g.A - f.V * g.B
    B3 = f.B * g.A + f.U * g.B
    V3 = f.A * g.V + f.V * g.U
    U3 = f.U * g.U - f.B * g.V
    if not isinstance(ring, PolyRing) and (A3 * U3 + B3 * V3).coeffs != (ring.one,):
        raise FieldError("oplus: A U + B V != 1: the sum is not a point")
    res3 = ring.mul(f.res, g.res)
    if (f.n * g.n) % 2:
        res3 = ring.neg(res3)
    return PointedRat(ring, A3, B3, res3, _pair=(U3, V3))


@dataclass(frozen=True)
class CFExpansion:
    """Twisted continued fraction expansion: pairs (P_i monic, b_i unit)."""

    field: object
    terms: tuple  # of (Poly, unit)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)


def cf_expand(f: PointedRat) -> CFExpansion:
    """Expand A/B = P_0/b_0 - 1/(b_0^2 (P_1/b_1 - ...)); unique and finite.

    The blocks are read off the steps of poly.remainder_sequence(A, B), the
    ones the point keeps (run here and kept on the first read of a point
    built from its pair): the expansion divides A by B, takes
    P = lc(B) (A div B), b = lc(B) and goes on with (B/b, -b (A mod B)), so
    P_i = q_i and b_i = -b_{i-1} c_i.
    """
    if f.is_path:
        raise FieldError("cf expansion is for field points")
    if f.n < 1:
        raise FieldError("cf expansion needs degree >= 1")
    ring = f.ring
    if f._steps is None:  # a point built from its pair: kept from here on
        object.__setattr__(f, "_steps", remainder_sequence(f.A, f.B)[0])
    terms = []
    b = ring.neg(ring.one)
    for q, c, _ in f._steps:
        b = ring.neg(ring.mul(b, c))
        terms.append((q, b))
    if sum(P.degree for P, _ in terms) != f.n:
        raise FieldError("cf expansion: block degrees do not add up to the degree")
    return CFExpansion(ring, tuple(terms))


def cf_values(f: PointedRat) -> tuple:
    """Diagonal values of a form in the stable class of the Bezout form of
    f (isometric to it outside characteristic 2); they multiply to its
    determinant.

    f is naively homotopic to the sum of its blocks P/b, and a block of
    degree d to the monomial sum [1]*(d//2) + [b]*(d%2) + [-b^2]*(d//2)
    (normal_form_cert builds these homotopies and emits its units in this
    order), whose Bezout form is congruent to that diagonal form by a
    det-1 matrix.  Computed on the first read and kept on the point.
    """
    if f._values is None:
        ring = f.ring
        out = []
        for P, b in cf_expand(f):
            half, odd = divmod(P.degree, 2)
            out += [ring.one] * half + [b] * odd + [ring.neg(ring.mul(b, b))] * half
        object.__setattr__(f, "_values", tuple(out))
    return f._values


def cf_assemble(exp: CFExpansion) -> PointedRat:
    return oplus_all(exp.field, [poly_point(P, b) for P, b in exp.terms])


def compose(f: PointedRat, g: PointedRat) -> PointedRat:
    """The composite endomorphism f o g; degree multiplies.

    With f = A/B of degree m and g = C/D, clearing denominators gives
    numerator sum a_i C^i D^{m-i} and denominator sum b_i C^i D^{m-i}.
    """
    if f.ring != g.ring:
        raise FieldError("compose over different rings")
    m, n = f.n, g.n
    if m < 1 or n < 1:
        raise FieldError("compose needs degrees >= 1")
    ring = f.ring
    C, D = g.A, g.B
    cpow = [const(ring, ring.one)]
    dpow = [const(ring, ring.one)]
    for _ in range(m):
        cpow.append(cpow[-1] * C)
        dpow.append(dpow[-1] * D)
    At = zero(ring)
    Bt = zero(ring)
    for i in range(m + 1):
        At = At + (cpow[i] * dpow[m - i]).scale(f.A.coeff(i))
        if i < m:
            Bt = Bt + (cpow[i] * dpow[m - i]).scale(f.B.coeff(i))
    return mk_pointed(At, Bt)


def ga_act(h, f: PointedRat) -> PointedRat:
    """Translation action h . (A/B) = (A + hB)/B; free, resultant-preserving."""
    ring = f.ring
    h = ring.coerce(h)
    A2 = f.A + f.B.scale(h)
    V2 = f.V - f.U.scale(h)
    if (A2 * f.U + f.B * V2).coeffs != (ring.one,):
        raise FieldError("ga_act: the translated pair is not a Bezout pair")
    return PointedRat(ring, A2, f.B, f.res, _pair=(f.U, V2))


def scale_pointed(f: PointedRat, lam) -> PointedRat:
    """lambda^2 f as a pointed pair: (A, B / lambda^2)."""
    field = f.ring
    lam2 = field.mul(lam, lam)
    return mk_pointed(f.A, f.B.scale(field.inv(lam2)))


def phi_n(f: PointedRat):
    """The translation coordinate: minus the X^{n-1} coefficient of V_1,
    where (U_1, V_1) is the unique solution of A U_1 + B V_1 = X^{2n-1}.

    Also computed as -s_{2n} from the expansion of V/A; FieldError unless
    the two routes agree.
    """
    n = f.n
    if n < 1:
        raise FieldError("phi needs degree >= 1")
    ring = f.ring
    V1 = poly_divmod(f.V.shift(2 * n - 1), f.A)[1]
    U1 = poly_divmod(X(ring).shift(2 * n - 2) - f.B * V1, f.A)[0]
    if not (f.A * U1 + f.B * V1 - X(ring).shift(2 * n - 2)).is_zero():
        raise FieldError("phi_n: A U_1 + B V_1 is not X^{2n-1}")
    if U1.degree != n - 1 or not U1.is_monic():
        raise FieldError("phi_n: U_1 is not monic of degree n-1")
    value = ring.neg(V1.coeff(n - 1))
    from .poly import laurent_expand

    s = laurent_expand(f.V, f.A, 2 * n)
    if not ring.is_zero(ring.sub(value, ring.neg(s[2 * n - 1]))):
        raise FieldError("phi_n: the two routes to the coordinate disagree")
    return value


def eval_path(F: PointedRat, t) -> PointedRat:
    """Evaluate a k[T]-point at T = t; valid for every t since res is constant."""
    if not F.is_path:
        raise FieldError("eval_path expects a k[T] point")
    base = F.ring.base
    t = base.coerce(t)
    A = F.A.map_coeffs(lambda c: c.eval(t), base)
    B = F.B.map_coeffs(lambda c: c.eval(t), base)
    out = mk_pointed(A, B)
    if not base.is_zero(base.sub(out.res, F.res.constant())):
        raise FieldError("eval_path: the resultant at T = t is not the path's")
    return out


def path_of_point(f: PointedRat, kt: PolyRing) -> PointedRat:
    """The constant path at a field point."""
    lift = lambda c: const(f.ring, c)
    return PointedRat(
        kt,
        f.A.map_coeffs(lift, kt),
        f.B.map_coeffs(lift, kt),
        lift(f.res),
        _pair=(f.U.map_coeffs(lift, kt), f.V.map_coeffs(lift, kt)),
    )


def reflect(c: Poly) -> Poly:
    """c(1-T) for c in k[T]: the substitution that runs a path backwards.
    One binomial pass, b_k = (-1)^k sum_{j>=k} C(j, k) a_j."""
    base, a = c.ring, c.coeffs
    m = len(a)
    out = [sum(comb(j, k) * a[j] for j in range(k, m)) for k in range(m)]
    out[1::2] = [-b for b in out[1::2]]
    if isinstance(base, PrimeField):
        out = [b % base.p for b in out]
    return Poly.trimmed(base, out)


def reflect_poly(P: Poly) -> Poly:
    """P(X; 1-T) for P in k[T][X]: reflect every coefficient."""
    return Poly.trimmed(P.ring, [reflect(c) for c in P.coeffs])


def reverse_path(F: PointedRat) -> PointedRat:
    """Substitute T -> 1-T, swapping source and target.  Only A and B are
    reflected: a certificate step is written and verified from them alone,
    and a later read of U or V solves the pair, as for any point built
    without one."""
    return PointedRat(F.ring, reflect_poly(F.A), reflect_poly(F.B), F.res)


# ---------------------------------------------------------------------------
# Unpointed rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnpointedRat:
    """A point of the scheme of unpointed degree-n functions: a homogeneous
    coefficient vector (a_0..a_n, b_0..b_n), scaled so its first nonzero
    coordinate is 1 (equality is equality in projective space)."""

    field: object
    n: int
    avec: tuple
    bvec: tuple

    def polys(self) -> tuple[Poly, Poly]:
        return Poly.make(self.field, self.avec), Poly.make(self.field, self.bvec)

    def __repr__(self):
        A, B = self.polys()
        return f"[{poly_str(A)} : {poly_str(B)}]"


def projective_normal(field, vecs) -> tuple:
    """Coefficient vectors scaled so that their first nonzero coordinate is 1:
    the representative of their point in projective space."""
    first = next((c for v in vecs for c in v if not field.is_zero(c)), None)
    if first is None:
        raise FieldError("zero coefficient vector")
    inv = field.inv(first)
    return tuple(tuple(field.mul(inv, c) for c in v) for v in vecs)


def mk_unpointed(field, avec, bvec) -> UnpointedRat:
    n = len(avec) - 1
    if len(bvec) != n + 1:
        raise FieldError("coefficient vectors must share a length")
    avec, bvec = projective_normal(
        field, ([field.coerce(a) for a in avec], [field.coerce(b) for b in bvec])
    )
    if field.is_zero(avec[n]) and field.is_zero(bvec[n]):
        raise FieldError("true degree below n: not a point of the degree-n stratum")
    A = Poly.make(field, avec)
    B = Poly.make(field, bvec)
    res = resultant_nn(A, B, n)
    if field.is_zero(res):
        raise RejectedPoint(res)
    return UnpointedRat(field, n, avec, bvec)


def unpointed_of_pointed(f: PointedRat) -> UnpointedRat:
    n = f.n
    return mk_unpointed(
        f.ring,
        [f.A.coeff(i) for i in range(n + 1)],
        [f.B.coeff(i) for i in range(n + 1)],
    )


@dataclass(frozen=True)
class UnpointedMove:
    """Replayable normalization data: elementary factors of the Moebius matrix
    alpha_1 with alpha_1 . infinity = f(infinity).  The associated path is
    alpha(T)^{-1} . (A, B) with alpha(T) = elementary_path(field, 2, factors)."""

    field: object
    factors: tuple  # of ("add", i, j, scalar) on coordinates (0, 1)
    source: UnpointedRat
    target: PointedRat


def elementary_product(ring, n, adds):
    """The n x n product of (I + v e_ij) over ops ("add", i, j, v), in order.

    Right-multiplying by I + v e_ij adds v times column i to column j.
    """
    M = linalg.mat_identity(ring, n)
    for _, i, j, v in adds:
        for row in M:
            row[j] = ring.add(row[j], ring.mul(v, row[i]))
    return M


def elementary_path(field, n, adds):
    """The k[T]-matrix P(T) = prod (I + v T e_ij): P(0) = I, P(1) = the product."""
    scaled = [(k, i, j, Poly.make(field, [field.zero, v])) for k, i, j, v in adds]
    return elementary_product(PolyRing(field), n, scaled)


def sl2_elementary_factors(field, M) -> tuple:
    """Write an SL_2 matrix as a product of elementary matrices.

    Returns ops ("add", 0, 1, x) | ("add", 1, 0, x), meaning [[1,x],[0,1]] /
    [[1,0],[x,1]], whose elementary_product is M; at most four factors.
    """
    a, b = M[0]
    c, d = M[1]
    det = field.sub(field.mul(a, d), field.mul(b, c))
    if not field.is_zero(field.sub(det, field.one)):
        raise FieldError("not an SL_2 matrix")
    if field.is_zero(c):
        # M = E21(-1) * (E21(1) * M), and the inner matrix has corner a != 0
        factors = [("add", 1, 0, field.neg(field.one))]
        a2, b2 = a, b
        c2, d2 = field.add(c, a), field.add(d, b)
    else:
        factors = []
        a2, b2, c2, d2 = a, b, c, d
    x = field.div(field.sub(a2, field.one), c2)
    y = field.div(field.sub(d2, field.one), c2)
    factors += [("add", 0, 1, x), ("add", 1, 0, c2), ("add", 0, 1, y)]
    out = tuple(op for op in factors if not field.is_zero(op[3]))
    if elementary_product(field, 2, out) != [[a, b], [c, d]]:
        raise FieldError("sl2_elementary_factors: the factors do not multiply to M")
    return out


def normalize_unpointed(u: UnpointedRat) -> tuple[PointedRat, UnpointedMove]:
    """Slide an unpointed function to a pointed one along an SL_2(k[T]) path.

    Chooses alpha_1 in SL_2(k) with alpha_1 . infinity = [a_n : b_n] and at
    most three elementary factors; the inverse path applied to (A, B) is a
    valid unpointed homotopy from u to the pointed representative.
    """
    field = u.field
    n = u.n
    an, bn = u.avec[n], u.bvec[n]
    A, B = u.polys()
    if field.is_zero(bn):
        # already pointed up to scaling
        inv = field.inv(an)
        f = mk_pointed(A.scale(inv), B.scale(inv))
        move = UnpointedMove(field, (), u, f)
        return f, move
    if field.is_zero(an):
        alpha = [[field.zero, field.neg(field.inv(bn))], [bn, field.zero]]
    else:
        # [[a_n, 0], [b_n, 1/a_n]] sends infinity to [a_n : b_n]
        alpha = [[an, field.zero], [bn, field.inv(an)]]
    factors = sl2_elementary_factors(field, alpha)
    inv_alpha = [[alpha[1][1], field.neg(alpha[0][1])], [field.neg(alpha[1][0]), alpha[0][0]]]
    A2 = A.scale(inv_alpha[0][0]) + B.scale(inv_alpha[0][1])
    B2 = A.scale(inv_alpha[1][0]) + B.scale(inv_alpha[1][1])
    lead = A2.coeff(n)
    scl = field.inv(lead)
    f = mk_pointed(A2.scale(scl), B2.scale(scl))
    move = UnpointedMove(field, factors, u, f)
    return f, move
