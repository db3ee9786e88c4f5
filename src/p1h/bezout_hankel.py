"""The Bezout symmetric form of a rational function and its Hankel inverse.

The coefficient matrix of (A(X)B(Y) - A(Y)B(X))/(X - Y) is symmetric, and
its determinant is (-1)^{n(n-1)/2} times the resultant, so the form is
non-degenerate exactly on valid points.  Its inverse is a Hankel matrix
whose entries are read off the expansion of V/A in descending powers of X,
which yields an explicit inverse reconstruction (psi) of a rational
function from (Hankel matrix, translation coordinate).  psi solves nothing:
with the Bezout form S = H^{-1} in hand, the numerator's coefficients are
S applied to a vector of Hankel entries and B is the last row of S
(f2_iso_inv writes psi_2 out in closed form).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .fields import FieldError
from .poly import Poly, PolyRing, bezout_coeffs, const, laurent_expand, poly_divmod
from .ratmap import PointedRat, phi_n, pointed_from_pair


@dataclass(frozen=True)
class SymMatrix:
    """A symmetric n x n matrix over a field or over k[T]."""

    ring: object
    n: int
    rows: tuple  # tuple of tuples

    def __post_init__(self):
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise FieldError("matrix is not square")
        if not linalg.is_symmetric(self.ring, self.rows):
            raise FieldError("matrix is not symmetric")

    @staticmethod
    def make(ring, rows) -> "SymMatrix":
        rows = tuple(tuple(ring.coerce(x) for x in r) for r in rows)
        return SymMatrix(ring, len(rows), rows)

    @staticmethod
    def diagonal(ring, units) -> "SymMatrix":
        n = len(units)
        return SymMatrix.make(
            ring,
            [[units[i] if i == j else ring.zero for j in range(n)] for i in range(n)],
        )

    def det(self):
        return linalg.det(self.ring, [list(r) for r in self.rows])

    def is_nondegenerate(self) -> bool:
        d = self.det()
        if isinstance(self.ring, PolyRing):
            return not d.is_zero()
        return not self.ring.is_zero(d)

    def eval(self, t) -> "SymMatrix":
        """Evaluate a k[T] matrix at T=t."""
        base = self.ring.base
        tv = base.coerce(t)
        return SymMatrix.make(
            base, [[c.eval(tv) for c in row] for row in self.rows]
        )


@dataclass(frozen=True)
class HankelMatrix:
    """Matrix constant along anti-diagonals, stored as s_1..s_{2n-1}."""

    ring: object
    n: int
    s: tuple

    def __post_init__(self):
        if len(self.s) != 2 * self.n - 1:
            raise FieldError("Hankel data of the wrong length")

    def to_sym(self) -> SymMatrix:
        n = self.n
        return SymMatrix.make(
            self.ring, [[self.s[i + j] for j in range(n)] for i in range(n)]
        )


def bezout_form(f: PointedRat) -> SymMatrix:
    """The Bezout form of f.  Its determinant is checked exactly against
    (-1)^{n(n-1)/2} res(f), the resultant the point carries (over a field
    read off poly.remainder_sequence); FieldError if they differ."""
    n = f.n
    if n < 1:
        raise FieldError("Bezout form needs degree >= 1")
    ring = f.ring
    rows = bezout_coeffs(f.A, f.B, n)
    S = SymMatrix.make(ring, rows)
    expected = f.res if (n * (n - 1) // 2) % 2 == 0 else ring.neg(f.res)
    if not ring.is_zero(ring.sub(S.det(), expected)):
        raise FieldError("Bezout determinant formula failed: det Bez != +-res")
    return S


def hankel_of(f: PointedRat) -> HankelMatrix:
    """Inverse of the Bezout form, computed from the expansion of V/A.

    The product Bez(f) * Hank(f) = I is checked exactly; FieldError if not.
    """
    n = f.n
    if n < 1:
        raise FieldError("Hankel matrix needs degree >= 1")
    ring = f.ring
    s = laurent_expand(f.V, f.A, 2 * n - 1)
    H = HankelMatrix(ring, n, s)
    Bz = bezout_form(f)
    prod = linalg.mat_mul(ring, [list(r) for r in Bz.rows], [list(r) for r in H.to_sym().rows])
    if not linalg.mat_eq(ring, prod, linalg.mat_identity(ring, n)):
        raise FieldError("Bez * Hank != I")
    return H


def psi_n(H: HankelMatrix, v) -> PointedRat:
    """Reconstruct the rational function with Hankel data H and phi-value v.

    The Bezout form S = H^{-1} holds the answer: the monic numerator's
    coefficients (a_0..a_{n-1}) solve H a = (-s_{n+1}, ..., -s_{2n-1}, v),
    so a = S times that vector, and the last row of S is (b_0..b_{n-1}).
    V is the polynomial part of (s_1 X^{-1} + ... + s_n X^{-n}) * A and
    U = (1 - B V)/A.  Exact over a field and over k[T] (where the Hankel
    determinant is a nonzero constant); the tests' reference for f2_iso_inv.
    """
    ring = H.ring
    n = H.n
    v = ring.coerce(v)
    s = H.s
    S = linalg.inverse(ring, H.to_sym().rows)
    rhs = [ring.neg(s[n + i]) for i in range(n - 1)] + [v]
    acoef = linalg.mat_vec(ring, S, rhs) + [ring.one]
    A = Poly.make(ring, acoef)
    # for monic A the last row of Bez(f) is a_n b_j - a_j b_n = b_j
    B = Poly.make(ring, S[n - 1])
    # polynomial part of (sum s_i X^{-i}) A: X^j coefficient is
    # sum_{i=1}^{n-j} s_i a_{j+i} with a_n = 1
    vcoef = []
    for j in range(n):
        acc = ring.zero
        for i in range(1, n - j + 1):
            acc = ring.add(acc, ring.mul(s[i - 1], acoef[j + i]))
        vcoef.append(acc)
    V = Poly.make(ring, vcoef)
    # a nonzero remainder would make A U + B V != 1, which pointed_from_pair refuses
    U = poly_divmod(const(ring, ring.one) - B * V, A)[0]
    f = pointed_from_pair(A, B, U, V)
    # V/A = s_1 X^{-1} + s_2 X^{-2} + ...: hankel_of(f) reads its first 2n-1
    # terms and phi_n(f) is -s_{2n}, so one expansion checks both
    t = laurent_expand(V, A, 2 * n)
    if t[:-1] != H.s or not ring.is_zero(ring.add(t[-1], v)):
        raise FieldError("the point's Laurent expansion differs from the Hankel data")
    return f


def f2_iso(f: PointedRat):
    """The degree-2 coordinates: (Bezout form, translation coordinate)."""
    if f.n != 2:
        raise FieldError("f2_iso is the degree-2 chart")
    return bezout_form(f), phi_n(f)


def f2_iso_inv(S: SymMatrix, t) -> PointedRat:
    """Inverse of f2_iso: psi_2 of S^{-1} in closed form.  For
    S = [[a, b], [b, c]] and w = 1/(b^2 - ac), A = X^2 + a_1 X + a_0 with
    a_1 = abw + ct, a_0 = a^2 w + bt, B = cX + b, V = (b - c a_1)w - cwX and
    U = c^2 w.  Nothing is re-proved, since the formulas imply each fact:
    A U + B V = w(c^2 a_0 + b^2 - bc a_1) = w(b^2 - ac) = 1, so (U, V) is
    the Bezout pair; res_{2,2}(A, B) = b^2 - bc a_1 + c^2 a_0 = b^2 - ac;
    and matching the X^1, X^0, X^-1 and X^-2 coefficients of
    A (s_1 X^-1 + ... + s_4 X^-4) against V gives the expansion
    (-cw, bw, -aw, -t) of V/A: S^{-1} = -w[[c, -b], [-b, a]] as Hankel
    data, then -t (the tests check it against psi_n).  Works identically
    over k and over k[T]; FieldError when b^2 - ac is not a unit (over
    k[T]: a nonzero constant)."""
    if S.n != 2:
        raise FieldError("f2_iso_inv is the degree-2 chart")
    ring = S.ring
    (a, b), (_, c) = S.rows
    t = ring.coerce(t)
    disc = ring.sub(ring.mul(b, b), ring.mul(a, c))
    if not ring.is_unit(disc):
        raise FieldError("b^2 - ac is not a unit: S is not the Bezout form of a point")
    w = ring.inv(disc)
    bw, cw = ring.mul(b, w), ring.mul(c, w)
    a1 = ring.add(ring.mul(a, bw), ring.mul(c, t))
    a0 = ring.add(ring.mul(ring.mul(a, a), w), ring.mul(b, t))
    A = Poly.make(ring, [a0, a1, ring.one])
    B = Poly.make(ring, [b, c])
    U = Poly.make(ring, [ring.mul(c, cw)])
    V = Poly.make(ring, [ring.sub(bw, ring.mul(cw, a1)), ring.neg(cw)])
    return PointedRat(ring, A, B, disc, _pair=(U, V))
