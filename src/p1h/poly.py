"""Dense univariate polynomials over an exact coefficient ring.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  The coefficient ring is either a
base field (fields.Rationals / fields.PrimeField) or PolyRing(k), i.e. k[T],
which is how homotopies are represented: a path of rational functions is a
polynomial in X whose coefficients are polynomials in T.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterable

from . import linalg
from .fields import FieldError


class Poly:
    """An immutable value: equal and hashed as (ring, coeffs).  A slotted
    class rather than a frozen dataclass, because every k[T] product builds
    several, and writing the slots through their descriptors costs about
    0.6 of the dataclass's construction.

    Stored coefficients are canonical ring elements: F_p residues are ints
    in [0, p), rationals are Fractions (in lowest terms, as Fraction keeps
    them), and k[T] entries are trimmed Polys over the base field.  So a
    zero coefficient is falsy (an empty Poly has no coefficients), and
    equality with ring.one is the ring's own test; the arithmetic below
    relies on both.  Poly.make coerces into that form; the constructor and
    Poly.trimmed take it as given."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: tuple):
        _set_ring(self, ring)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Poly is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Poly is immutable")

    def __reduce__(self):
        return Poly, (self.ring, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return (self.ring, self.coeffs) == (other.ring, other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(ring, coeffs: Iterable) -> "Poly":
        """The boundary constructor: coerces every coefficient into the ring
        (parsing, JSON loading, map_coeffs), then trims."""
        return Poly.trimmed(ring, [ring.coerce(c) for c in coeffs])

    @staticmethod
    def trimmed(ring, cs: list) -> "Poly":
        """A list of canonical ring elements, trailing zeros dropped; for
        arithmetic, whose results are ring elements already."""
        if ring.__class__ is PolyRing:
            while cs and not cs[-1].coeffs:
                cs.pop()
        else:
            while cs and not cs[-1]:
                cs.pop()
        return Poly(ring, tuple(cs))

    # -- basic structure --------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def lead(self):
        if not self.coeffs:
            raise FieldError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self):
        return self.coeffs[0] if self.coeffs else self.ring.zero

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one

    # -- arithmetic -------------------------------------------------------

    # __add__ and __sub__ branch once on the coefficient ring, not once per
    # coefficient through ring.add and ring.sub: F_p sums reduce inline,
    # rationals add as they are, and k[T] entries recurse.

    def __add__(self, other: "Poly") -> "Poly":
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if R.__class__ is PolyRing:
            out = list(map(_poly_add, a, b))
        elif R.char:
            p = R.char
            out = [(x + y) % p for x, y in zip(a, b)]
        else:
            out = list(map(add, a, b))
        if len(a) > len(b):
            return Poly(R, (*out, *a[len(b):]))
        return Poly.trimmed(R, out)

    def __sub__(self, other: "Poly") -> "Poly":
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if R.__class__ is PolyRing:
            out = list(map(_poly_sub, a, b))
            tail = map(neg, b[len(a):])
        elif R.char:
            p = R.char
            out = [(x - y) % p for x, y in zip(a, b)]
            tail = [-y % p for y in b[len(a):]]
        else:
            out = list(map(sub, a, b))
            tail = map(neg, b[len(a):])
        if len(a) != len(b):
            return Poly(R, (*out, *a[len(b):], *tail))
        return Poly.trimmed(R, out)

    def __neg__(self) -> "Poly":
        R = self.ring
        return Poly(R, tuple(R.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        """The product by Kronecker substitution: each operand packed into
        one integer, one big-integer product (in C; Karatsuba's method once
        the operands pass about 2000 bits), and the slots read back (von zur
        Gathen and Gerhard, Modern Computer Algebra, 8.4).

        The entries become integers: F_p residues as they are, in [0, p);
        over Q each operand is scaled by the lcm of its denominators, D_a
        and D_b.  Over k[T] every X-coefficient takes s = s_a + s_b - 1
        T-slots, s_a and s_b the operands' largest T-lengths, so slot
        i s + t holds the coefficient of X^i T^t and a packed operand is its
        value at T = 2^w, X = 2^(w s).  A slot of the product is a sum of at
        most m = min(len a, len b) * min(s_a, s_b) products of entries.
        Over F_p each is at most (p-1)^2, and w is the least width with
        2^w > (p-1)^2 m.  Over Q each is at most h_a h_b in absolute value,
        h_a and h_b the operands' largest scaled numerators, and w is the
        least width with 2^(w-1) > h_a h_b m, one bit more for the sign;
        adding 2^(w-1) to every slot then makes each a w-bit number >= 0.
        So no slot carries into the next, and reading the product w bits at
        a time gives the integer product exactly.  The T-degree of a
        product coefficient is at most s_a + s_b - 2 < s, so X-coefficients
        do not overlap either.  Each slot is then reduced mod p, or divided
        by D_a D_b, and the result trimmed at both levels: the canonical
        value the schoolbook sum gives."""
        R = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(R, ())
        la, lb = len(a), len(b)
        n, m = la + lb - 1, la if la < lb else lb
        nested = R.__class__ is PolyRing
        K = R.base if nested else R
        if nested:
            sa = max(map(len, map(_coeffs, a)))
            sb = max(map(len, map(_coeffs, b)))
            s = sa + sb - 1
            a, b, n, m = _flat(a, s), _flat(b, s), n * s, m * (sa if sa < sb else sb)
        p = K.char
        if p:
            w = ((p - 1) * (p - 1) * m).bit_length()
            cs = _unpack(_pack(a, w) * _pack(b, w), w, n, p)
        else:
            a, da = _cleared(a)
            b, db = _cleared(b)
            w = (max(map(abs, a)) * max(map(abs, b)) * m).bit_length() + 1
            half, den = 1 << (w - 1), da * db
            # the product, plus 2^(w-1) in each of its n slots
            P = _pack(a, w) * _pack(b, w) + ((1 << (w * n)) - 1) // ((1 << w) - 1) * half
            cs = [Fraction(v - half, den) if v != half else _Q_ZERO for v in _unpack(P, w, n, 0)]
        if not nested:
            while cs and not cs[-1]:
                cs.pop()
            return Poly(R, tuple(cs))
        rows = []
        for i in range(0, n, s):
            row = cs[i:i + s]
            while row and not row[-1]:
                row.pop()
            rows.append(Poly(K, tuple(row)))
        return Poly.trimmed(R, rows)

    def scale(self, c) -> "Poly":
        R = self.ring
        c = R.coerce(c)
        return Poly.trimmed(R, [R.mul(c, x) for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return Poly(self.ring, (self.ring.zero,) * k + self.coeffs)

    def monic(self) -> "Poly":
        return self.scale(self.ring.inv(self.lead))

    def eval(self, x):
        R = self.ring
        x = R.coerce(x) if not isinstance(x, Poly) else x
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, x), c)
        return acc

    def map_coeffs(self, fn, new_ring) -> "Poly":
        return Poly.make(new_ring, [fn(c) for c in self.coeffs])

    def __repr__(self):
        return f"Poly({self.ring!r}, {poly_str(self)})"


_set_ring = Poly.ring.__set__
_set_coeffs = Poly.coeffs.__set__
_coeffs = Poly.coeffs.__get__
_poly_add = Poly.__add__
_poly_sub = Poly.__sub__


# Slot runs longer than this are packed and read in two halves, so a run of
# n slots costs O(n log n) word operations instead of the O(n^2) of a Horner
# loop over one growing integer.
_LEAF = 32
_Q_ZERO = Fraction(0)


def _pack(xs, w: int) -> int:
    """sum x_i 2^(w i) for integers x_i (of either sign)."""
    n = len(xs)
    if n > _LEAF:
        h = n // 2
        return _pack(xs[:h], w) + (_pack(xs[h:], w) << (w * h))
    acc = 0
    for x in reversed(xs):
        acc = (acc << w) + x
    return acc


def _unpack(P: int, w: int, n: int, p: int) -> list:
    """The n w-bit slots of an integer 0 <= P < 2^(w n), lowest first;
    reduced mod p unless p = 0."""
    if n > _LEAF:
        h = n // 2
        return (_unpack(P & ((1 << (w * h)) - 1), w, h, p)
                + _unpack(P >> (w * h), w, n - h, p))
    mask, out = (1 << w) - 1, []
    for _ in range(n):
        out.append((P & mask) % p if p else P & mask)
        P >>= w
    return out


def _flat(cs: tuple, s: int) -> list:
    """The T-coefficients of k[T] entries, each entry padded to s slots."""
    out = []
    for c in cs:
        out += c.coeffs
        out += [0] * (s - len(c.coeffs))
    return out


def _cleared(cs: list) -> tuple[list, int]:
    """Rationals (or ints) as integers over their common denominator D:
    (D * cs, D)."""
    den = lcm(*[c.denominator for c in cs])
    return [c.numerator * (den // c.denominator) for c in cs], den


def poly(ring, coeffs: Iterable) -> Poly:
    return Poly.make(ring, coeffs)


def X(ring) -> Poly:
    return Poly(ring, (ring.zero, ring.one))


def const(ring, c) -> Poly:
    return Poly.make(ring, [c])


def zero(ring) -> Poly:
    return Poly(ring, ())


def poly_str(p: Poly, var: str = "X") -> str:
    """Canonical human form, highest degree first (see expr for the parser)."""
    R = p.ring
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if R.is_zero(c):
            continue
        if isinstance(c, Poly):
            cs = poly_str(c, "T")
            coeff_txt = cs if ("+" not in cs and "-" not in cs[1:]) else f"({cs})"
            neg = False
        else:
            txt = R.format(c)
            neg = txt.startswith("-")
            coeff_txt = txt[1:] if neg else txt
        if i == 0:
            term = coeff_txt
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            term = xpow if coeff_txt == "1" else f"{coeff_txt}*{xpow}"
        if not parts:
            parts.append(("-" if neg else "") + term)
        else:
            parts.append(("-" if neg else "+") + term)
    return "".join(parts)


class PolyRing:
    """k[T] viewed as a coefficient ring (the ring of homotopy parameters).

    Elements are Poly values over the base field.  This is an integral
    domain, not a field: is_unit means "nonzero constant", and exact_div
    performs polynomial division that must leave no remainder.
    """

    def __init__(self, base, var: str = "T"):
        self.base = base
        self.var = var
        self.char = base.char
        self.zero = Poly(base, ())
        self.one = Poly(base, (base.one,))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("polyring", self.base))

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"

    def from_int(self, n):
        return const(self.base, self.base.from_int(n))

    def coerce(self, a):
        if isinstance(a, Poly):
            if a.ring != self.base:
                raise FieldError(f"coefficient {a!r} not over {self.base!r}")
            return a
        return const(self.base, self.base.coerce(a))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return a.is_constant() and not a.is_zero()

    def inv(self, a):
        if not self.is_unit(a):
            raise FieldError(f"{a!r} is not a unit of {self!r}")
        return const(self.base, self.base.inv(a.constant()))

    def exact_div(self, a, b):
        q, r = poly_divmod(a, b)
        if not r.is_zero():
            raise FieldError("non-exact division in k[T]")
        return q

    def format(self, a) -> str:
        return poly_str(a, self.var)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division a = b*q + r with deg r < deg b.

    Requires an invertible leading coefficient on b; over k[T] that means a
    nonzero constant (practically: a monic divisor).  Over a base field the
    division runs on integers (_divmod_fp, _divmod_q); over k[T] it is the
    schoolbook loop through the ring's own operations.
    """
    R = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    nested = R.__class__ is PolyRing
    if nested and not R.is_unit(b.lead):
        raise FieldError("non-monic divisor over polynomial ring")
    if len(a.coeffs) < len(b.coeffs):
        return Poly(R, ()), a
    if not nested:  # the quotient's top digit is lc(a)/lc(b), nonzero
        if R.char:
            q, r = _divmod_fp(a.coeffs, b.coeffs, R.char)
        else:
            q, r = _divmod_q(a.coeffs, b.coeffs)
        return Poly(R, tuple(q)), Poly.trimmed(R, r)
    inv_lead = R.inv(b.lead)
    rem = list(a.coeffs)
    db = b.degree
    q = [R.zero] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db]
        if not c.coeffs:
            continue
        factor = c * inv_lead
        q[i] = factor
        for j, bc in enumerate(b.coeffs):
            rem[i + j] = rem[i + j] - factor * bc
    return Poly.trimmed(R, q), Poly.trimmed(R, rem[:db])


def _divmod_fp(a: tuple, b: tuple, p: int) -> tuple[list, list]:
    """Quotient and remainder coefficients of residues a by b != 0 mod p,
    deg a >= deg b.  One inverse of the lead; the remainder entries are
    reduced only when read, as a quotient digit or at the end (each is a
    sum of at most deg b products below p^2)."""
    n = len(b) - 1
    inv, low = pow(b[-1], -1, p), b[:-1]
    rem = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + n] * inv % p
        if c:
            q[i] = c
            for j, x in enumerate(low, i):
                rem[j] -= c * x
    return q, [c % p for c in rem[:n]]


def _divmod_q(a: tuple, b: tuple) -> tuple[list, list]:
    """Quotient and remainder coefficients of rationals a by b != 0,
    deg a >= deg b, by pseudo-division on integers.  A constant b scales
    each coefficient.  Otherwise b = c B/D_b with B integral and primitive,
    lead beta > 0, and the steps divide a by B from the top on a window of
    integers W over one scale M, the window's values being W/M.  M grows
    only when it must: by the part of a coefficient's denominator it lacks
    when that coefficient enters the window, and by g = beta/gcd(top, beta)
    when a step's top is not divisible by beta, so that each quotient digit
    is an exact integer division.  An integral a divided exactly by a
    primitive B never scales (its quotient is integral, by Gauss's lemma),
    and a digit is read over the scale of its own step, not the last one.
    Digit i, read as the integer t_i at scale M_i, is
    q_i = t_i D_b / (c M_i), and the remainder is W/M at the end: one
    Fraction per nonzero coefficient (von zur Gathen and Gerhard, Modern
    Computer Algebra, 2.4 and 6.12)."""
    if len(b) == 1:
        inv = 1 / b[0]
        return [x * inv for x in a], []
    B, db = _cleared(b)
    c = gcd(*B)
    if B[-1] < 0:
        c = -c
    if c != 1:
        B = [x // c for x in B]
    n = len(B) - 1
    beta, low = B[-1], B[:-1]
    m = len(a) - n
    q, qs = [0] * m, [1] * m
    rem, M = [0] * len(a), 1
    for i in range(len(a) - 1, -1, -1):
        x = a[i]
        v = x.denominator
        if M % v:  # coefficient i enters with a new denominator
            g = v // gcd(M, v)
            rem[i + 1:i + n + 1] = map(g.__mul__, rem[i + 1:i + n + 1])
            M *= g
        rem[i] = x.numerator * (M // v)
        if i >= m:  # the window is not full yet
            continue
        t = rem[i + n]
        if not t:
            continue
        g = beta // gcd(t, beta)
        if g != 1:
            rem[i:i + n + 1] = map(g.__mul__, rem[i:i + n + 1])
            M *= g
        t = rem[i + n] // beta
        q[i], qs[i] = t, M
        for j, y in enumerate(low, i):
            rem[j] -= t * y
    return ([Fraction(x * db, s * c) if x else _Q_ZERO for x, s in zip(q, qs)],
            [Fraction(x, M) if x else _Q_ZERO for x in rem[:n]])


def remainder_sequence(a: Poly, b: Poly) -> tuple[tuple, Poly]:
    """The Euclidean remainder sequence of (a, b) over a field, the one pass
    behind resultants, gcds, Bezout cofactors and continued fractions.  Step
    i divides a_i by the monic m_i = b_i/c_i, c_i = lc(b_i), records
    (q_i, c_i, deg a_i) and goes on with (m_i, r_i); returns the steps and
    the monic gcd (zero for a = b = 0).  Nothing is scaled in the loop."""
    R = a.ring
    if isinstance(R, PolyRing):
        raise FieldError("the remainder sequence needs field coefficients")
    steps = []
    while not b.is_zero():
        c = b.lead
        if b.degree == 0:  # m = 1: q = a, r = 0, and the gcd is 1
            steps.append((a, c, a.degree))
            return tuple(steps), Poly(R, (R.one,))
        m = b.scale(R.inv(c))
        q, r = poly_divmod(a, m)
        steps.append((q, c, a.degree))
        a, b = m, r
    return tuple(steps), (a if steps or a.is_zero() else a.monic())


def sequence_resultant(steps: tuple, g: Poly):
    """res_{n,n}(a, b) = prod b(alpha) over the roots alpha of a, for a monic
    of degree n >= deg b, from remainder_sequence(a, b) = (steps, g): with
    n_i = deg a_i, prod b_i(alpha) = (-1)^{n_i n_{i+1}} c_i^{n_i} prod
    r_i(beta) over the roots beta of a_{i+1} = m_i, down to the gcd 1."""
    R = g.ring
    if g.degree != 0:
        return R.zero
    acc, odd, prev = R.one, 0, 0
    for _, c, n in steps:
        acc = R.mul(acc, R.pow(c, n))
        odd ^= prev & n & 1
        prev = n
    return R.neg(acc) if odd else acc


def sequence_cofactors(steps: tuple, g: Poly) -> tuple[Poly, Poly]:
    """(s, t) with a*s + b*t = g from remainder_sequence(a, b) = (steps, g),
    b nonzero, by one fold from the last step: g = x*a_{i+1} + y*b_{i+1}
    gives g = y*a_i + ((x - y*q_i)/c_i)*b_i.  When deg a > deg b it checks
    the classical bounds deg s < deg b - deg g and deg t < deg a - deg g.
    """
    R = g.ring
    s, t = const(R, R.one), zero(R)
    for q, c, _ in reversed(steps):
        s, t = t, (s - t * q).scale(R.inv(c))
    deg_a = steps[0][2]
    deg_b = steps[1][2] if len(steps) > 1 else g.degree  # deg a_1 = deg b
    if deg_a > deg_b and (s.degree >= deg_b - g.degree or t.degree >= deg_a - g.degree):
        raise FieldError("Euclidean cofactor degree bounds violated")
    return s, t


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended gcd over a field: monic g and (s, t) with a*s + b*t = g,
    read off one remainder_sequence by sequence_cofactors."""
    if a.is_zero() and b.is_zero():
        raise FieldError("xgcd(0, 0)")
    steps, g = remainder_sequence(a, b)
    if not steps:  # b = 0: g = a/lc(a)
        R = a.ring
        return g, const(R, R.inv(a.lead)), zero(R)
    return (g, *sequence_cofactors(steps, g))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return remainder_sequence(a, b)[1]


def resultant_nn(a: Poly, b: Poly, n: int):
    """Resultant of (a, b) taken at formal degree (n, n): the determinant of
    the 2n x 2n Sylvester matrix with a-rows above b-rows and coefficients
    descending, both padded to degree n (the tests' reference; it is not
    built here).

    Over a field every pair is read off one remainder_sequence, O(n^2)
    operations (sequence_resultant, for a monic of degree n: the product of
    b(alpha) over the roots of a).  Scaling the n a-rows gives
    res(a, b) = lc(a)^n res(a/lc(a), b) when deg a = n; swapping the two
    blocks of n rows gives (-1)^n res(b, a) when deg a < n = deg b; and when
    both degrees are below n the first column is zero.  Over k[T] a monic a
    of degree n takes the determinant of multiplication by b on R[X]/(a)
    (_mult_matrix), and every other pair (-1)^{n(n-1)/2} det Bez_n(a, b),
    the n x n Bezoutian (bezout_coeffs).
    """
    if n < max(a.degree, b.degree):
        raise FieldError("formal degree below an actual degree")
    R = a.ring
    if n == 0:
        return R.one
    if not isinstance(R, PolyRing):
        if a.degree < n:
            if b.degree < n:
                return R.zero
            r = resultant_nn(b, a, n)
            return R.neg(r) if n % 2 else r
        r = sequence_resultant(*remainder_sequence(a.monic(), b))
        return R.mul(R.pow(a.lead, n), r)
    if a.degree == n and a.is_monic():
        return linalg.det(R, _mult_matrix(a, b, n))
    d = linalg.det(R, bezout_coeffs(a, b, n))
    return R.neg(d) if n * (n - 1) // 2 % 2 else d


def _mult_matrix(a: Poly, b: Poly, n: int):
    """Multiplication by b on R[X]/(a), a monic of degree n, deg b <= n:
    column j holds X^j * b reduced modulo a, on the basis 1, X, ..., X^{n-1}.
    Each column is the last one shifted up one place, with its top entry t
    folded back by X^n = -(a_0 + ... + a_{n-1} X^{n-1}): one ring product per
    nonzero a_i, in place."""
    R = a.ring
    sub, mul = R.sub, R.mul
    low = [(i, c) for i, c in enumerate(a.coeffs[:n]) if not R.is_zero(c)]

    def fold(col, t):
        if not R.is_zero(t):
            for i, c in low:
                col[i] = sub(col[i], mul(t, c))
        return col

    col = fold([b.coeff(i) for i in range(n)], b.coeff(n))
    cols = [col]
    for _ in range(n - 1):
        col = fold([R.zero] + col[:-1], col[-1])
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def bezout_coeffs(A: Poly, B: Poly, n: int):
    """Coefficient matrix of (A(X)B(Y)-A(Y)B(X))/(X-Y) at formal degree n.

    Entry (i, j), 0-based, is sum_t a_{i+1+t} b_{j-t} - a_{j-t} b_{i+1+t}
    over t >= 0 with j-t >= 0 and i+1+t <= n, that is a_{i+1} b_j -
    a_j b_{i+1} plus entry (i+1, j-1) (zero off the matrix): the rows are
    built from the bottom, two products an entry, no bivariate arithmetic.
    """
    R = A.ring
    add, sub, mul = R.add, R.sub, R.mul
    a = [A.coeff(k) for k in range(n + 1)]
    b = [B.coeff(k) for k in range(n + 1)]
    rows = [None] * n
    below = [R.zero] * n  # row i+1, read at column j-1
    for i in range(n - 1, -1, -1):
        ai, bi = a[i + 1], b[i + 1]
        row = [sub(mul(ai, b[0]), mul(a[0], bi))]
        for j in range(1, n):
            row.append(add(sub(mul(ai, b[j]), mul(a[j], bi)), below[j - 1]))
        rows[i] = below = row
    return rows


def bezout_pair(A: Poly, B: Poly) -> tuple[Poly, Poly]:
    """The unique (U, V) with A*U + B*V = 1, deg U <= n-2, deg V <= n-1.

    A must be monic of degree n >= 1 with deg B < n and res_{n,n}(A, B) a
    unit; raises FieldError otherwise.  Over a field (U, V) are read off
    remainder_sequence(A, B) by sequence_cofactors; over k[T] V = 1/B
    modulo A is column 0 of the exact inverse of multiplication by B (the
    determinant is the resultant, a nonzero constant, so every division is
    exact).
    """
    R = A.ring
    n = A.degree
    if n < 1 or not A.is_monic() or B.degree >= n:
        raise FieldError("bezout_pair expects monic A with deg B < deg A")
    if isinstance(R, PolyRing):
        return _bezout_pair_kt(A, B, n)
    steps, g = remainder_sequence(A, B)
    if g.degree != 0:
        raise FieldError("not coprime / not a point of F_n")
    return sequence_cofactors(steps, g)


def _bezout_pair_kt(A: Poly, B: Poly, n: int) -> tuple[Poly, Poly]:
    R = A.ring
    # V = 1/B modulo A: column 0 of the inverse of multiplication by B, whose
    # determinant is the resultant; then U = (1 - B V)/A exactly.
    try:
        inv = linalg.inverse(R, _mult_matrix(A, B, n))
    except FieldError as exc:
        raise FieldError("not coprime / not a point of F_n") from exc
    V = Poly.make(R, [row[0] for row in inv])
    U, rem = poly_divmod(const(R, R.one) - B * V, A)
    if not rem.is_zero():
        raise FieldError("A does not divide 1 - B V: the solved V is not 1/B mod A")
    return U, V


def laurent_expand(V: Poly, A: Poly, m: int) -> tuple:
    """First m coefficients s_1..s_m of V/A = s_1 X^{-1} + s_2 X^{-2} + ...

    Requires deg V < deg A and A monic; works over a field or over k[T].
    """
    R = V.ring
    n = A.degree
    if V.degree >= n:
        raise FieldError("laurent_expand needs deg V < deg A")
    if not A.is_monic():
        raise FieldError("laurent_expand needs monic A")
    out = []
    r = V
    for _ in range(m):
        s = r.coeff(n - 1)
        out.append(s)
        r = r.shift(1) - A.scale(s)
    return tuple(out)
