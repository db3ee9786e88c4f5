"""Shared helpers: independent oracles and exhaustive/random generators.

The oracles here deliberately avoid the library's own computation paths:
products by the schoolbook double loop, determinants by permutation
expansion, the two-variable numerator quotient by direct division in the
second variable, Laurent coefficients by long division, discrete logs by
scanning powers.  Expected values in the tests
are either computed by these or asserted as frozen literals checked
against them.
"""
from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import p1h
from p1h.bezout_hankel import SymMatrix
from p1h.fields import GF, QQ, FieldError, Rationals
from p1h.poly import Poly, PolyRing, X, const, poly_divmod
from p1h import expr
from p1h.quadform import REAL_PLACE
from p1h.ratmap import (
    UnpointedRat,
    cf_expand,
    mk_pointed,
    monomial_sum,
    oplus,
    oplus_all,
    poly_point,
    x_over,
)


def block_sum(S1, S2):
    """The symmetric matrix S1 (+) S2."""
    z = S1.ring.zero
    rows = [list(r) + [z] * S2.n for r in S1.rows]
    rows += [[z] * S1.n + list(r) for r in S2.rows]
    return SymMatrix.make(S1.ring, rows)


def _convolve(a, b, zero, add, mul):
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _trim(ring, cs):
    """A Poly of the list cs with trailing zeros dropped by the ring's own
    zero test (independent of Poly.trimmed)."""
    cs = list(cs)
    while cs and ring.is_zero(cs[-1]):
        cs.pop()
    return Poly(ring, tuple(cs))


def _entry_ops(K):
    """add, sub and mul of k[T] entries through the base field's own
    operations (independent of Poly.__add__, __sub__ and __mul__)."""

    def zip_with(op):
        def f(u, v):
            n = max(len(u.coeffs), len(v.coeffs))
            return _trim(K, [op(u.coeff(i), v.coeff(i)) for i in range(n)])

        return f

    def mul(u, v):
        return _trim(K, _convolve(u.coeffs, v.coeffs, K.zero, K.add, K.mul))

    return zip_with(K.add), zip_with(K.sub), mul


def schoolbook_mul(x, y):
    """x * y by the double loop, at both levels over k[T], with the base
    field's own add and mul (independent of Poly.__mul__, which packs)."""
    R = x.ring
    if not isinstance(R, PolyRing):
        return _trim(R, _convolve(x.coeffs, y.coeffs, R.zero, R.add, R.mul))
    add, _, mul = _entry_ops(R.base)
    return _trim(R, _convolve(x.coeffs, y.coeffs, R.zero, add, mul))


def schoolbook_divmod(a, b):
    """a = b*q + r, deg r < deg b, by the schoolbook loop: one call of the
    coefficient ring's own operations per coefficient, over k[T] the entry
    operations above (independent of poly_divmod's integer kernels)."""
    R = a.ring
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if isinstance(R, PolyRing):
        K = R.base
        _, sub, mul = _entry_ops(K)
        if not b.lead.coeffs or b.lead.degree > 0:
            raise FieldError("non-monic divisor over polynomial ring")
        inv_lead = Poly(K, (K.inv(b.lead.coeffs[0]),))
    else:
        sub, mul = R.sub, R.mul
        inv_lead = R.inv(b.lead)
    db = b.degree
    if a.degree < db:
        return Poly(R, ()), a
    rem = list(a.coeffs)
    q = [R.zero] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db]
        if R.is_zero(c):
            continue
        factor = mul(c, inv_lead)
        q[i] = factor
        for j, bc in enumerate(b.coeffs):
            rem[i + j] = sub(rem[i + j], mul(factor, bc))
    return _trim(R, q), _trim(R, rem[:db])


def reference_normal_form_steps(f):
    """normal_form_cert(f) by the per-block route, in the rounds the
    certificate takes: slide every block to its monomial, then split every
    monomial X^d/u of degree d > 1, one block at a time.  Each block's move is
    its own step, `_embed` of the block's k[T] point between its constant
    companions; a split's point is solved by mk_pointed over k[T], not
    written down.  Returns one (kind, steps, start, end) per round, kind
    "slide" or "split", start and end the field points the round's first
    step passes at T = 0 and its last at T = 1."""
    from p1h.certify import _embed, _interp_poly
    from p1h.ratmap import eval_path

    field = f.ring
    kt = PolyRing(field)
    slots = [poly_point(P, b) for P, b in cf_expand(f)]
    rounds = []

    def run(kind, move):
        # move(slot) -> (its k[T] point, its replacement slots), or None
        steps, done = [], []
        for i, g in enumerate(slots):
            moved = move(g)
            if moved is None:
                done.append(g)
                continue
            steps.append(_embed(kt, done, moved[0], slots[i + 1:]))
            done += moved[1]
        if steps:
            rounds.append((kind, steps, eval_path(steps[0], 0), eval_path(steps[-1], 1)))
        return done

    def slide(g):
        u, xd = g.B.constant(), X(field).shift(g.n - 1)
        if g.A == xd:
            return None
        return poly_point(_interp_poly(kt, g.A, xd), u), [poly_point(xd, u)]

    def split(g):
        if g.n == 1:
            return None
        u, d = g.B.constant(), g.n
        B1 = Poly.make(field, [u] + [field.zero] * (d - 2) + [field.one])
        G = mk_pointed(_interp_poly(kt, g.A, g.A), _interp_poly(kt, g.B, B1))
        return G, [poly_point(P, b) for P, b in cf_expand(mk_pointed(g.A, B1))]

    while True:
        slots = run("slide", slide)
        if all(g.n == 1 for g in slots):
            return rounds
        slots = run("split", split)


def perm_det(field, M):
    """Determinant by permutation expansion (independent of linalg)."""
    n = len(M)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, M[i][p[i]])
        total = field.add(total, term if sign > 0 else field.neg(term))
    return total


def minor_det(ring, M):
    """Determinant by Laplace expansion along the rows, each minor computed
    once (keyed by the columns it has used): 2^n n products, no division,
    independent of linalg, so it serves over k[T] at 8 x 8."""
    n = len(M)
    memo = {}

    def rest(row, used):
        if row == n:
            return ring.one
        if used not in memo:
            acc, sign = ring.zero, 1
            for j in range(n):
                if used >> j & 1:
                    continue
                if not ring.is_zero(M[row][j]):
                    term = ring.mul(M[row][j], rest(row + 1, used | 1 << j))
                    acc = ring.add(acc, term if sign > 0 else ring.neg(term))
                sign = -sign
            memo[used] = acc
        return memo[used]

    return rest(0, 0)


def sylvester_nn(a, b, n):
    """The 2n x 2n Sylvester matrix of (a, b), both padded to formal degree n:
    a-rows above b-rows, coefficients descending.  Its determinant defines
    res_{n,n}(a, b); the library never builds it."""
    R = a.ring
    rows = []
    for p in (a, b):
        cs = [p.coeff(n - j) for j in range(n + 1)]  # descending, padded
        for i in range(n):
            rows.append([R.zero] * i + cs + [R.zero] * (n - 1 - i))
    return rows


def delta_matrix_oracle(field, A, B, n):
    """Coefficient matrix of (A(X)B(Y) - A(Y)B(X))/(X - Y) by dividing in Y.

    Works with explicit bivariate coefficient tables, independently of the
    library's recurrence.
    """
    # numerator N[i][j] = coeff of X^i Y^j
    N = [[field.zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            N[i][j] = field.sub(
                field.mul(A.coeff(i), B.coeff(j)), field.mul(A.coeff(j), B.coeff(i))
            )
    # divide by (Y - X) viewing rows as coefficients in Y over k[X]:
    # quotient Q with N = (Y - X) Q, then delta = -Q
    Q = [[field.zero] * (n + 1) for _ in range(n + 1)]
    rem = [row[:] for row in N]
    for j in range(n, 0, -1):
        for i in range(n + 1):
            c = rem[i][j]
            Q[i][j - 1] = c
            rem[i][j] = field.zero
            # add X * c back into Y^{j-1}
            if not field.is_zero(c) and i + 1 <= n:
                rem[i + 1][j - 1] = field.add(rem[i + 1][j - 1], c)
    delta = [[field.neg(Q[i][j]) for j in range(n)] for i in range(n)]
    return delta


def laurent_oracle(field, V, A, m):
    """s_1..s_m of V/A by long division of V X^m by A."""
    q, _ = poly_divmod(V.shift(m), A)
    n = A.degree
    # V/A = q X^{-m} + O(X^{-m-1})? rather: coefficients of X^{m-i} in q
    return tuple(q.coeff(m - i) for i in range(1, m + 1))


def dlog(field, a):
    """Discrete log of a unit of F_p to the base field.generator(), by
    scanning all p - 1 powers (a reference for small p only)."""
    g, x = field.generator(), 1
    for e in range(field.p - 1):
        if x == a % field.p:
            return e
        x = x * g % field.p
    raise ValueError(f"{a} is not a unit mod {field.p}")


def all_points(field, n):
    """All of F_n(field) for a finite field."""
    q = field.p
    out = []
    for acoef in itertools.product(range(q), repeat=n):
        A = Poly.make(field, list(acoef) + [1])
        for bcoef in itertools.product(range(q), repeat=n):
            B = Poly.make(field, list(bcoef))
            try:
                out.append(mk_pointed(A, B))
            except Exception:
                continue
    return out


def random_point(field, n, rng):
    """A random valid point, by retrying small random coefficients.

    Rational coefficients stay small (mostly integers, an occasional half)
    so that downstream resultants remain at desk scale.
    """
    while True:
        if field is QQ or not hasattr(field, "p"):
            acoef = [
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2]))
                for _ in range(n)
            ]
            bcoef = [
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2]))
                for _ in range(n)
            ]
        else:
            acoef = [rng.randrange(field.p) for _ in range(n)]
            bcoef = [rng.randrange(field.p) for _ in range(n)]
        A = Poly.make(field, acoef + [field.one])
        B = Poly.make(field, bcoef)
        try:
            return mk_pointed(A, B)
        except Exception:
            continue


EUCLID_FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def euclid_pairs(field, count=400, seed=2009):
    """Seeded pairs (a, b) for the remainder-sequence tests, in five kinds
    taken in turn: monic a over a lower-degree b (field points and
    non-points); a shared monic factor; deg a < deg b; a zero or constant
    operand; and free degrees up to 6, often monic a with deg b = deg a."""
    rng = random.Random(seed)

    def coeff(nonzero=False):
        while True:
            if field is QQ:
                c = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
            else:
                c = rng.randrange(field.p)
            if c or not nonzero:
                return c

    def rand(d, monic=False):
        if d < 0:
            return Poly.make(field, [])
        return Poly.make(field, [coeff() for _ in range(d)] + [1 if monic else coeff(True)])

    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            n = rng.randint(1, 7)
            a, b = rand(n, monic=True), rand(rng.randint(-1, n - 1))
        elif kind == 1:
            c = rand(rng.randint(1, 2), monic=True)
            a, b = rand(rng.randint(0, 4), monic=True) * c, rand(rng.randint(0, 4)) * c
        elif kind == 2:
            a = rand(rng.randint(-1, 3))
            b = rand(rng.randint(max(a.degree, 0) + 1, 6))
        elif kind == 3:
            a, b = rand(rng.randint(-1, 0)), rand(rng.randint(-1, 6))
            if rng.random() < 0.5:
                a, b = b, a
        else:
            n = rng.randint(0, 6)
            a = rand(n, monic=rng.random() < 0.6)
            b = rand(n if rng.random() < 0.3 else rng.randint(-1, 6))
        out.append((a, b))
    return out


def solved_twin(f):
    """f's (A, B, U, V, res) and those of the point mk_pointed solves from
    (f.A, f.B) alone: equal when f was built from the right Bezout pair."""
    g = mk_pointed(f.A, f.B)
    return (f.A, f.B, f.U, f.V, f.res), (g.A, g.B, g.U, g.V, g.res)


def p1h_env():
    """The environment with this p1h first on PYTHONPATH, for subprocesses."""
    src = os.path.dirname(os.path.dirname(p1h.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_optimized(script, *args):
    """stdout of `python -O -c script args...` with this p1h importable;
    -O strips asserts, so checks that carry guarantees must not be one."""
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        capture_output=True, text=True, env=p1h_env(), check=True, timeout=120,
    ).stdout


# ---------------------------------------------------------------------------
# The expression parser as it was before it tokenized once: each try of a
# ratfun separator re-tokenizes both sides from text, and each sum part is
# rescanned as it grows.  Quadratic in the length, but the reference that the
# token-slice parser (p1h.expr) is checked against, value for value and
# exception type for exception type.
# ---------------------------------------------------------------------------


def _ref_tokenize(text, var):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
            continue
        if c.upper() == var.upper():
            toks.append(("var", var, i))
            i += 1
            continue
        raise expr.ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", len(text)))
    return toks


class _RefPolyParser:
    def __init__(self, field, text, var):
        self.field = field
        self.toks = _ref_tokenize(text, var)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        tok = self.toks[self.k]
        if kind and tok[0] != kind:
            raise expr.ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> Poly:
        p = self.parse_poly()
        tok = self.peek()
        if tok[0] != "end":
            raise expr.ParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def parse_poly(self) -> Poly:
        field = self.field
        coeffs: dict[int, object] = {}
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            exp, c = self.parse_term()
            if sign < 0:
                c = field.neg(c)
            coeffs[exp] = field.add(coeffs.get(exp, field.zero), c)
            tok = self.peek()
            if tok[0] in "+-":
                sign = -1 if self.take()[0] == "-" else 1
                continue
            break
        deg = max(coeffs) if coeffs else 0
        return Poly.make(field, [coeffs.get(i, field.zero) for i in range(deg + 1)])

    def parse_term(self):
        field = self.field
        tok = self.peek()
        if tok[0] == "num":
            c = self.parse_coeff()
            if self.peek()[0] == "*":
                self.take()
                self.take("var")
                return self.parse_power(), c
            if self.peek()[0] == "var":
                self.take()
                return self.parse_power(), c
            return 0, c
        if tok[0] == "var":
            self.take()
            return self.parse_power(), field.one
        raise expr.ParseError(f"expected a term, found {tok[1]!r}", tok[2])

    def parse_power(self):
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("num")
            exp = int(tok[1])
            if exp > expr.MAX_EXPONENT:
                raise expr.ParseError(f"exponent {exp} exceeds {expr.MAX_EXPONENT}", tok[2])
            return exp
        return 1

    def parse_coeff(self):
        field = self.field
        num = int(self.take("num")[1])
        if self.peek()[0] == "/" and isinstance(field, Rationals):
            # only consumed in poly-only contexts; at the ratfun level the
            # split has already removed the separator
            save = self.k
            self.take()
            if self.peek()[0] == "num":
                den = int(self.take("num")[1])
                if den == 0:
                    raise expr.ParseError("zero denominator", self.toks[save][2])
                return Fraction(num, den)
            self.k = save
        return field.from_int(num)


def ref_parse_poly(text: str, field, var: str = "X") -> Poly:
    return _RefPolyParser(field, text, var).parse()


def _ref_strip_outer_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, c in enumerate(text):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        text = text[1:-1].strip()
    return text


def _ref_depth0_positions(text: str, ch: str):
    out = []
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ch and depth == 0:
            out.append(i)
    return out


def ref_parse_ratfun(text: str, field):
    body = text.strip()
    slashes = _ref_depth0_positions(body, "/")
    if not slashes:
        raise expr.ParseError("a rational function needs a '/'", len(body))
    last_err = None
    for pos in reversed(slashes):
        try:
            A = ref_parse_poly(_ref_strip_outer_parens(body[:pos]), field)
            B = ref_parse_poly(_ref_strip_outer_parens(body[pos + 1 :]), field)
        except expr.ParseError as exc:
            last_err = exc
            continue
        return expr._classify_pair(field, A, B)
    raise last_err


def ref_parse_ratfun_sum(text: str, field):
    body = text.strip()
    segments = []
    start = 0
    for cut in _ref_depth0_positions(body, "+"):
        seg = body[start:cut]
        if _ref_depth0_positions(seg, "/"):
            segments.append(seg)
            start = cut + 1
    segments.append(body[start:])
    if len(segments) == 1:
        return ref_parse_ratfun(body, field)
    fs = [ref_parse_ratfun(seg, field) for seg in segments]
    if any(isinstance(f, UnpointedRat) for f in fs):
        raise expr.ParseError("monoid sums need pointed summands", 0)
    return oplus_all(fs[0].ring, fs)


# The Fraction-based local symbols that quadform's integer kernel replaced,
# kept as its reference: each unit part is a Fraction, and the Hasse
# cocycle's running product is rebuilt as a Fraction at every step.


def _ref_val_unit(a: Fraction, p: int):
    """(v, u) with a = p^v u and u a p-adic unit (as Fraction)."""
    v = 0
    num, den = a.numerator, a.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _ref_legendre_frac(u: Fraction, p: int) -> int:
    r = (u.numerator * pow(u.denominator, -1, p)) % p
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def ref_hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b)_v over Q at a prime or the real place."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise FieldError("hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha, u = _ref_val_unit(a, p)
    beta, w = _ref_val_unit(b, p)
    if p == 2:
        eps_u = ((u.numerator * pow(u.denominator, -1, 8)) % 8 - 1) // 2 % 2
        eps_w = ((w.numerator * pow(w.denominator, -1, 8)) % 8 - 1) // 2 % 2
        u8 = (u.numerator * pow(u.denominator, -1, 8)) % 8
        w8 = (w.numerator * pow(w.denominator, -1, 8)) % 8
        omega_u = (u8 * u8 - 1) // 8 % 2
        omega_w = (w8 * w8 - 1) // 8 % 2
        e = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if e % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and (p % 4) == 3:
        sign = -sign
    if beta % 2 and _ref_legendre_frac(u, p) == -1:
        sign = -sign
    if alpha % 2 and _ref_legendre_frac(w, p) == -1:
        sign = -sign
    return sign


def ref_hasse(values, p) -> int:
    """prod_j (a_1 ... a_{j-1}, a_j)_p, the running product kept as the
    Fraction p^(v mod 2) times its unit part reduced modulo 8 or p."""
    m = 8 if p == 2 else p
    h, d = 1, Fraction(1)
    for a in values:
        h *= ref_hilbert_symbol(d, a, p)
        v, u = _ref_val_unit(d * a, p)
        d = Fraction(p ** (v % 2) * (u.numerator * pow(u.denominator, -1, m) % m))
    return h


def ref_is_local_square(a: Fraction, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p."""
    v, u = _ref_val_unit(a, p)
    if v % 2:
        return False
    if p == 2:
        return u.numerator * pow(u.denominator, -1, 8) % 8 == 1
    return _ref_legendre_frac(u, p) == 1


@pytest.fixture
def rng():
    return random.Random(20260808)
