"""Constructive homotopy certificates and their exact verifier.

A certificate is a chain of k[T]-points (pointed rational paths, unpointed
projective paths, paths of maps to P^d, or symmetric k[T] matrices) whose
endpoints match up: the T=1 evaluation of each step equals the T=0
evaluation of the next.  The verifier re-checks every step's validity from
scratch (constant unit resultant or determinant, or an explicit
unimodularity identity), so a third party can re-verify a serialized
certificate without trusting its generator.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .bezout_hankel import SymMatrix, f2_iso_inv
from .classify import PdPoint, mk_pd, normalized_equiv, pointed_difference
from .fields import (
    FieldError,
    PrimeField,
    Rationals,
    factorize,
    rational_root,
    sqrt_mod,
    squarefree_part,
)
from .poly import (
    Poly,
    PolyRing,
    X,
    const,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    resultant_nn,
    zero,
)
from .quadform import _sqrt_exact, is_isotropic, isotropic_at, oplog_to_path
from .ratmap import (
    PointedRat,
    UnpointedRat,
    cf_expand,
    cf_values,
    elementary_path,
    identity_point,
    mk_pointed,
    monomial_sum,
    normalize_unpointed,
    oplus,
    oplus_all,
    path_of_point,
    pointed_from_pair,
    poly_point,
    projective_normal,
    reflect,
    reflect_poly,
    reverse_path,
    sl2_elementary_factors,
    x_over,
)


class Exhausted:
    """A decision without a certificate.  No certificate path returns it
    any more (diagonal chains are constructed at every degree); it stays
    defined for callers that still compare results with it."""

    def __repr__(self):
        return "Exhausted"


EXHAUSTED = Exhausted()


@dataclass(frozen=True)
class NotEquivalent:
    """Decision: not homotopic, with the differing invariant components."""

    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class PairStep:
    """A bare k[T]-step (A, B) of degree n: an unpointed step (a homogeneous
    pair up to scaling), or a pointed step as loaded from a certificate."""

    kt: object
    n: int
    A: Poly
    B: Poly


@dataclass(frozen=True)
class Certificate:
    kind: str  # "pointed" | "unpointed" | "pd" | "symmat"
    field: object
    steps: tuple
    source: object
    target: object


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str = "ok"
    step: int | None = None

    def __bool__(self):
        return self.ok


def _step_valid(kind, step, field):
    kt = PolyRing(field)
    if kind == "pointed":
        A, B = step.A, step.B
        n = A.degree
        if not A.is_monic() or B.degree >= n:
            return "step is not a monic pair"
        res = resultant_nn(A, B, n)
        if not res.is_constant() or res.is_zero():
            return "non-constant resultant"
        return None
    if kind == "unpointed":
        if step.A.degree > step.n or step.B.degree > step.n:
            return "coefficient degree above n"
        if step.n == 0:
            # res_{0,0} is identically 1; validity is the non-vanishing of
            # the coefficient vector for every parameter value
            a = step.A.coeff(0)
            b = step.B.coeff(0)
            g = poly_gcd(a, b)
            if g.is_zero() or g.degree > 0:
                return "coefficient vector vanishes along the path"
            return None
        res = resultant_nn(step.A, step.B, step.n)
        if not res.is_constant() or res.is_zero():
            return "non-constant resultant"
        return None
    if kind == "pd":
        A = step.A
        n = A.degree
        if not A.is_monic():
            return "A is not monic"
        for B in step.Bs:
            if B.degree >= n:
                return "denominator degree too large"
        if len(step.cofactors) != len(step.Bs) + 1:
            return "cofactor identity fails"
        total = A * step.cofactors[0]
        for B, c in zip(step.Bs, step.cofactors[1:]):
            total = total + B * c
        if not (total - const(kt, kt.one)).is_zero():
            return "cofactor identity fails"
        return None
    if kind == "symmat":
        if not isinstance(step, SymMatrix) or step.ring != kt:
            return "step is not a symmetric matrix over k[T]"
        d = step.det()
        if d.is_zero() or not d.is_constant():
            return "non-constant determinant"
        return None
    return f"unknown kind {kind}"


def _coords(kind, field, p, t=None):
    """The coefficient vectors of a point, or of a step at T = t for t = 0
    or 1 (read directly: constant terms, coefficient sums), in the one
    form endpoint equality compares: lowest degree first, padded with zeros
    to length n+1, and for an unpointed point scaled so that the first
    nonzero coordinate is 1.  A point of a step that passes `_step_valid` is
    valid by construction, so nothing is rebuilt.  A symmetric matrix's
    coordinates are its rows."""
    if kind == "symmat":
        return p.rows if t is None else p.eval(t).rows
    if isinstance(p, UnpointedRat):
        return p.avec, p.bvec  # stored padded and scaled
    polys = (p.A, *p.Bs) if kind == "pd" else (p.A, p.B)
    vecs = [P.coeffs for P in polys]
    if t is not None:
        vecs = [_end_coeffs(field, v, t) for v in vecs]
    pad = [field.zero] * (p.n + 1)
    vecs = tuple(tuple(v) + tuple(pad[len(v):]) for v in vecs)
    return projective_normal(field, vecs) if kind == "unpointed" else vecs


def verify(cert: Certificate) -> VerifyResult:
    """Mechanically re-check a certificate: every step is a valid k[T]-point
    and the endpoints chain from source to target.

    Each step is checked once, from its coefficients alone (`_step_valid`),
    and its T=0 and T=1 coefficients are compared with the chain's current
    point."""
    kind, field = cert.kind, cert.field
    cur = _coords(kind, field, cert.source)
    for idx, step in enumerate(cert.steps):
        problem = _step_valid(kind, step, field)
        if problem:
            return VerifyResult(False, f"{problem} at step {idx}", idx)
        if _coords(kind, field, step, 0) != cur:
            return VerifyResult(False, f"endpoint mismatch at step {idx}", idx)
        cur = _coords(kind, field, step, 1)
    if cur != _coords(kind, field, cert.target):
        return VerifyResult(False, "target mismatch", len(cert.steps))
    return VerifyResult(True)


def reverse_step(kind, step, field):
    kt = PolyRing(field)
    if isinstance(step, PairStep):  # every unpointed step, loaded pointed steps
        return PairStep(kt, step.n, reflect_poly(step.A), reflect_poly(step.B))
    if kind == "pointed":
        return reverse_path(step)
    if kind == "pd":
        return PdPoint(
            kt,
            step.d,
            reflect_poly(step.A),
            tuple(reflect_poly(B) for B in step.Bs),
            tuple(reflect_poly(c) for c in step.cofactors),
        )
    if kind == "symmat":
        return SymMatrix.make(kt, [[reflect(c) for c in row] for row in step.rows])
    raise FieldError(f"unknown kind {kind}")


def reverse_certificate(cert: Certificate) -> Certificate:
    """Substitute T -> 1-T in every step and flip the chain."""
    steps = tuple(
        reverse_step(cert.kind, s, cert.field) for s in reversed(cert.steps)
    )
    return Certificate(cert.kind, cert.field, steps, cert.target, cert.source)


def concat_certificates(a: Certificate, b: Certificate) -> Certificate:
    """The chain a then b; FieldError unless they share kind and field and
    b starts where a ends."""
    if a.kind != b.kind or a.field != b.field:
        raise FieldError("certificates of different kinds or fields")
    if _coords(a.kind, a.field, a.target) != _coords(a.kind, a.field, b.source):
        raise FieldError("the first certificate does not end where the second starts")
    return Certificate(a.kind, a.field, a.steps + b.steps, a.source, b.target)


# ---------------------------------------------------------------------------
# Normal-form certificates for pointed functions
# ---------------------------------------------------------------------------


def _embed(kt, left, G, right):
    """left (+) G (+) right with constant companions, as one k[T]-step: a
    lifted SL_2 move between the field sums of the blocks beside it."""
    F = path_of_point(oplus_all(G.ring.base, left), kt) if left else identity_point(kt)
    F = oplus(F, G)
    if right:
        F = oplus(F, path_of_point(oplus_all(G.ring.base, right), kt))
    return F


def _interp_poly(kt, P: Poly, Q: Poly) -> Poly:
    """(1-T) P + T Q over k[T] for field polynomials P, Q: the straight-line
    step that every interpolating certificate step is built from."""
    field = kt.base
    # the coefficients are canonical field elements already: trimmed, not make
    return Poly.trimmed(
        kt,
        [
            Poly.trimmed(field, [P.coeff(i), field.sub(Q.coeff(i), P.coeff(i))])
            for i in range(max(P.degree, Q.degree) + 1)
        ],
    )


def _end_coeffs(field, cs, t) -> list:
    """The values at T = t, for t = 0 or 1, of the k[T] elements cs, read
    directly: their constant terms, or their coefficient sums."""
    if t == 0:
        return [c.coeffs[0] if c.coeffs else field.zero for c in cs]
    if field.char:
        return [sum(c.coeffs) % field.char for c in cs]
    return [sum(c.coeffs, field.zero) for c in cs]


def _end_point(step: PointedRat, t) -> PointedRat:
    """The field point a pointed step passes at T = t (0 or 1), with its
    pair, read off the step's coefficients; the resultant is the step's
    constant one."""
    field = step.ring.base
    at = lambda P: Poly.trimmed(field, _end_coeffs(field, P.coeffs, t))
    return PointedRat(
        field, at(step.A), at(step.B), step.res.constant(), _pair=(at(step.U), at(step.V))
    )


def normal_form_cert(f: PointedRat):
    """A certificate from f to its monomial normal form [u_1, ..., u_n].

    Follows the continued-fraction decomposition in rounds over all blocks
    P/b at once: a slide round moves each block to its leading monomial
    X^d/b, a split round each monomial X^d/u of degree d > 1 to
    X^d/(X^{d-1}+u), which splits into blocks of smaller degree, until every
    block is X/u.  Each block's homotopy is a k[T]-point, so a round is one
    step, their k[T] sum (oplus_all), whose T-degree is the number of
    blocks it moves.  Step 0 at T = 0 is the sum of f's blocks, f itself,
    and the target is read off the last step at T = 1.  Results are
    memoized (everything involved is immutable).
    """
    return _normal_form_cert_cached(f)


@lru_cache(maxsize=65536)
def _normal_form_cert_reversed(g: PointedRat) -> Certificate:
    """normal_form_cert(g) run backwards, from g's normal form to g: the
    last leg of every connect(f, g), kept because target points recur."""
    return reverse_certificate(_normal_form_cert_cached(g)[1])


@lru_cache(maxsize=65536)
def _normal_form_cert_cached(f: PointedRat):
    field = f.ring
    if isinstance(field, PolyRing):
        raise FieldError("normal forms are for field points")
    kt = PolyRing(field)
    if f.n == 0:
        return (), Certificate("pointed", field, (), f, f)
    # the blocks need not be summed back to f: verify compares step 0 at
    # T = 0 with f, and the units are checked against cf_values(f) below
    blocks = list(cf_expand(f))
    steps = []
    # each split round leaves blocks of smaller degree, so the loop ends
    while True:
        slid = [(X(field).shift(P.degree - 1), b) for P, b in blocks]
        if slid != blocks:
            # a block P/b slides along ((1-T) P + T X^d)/b, pair (0, 1/b)
            paths = [poly_point(_interp_poly(kt, P, Q), b) for (P, b), (Q, _) in zip(blocks, slid)]
            steps.append(oplus_all(kt, paths))
            blocks = slid
        if all(P.degree == 1 for P, _ in blocks):
            break
        paths, split = [], []
        for P, u in blocks:
            d = P.degree
            if d == 1:
                paths.append(poly_point(_interp_poly(kt, P, P), u))
                split.append((P, u))
                continue
            # X^d/u -> X^d/(X^{d-1} + u), then split off the lead.  The path
            # B = u + T X^{d-1} has B V = 1 - (T/u)^2 X^{2d-2} = 1 mod X^d
            # for V = 1/u - (T/u^2) X^{d-1}, so U = (T/u)^2 X^{d-2}.
            T = Poly.make(field, [field.zero, field.one])
            w = T.scale(field.inv(u))
            pad = [zero(field)] * (d - 2)
            B1 = Poly.make(field, [u] + [field.zero] * (d - 2) + [field.one])
            paths.append(pointed_from_pair(
                _interp_poly(kt, P, P),
                _interp_poly(kt, const(field, u), B1),
                Poly.make(kt, pad + [w * w]),
                Poly.make(kt, [const(field, field.inv(u))] + pad + [-w.scale(field.inv(u))]),
            ))
            split += cf_expand(mk_pointed(P, B1))
        steps.append(oplus_all(kt, paths))
        blocks = split
    units = tuple(b for _, b in blocks)
    if units != cf_values(f):
        raise FieldError("normal form units differ from the continued-fraction values")
    target = _end_point(steps[-1], 1) if steps else f
    return units, Certificate("pointed", field, tuple(steps), f, target)


# ---------------------------------------------------------------------------
# Chains of elementary SL_2 moves between diagonal forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagMove:
    """Replace the adjacent pair (a, b) at positions (i, i+1) by
    (c, ab/c), witnessed by a x^2 + b y^2 = c."""

    i: int
    c: object
    x: object
    y: object


def move_matrix(field, a, b, mv: DiagMove):
    """The SL_2 matrix P with P^T diag(a, b) P = diag(c, ab/c)."""
    c = mv.c
    x, y = mv.x, mv.y
    val = field.add(field.mul(a, field.mul(x, x)), field.mul(b, field.mul(y, y)))
    if not field.is_zero(field.sub(val, c)):
        raise FieldError(f"witness gives a x^2 + b y^2 = {val}, not {c}")
    cinv = field.inv(c)
    return [
        [x, field.neg(field.mul(b, field.mul(y, cinv)))],
        [y, field.mul(a, field.mul(x, cinv))],
    ]


def apply_move(field, units, mv: DiagMove):
    units = list(units)
    a, b = units[mv.i], units[mv.i + 1]
    units[mv.i] = mv.c
    units[mv.i + 1] = field.div(field.mul(a, b), mv.c)
    return tuple(units)


def _represent(field, a, b, c):
    """(x, y) with a x^2 + b y^2 = c, or None exactly when there is none.

    Over F_p the first x = 0, 1, 2, ... that makes (c - a x^2)/b a square
    gives y by Tonelli-Shanks.  For p odd a witness always exists and about
    half of all x qualify, so it costs about two Euler tests and one root.
    Over Q: a closed form when -ab is a square (the form is hyperbolic),
    otherwise an exact point of the conic (a/c) x^2 + (b/c) y^2 = 1 by
    Legendre descent, which fails exactly when some Hilbert symbol
    (a/c, b/c)_v is -1.
    """
    if isinstance(field, PrimeField):
        for x in field.elements():
            y = field.sqrt(field.div(field.sub(c, field.mul(a, field.mul(x, x))), b))
            if y is not None:
                return x, y
        return None
    t = _sqrt_exact(field, -a * b)
    if t is not None:
        # a x^2 + b y^2 = (a x - t y)(a x + t y)/a: take the factors 1 and a c
        return (1 + a * c) / (2 * a), (a * c - 1) / (2 * t)
    # (a/c) = s_a r_a^2 with s_a its squarefree class, likewise b/c
    A, B = a / c, b / c
    sa, sb = field.square_class(A), field.square_class(B)
    pt = _conic_point(int(sa), int(sb))
    if pt is None:
        return None
    x, y, z = pt
    return x / (_sqrt_exact(field, A / sa) * z), y / (_sqrt_exact(field, B / sb) * z)


def _conic_point(a: int, b: int):
    """A nonzero integer solution (x, y, z) of a x^2 + b y^2 = z^2 for
    squarefree a, b, or None when there is none.

    Legendre descent (Cremona and Rusin, Math. Comp. 2003): take t with
    t^2 = a mod b and write t^2 - a = b k m^2 with k squarefree.  Since
    (z + x sqrt a)(t + sqrt a) multiplies norms, a point of a x^2 + k y^2 =
    z^2 gives one of the original conic, and |a k| < |a b|.  Both conics
    have the same Hilbert symbols, so the descent fails only when a has no
    root modulo b or both coefficients are negative.
    """
    if abs(a) > abs(b):
        pt = _conic_point(b, a)
        return None if pt is None else (pt[1], pt[0], pt[2])
    if a == 1:
        return 1, 0, 1
    if b == 1:
        return 0, 1, 1
    if a < 0 and b < 0:
        return None
    t = _sqrt_mod_squarefree(a, abs(b))
    if t is None:
        return None
    km2 = (t * t - a) // b
    k = squarefree_part(km2)
    pt = _conic_point(a, k)
    if pt is None:
        return None
    x, y, z = pt
    return z + t * x, k * math.isqrt(km2 // k) * y, t * z + a * x


def _sqrt_mod_squarefree(a: int, m: int):
    """t with t^2 = a mod m and |t| <= m/2, for squarefree m > 1, or None:
    a root modulo each prime factor, combined by the Chinese remainder
    theorem."""
    t, mod = 0, 1
    for p in factorize(m):
        r = a % p if p == 2 else sqrt_mod(a, p)
        if r is None:
            return None
        t += mod * ((r - t) * pow(mod, -1, p) % p)
        mod *= p
    return t - m if 2 * t > m else t


def diag_chain(field, us, vs):
    """A chain of elementary SL_2 moves from us to vs.

    One left-to-right sweep: where position i differs from vs, the move
    (u_i, u_i+1) -> (v_i, u_i u_i+1 / v_i), witnessed by _represent, fixes
    it, and the equal products fix the last entry.  Over F_p every binary
    form represents every unit, so at most n - 1 moves.  Over Q that move
    can fail to exist when n >= 3; a placement step (_place) then brings v_i
    within reach by moves further right, at most n - 1 - i moves per
    position and n(n-1)/2 in all.  Non-isometric forms raise FieldError.
    """
    return list(_diag_chain_cached(field, tuple(us), tuple(vs)))


@lru_cache(maxsize=65536)
def _diag_chain_cached(field, us, vs):
    n = len(us)
    if us == vs:
        return ()
    if n != len(vs):
        raise FieldError("tuples of different lengths")
    prod_u = prod_v = field.one
    for a in us:
        prod_u = field.mul(prod_u, a)
    for a in vs:
        prod_v = field.mul(prod_v, a)
    if not field.is_zero(field.sub(prod_u, prod_v)):
        raise FieldError("determinants differ: no SL chain can exist")
    moves = []
    cur = us
    for i in range(n - 1):
        if cur[i] == vs[i]:
            continue
        w = _represent(field, cur[i], cur[i + 1], vs[i])
        if w is None:
            placed, cur = _place(field, cur, i, vs[i])
            moves += placed
            w = _represent(field, cur[i], cur[i + 1], vs[i])
            if w is None:
                raise FieldError(f"placement left <{cur[i]}, {cur[i + 1]}> without {vs[i]}")
        mv = DiagMove(i, vs[i], w[0], w[1])
        moves.append(mv)
        cur = apply_move(field, cur, mv)
    return tuple(moves)


def _place(field, cur, i, v):
    """The moves at positions > i after which <cur_i, cur_i+1> represents
    v, and the tuple they reach, for diagonal forms over Q with
    <cur_i, ..., cur_n> representing v.

    Take the least j with <cur_i .. cur_j> representing v and walk j down to
    i + 1: (a, b) = (cur_j-1, cur_j) becomes (t, ab/t), t = A x^2 + B y^2
    with A, B the squarefree classes of a, b, for the first coprime (x, y)
    by height with t != 0 and <cur_i .. cur_j-2, t> representing v.  An odd
    prime p of A alone gives t the class of B at p unless p | y; where that
    class fails, y runs over multiples of p (likewise for B and x).  The
    scan ends: write v = sum cur_k z_k^2 over i <= k <= j.  Minimality of j
    makes t0 = a z_j-1^2 + b z_j^2 nonzero, so <cur_i .. cur_j-2, t0>
    represents v; the test depends only on t's square class, and the
    primitive pair along (z_j-1 sqrt(a/A) : z_j sqrt(b/B)) meets every
    forced divisibility, so the scan reaches it.  The move leaves
    cur_i .. cur_j-2 alone, so j - 1 is again least.  f represents v iff
    f + <-v> is isotropic, which is_isotropic decides exactly.
    """
    nv = (field.neg(v),)
    top = next((j for j in range(i + 2, len(cur)) if is_isotropic(nv + cur[i : j + 1])), None)
    if top is None:
        raise FieldError(f"no tail of {cur[i:]} represents {v}: the forms are not isometric")
    moves = []
    for j in range(top, i + 1, -1):
        a, b = cur[j - 1], cur[j]
        A, B = field.square_class(a), field.square_class(b)
        forced = [
            p for p in factorize(int(abs(A * B)))
            if p > 2 and (A % p == 0) != (B % p == 0)
            and not isotropic_at(nv + cur[i : j - 1] + (B if A % p == 0 else A,), p)
        ]
        mx = math.prod(p for p in forced if B % p == 0)
        my = math.prod(p for p in forced if A % p == 0)
        for x, y in _coprime_pairs():
            x, y = mx * x, my * y
            t = A * x * x + B * y * y
            if t and is_isotropic(nv + cur[i : j - 1] + (t,)):  # t last: factored last
                break
        mv = DiagMove(j - 1, t, x / _sqrt_exact(field, a / A), y / _sqrt_exact(field, b / B))
        moves.append(mv)
        cur = apply_move(field, cur, mv)
    return moves, cur


def _coprime_pairs():
    """Coprime (x, y) >= 0 by height max(x, y): (0, 1), (1, 1), (1, 2),
    (2, 1), (1, 3), ...; (1, 0) would keep cur_j-1 and never passes."""
    yield 0, 1
    for h in itertools.count(1):
        for k in range(1, h + 1):
            if math.gcd(k, h) == 1:
                yield from dict.fromkeys([(k, h), (h, k)])


def lift_move_to_step(field, units, mv: DiagMove, kt=None):
    """One F_n(k[T]) step realizing an SL_2 move on [u_1, ..., u_n].

    The move's matrix is decomposed into elementary matrices, T-scaled into
    a path of symmetric 2x2 matrices from diag(b, a) (the Bezout form of
    the pair block), transported through the degree-2 chart inverse, and
    embedded at position i with constant companions.
    """
    kt = kt or PolyRing(field)
    i = mv.i
    a, b = units[i], units[i + 1]
    P = move_matrix(field, a, b, mv)
    Pt = [[P[1][1], P[1][0]], [P[0][1], P[0][0]]]  # J P J, J = [[0, 1], [1, 0]]
    D = SymMatrix.diagonal(field, (b, a))
    G = f2_iso_inv(oplog_to_path(D, sl2_elementary_factors(field, Pt)), kt.zero)
    after = apply_move(field, units, mv)
    left = [x_over(field, u) for u in units[:i]]
    right = [x_over(field, u) for u in units[i + 2 :]]
    return _embed(kt, left, G, right), after


def lift_chain_to_cert(field, us, chain) -> Certificate:
    """Certificate from [u_1..u_n] to the chain's end tuple, one step per
    move.  Its source is read off the first step at T = 0 and its target off
    the last at T = 1; only an empty chain builds the monomial sum."""
    return _lift_chain_cached(field, tuple(us), tuple(chain))


@lru_cache(maxsize=65536)
def _lift_chain_cached(field, us, chain) -> Certificate:
    kt = PolyRing(field)
    cur = tuple(us)
    steps = []
    for mv in chain:
        step, cur = lift_move_to_step(field, cur, mv, kt)
        steps.append(step)
    if not steps:
        return Certificate("pointed", field, (), monomial_sum(field, us), monomial_sum(field, us))
    return Certificate(
        "pointed", field, tuple(steps), _end_point(steps[0], 0), _end_point(steps[-1], 1)
    )


# ---------------------------------------------------------------------------
# End-to-end connection
# ---------------------------------------------------------------------------


def connect(f: PointedRat, g: PointedRat):
    """A certificate f ~ g, or NotEquivalent with the reason
    classify.pointed_difference gives: the first invariant that differs,
    compared cheapest first, so a degree, resultant or signature mismatch
    answers without factoring.

    The certificate runs from f to its monomial normal form, along the
    diagonal chain between the two normal forms, and back from g's normal
    form.  The chain is constructed without search, over F_p and over Q at
    every degree (diag_chain).
    """
    if f.ring != g.ring:
        raise FieldError("points over different fields")
    field = f.ring
    if f.A == g.A and f.B == g.B:
        return Certificate("pointed", field, (), f, g)
    reason = pointed_difference(f, g)
    if reason is not None:
        return NotEquivalent(reason)
    us, cert_f = normal_form_cert(f)
    vs = normal_form_cert(g)[0]
    out = cert_f
    if us != vs:
        middle = lift_chain_to_cert(field, us, diag_chain(field, us, vs))
        out = concat_certificates(out, middle)
    return concat_certificates(out, _normal_form_cert_reversed(g))


# ---------------------------------------------------------------------------
# Unpointed certificates
# ---------------------------------------------------------------------------


def _apply_path(kt, n, PT, A: Poly, B: Poly) -> PairStep:
    """The degree-n unpointed path P(T) . (A, B) for a 2x2 P(T) over k[T]."""
    field = kt.base
    AT = A.map_coeffs(lambda c: const(field, c), kt)
    BT = B.map_coeffs(lambda c: const(field, c), kt)
    A2 = AT.scale(PT[0][0]) + BT.scale(PT[0][1])
    B2 = AT.scale(PT[1][0]) + BT.scale(PT[1][1])
    return PairStep(kt, n, A2, B2)


def _normalization_step(move, kt) -> PairStep:
    """The path alpha(T)^{-1} . (A, B) from the unpointed source to its
    pointed representative.  alpha(T)^{-1} is the reversed product of the
    T-scaled elementary factors with negated parameters."""
    field = kt.base
    inv = [(kind, i, j, field.neg(v)) for kind, i, j, v in reversed(move.factors)]
    u = move.source
    A, B = u.polys()
    return _apply_path(kt, u.n, elementary_path(field, 2, inv), A, B)


def _lambda_witness(field, r1, r2, n):
    """lambda with r1 = r2 / lambda^{2n} (exists when the 2n-power classes
    of r1 and r2 agree)."""
    if isinstance(field, Rationals):
        return rational_root(field.div(r2, r1), 2 * n)
    return _root_mod_p(field.div(r2, r1), 2 * n, field.p, field.generator())


def _root_mod_p(c: int, m: int, p: int, g: int):
    """lambda with lambda^m = c mod p, or None when c is no m-th power.

    With N = p - 1 = s t, where s collects the primes of d = gcd(m, N):
    m is invertible mod t, so c^b with b = 0 mod s, b = 1/m mod t is an
    m-th root of the t-part; the s-part needs log_h(c^t) for h = g^t of
    order s, which Pohlig-Hellman finds over the primes of d alone."""
    N = p - 1
    d = math.gcd(m, N)
    s = 1
    while (f := math.gcd(N // s, d)) > 1:
        s *= f
    t = N // s
    e = _subgroup_log(pow(g, t, p), pow(c, t, p), s, p)
    if e % d:
        return None
    a = (e // d) * pow(t * m // d, -1, s // d) % (s // d)
    b = s * pow(s * m, -1, t)
    return pow(g, t * a, p) * pow(c, b, p) % p


def _subgroup_log(h: int, y: int, s: int, p: int) -> int:
    """x mod s with h^x = y mod p, for h of order s and y in <h>: one
    base-ell digit at a time for each prime power ell^k of s (Pohlig-Hellman)."""
    x, mod = 0, 1
    for ell, k in factorize(s).items():
        q = ell**k
        hq, yq = pow(h, s // q, p), pow(y, s // q, p)
        gamma = pow(hq, q // ell, p)  # order ell
        xq = 0
        for i in range(k):
            z = pow(yq * pow(hq, -xq, p) % p, q // ell ** (i + 1), p)
            digit = next(u for u in range(ell) if pow(gamma, u, p) == z)
            xq += digit * ell**i
        x += mod * ((xq - x) * pow(mod, -1, q) % q)
        mod *= q
    return x


def scale_pointed(f: PointedRat, lam) -> PointedRat:
    """lambda^2 f as a pointed pair: (A, B / lambda^2)."""
    field = f.ring
    lam2 = field.mul(lam, lam)
    return mk_pointed(f.A, f.B.scale(field.inv(lam2)))


def _scaling_step(f: PointedRat, lam, kt) -> PairStep:
    """Path from f to lambda^2 f: T-scaled elementary factors of
    diag(lambda, 1/lambda) applied to (A, B)."""
    field = f.ring
    M = [[lam, field.zero], [field.zero, field.inv(lam)]]
    PT = elementary_path(field, 2, sl2_elementary_factors(field, M))
    return _apply_path(kt, f.n, PT, f.A, f.B)


def unpointed_connect(u1: UnpointedRat, u2: UnpointedRat):
    """Certificate for unpointed equivalence, or NotEquivalent, via a
    lambda^2 rescaling witness and a pointed certificate."""
    if u1.field != u2.field:
        raise FieldError("points over different fields")
    field = u1.field
    f1, mv1 = normalize_unpointed(u1)
    f2, mv2 = normalize_unpointed(u2)
    if not normalized_equiv(f1, f2):
        return NotEquivalent("unpointed invariants differ")
    kt = PolyRing(field)
    n = f1.n
    if n == 0:
        # constant maps: one straight-line path (distinct projective points
        # are never anti-parallel, so the interpolant never vanishes)
        if u1.avec == u2.avec and u1.bvec == u2.bvec:
            return Certificate("unpointed", field, (), u1, u2)
        (A1, B1), (A2, B2) = u1.polys(), u2.polys()
        step = PairStep(kt, 0, _interp_poly(kt, A1, A2), _interp_poly(kt, B1, B2))
        return Certificate("unpointed", field, (step,), u1, u2)
    lam = _lambda_witness(field, f1.res, f2.res, n)
    if lam is None:
        return NotEquivalent("no rescaling witness exists")
    pcert = connect(f1, scale_pointed(f2, lam))
    if isinstance(pcert, NotEquivalent):
        # the unpointed invariants agree, so lambda^2 f2 must match f1
        raise FieldError(f"rescaling witness {field.format(lam)} is wrong: {pcert.reason}")
    steps = []
    if mv1.factors:
        steps.append(_normalization_step(mv1, kt))
    steps += [PairStep(kt, s.n, s.A, s.B) for s in pcert.steps]
    lam2 = field.mul(lam, lam)
    if not field.is_zero(field.sub(lam2, field.one)):
        steps.append(reverse_step("unpointed", _scaling_step(f2, lam, kt), field))
    if mv2.factors:
        steps.append(
            reverse_step("unpointed", _normalization_step(mv2, kt), field)
        )
    return Certificate("unpointed", field, tuple(steps), u1, u2)


# ---------------------------------------------------------------------------
# Certificates for maps to P^d over prime fields
# ---------------------------------------------------------------------------


def _crt_selectors(field, moduli):
    """e_i = 1 mod Q_i, 0 mod the others, for pairwise coprime Q_i
    (modulo A = prod Q_i)."""
    A = const(field, field.one)
    for Q in moduli:
        A = A * Q
    outs = []
    for Q in moduli:
        rest = poly_divmod(A, Q)[0]
        g, s, t = poly_xgcd(rest, Q)
        if g.degree != 0:
            raise FieldError("CRT moduli are not pairwise coprime")
        e = poly_divmod(rest * s, A)[1]
        outs.append(e)
    return outs


def _coprime_split(A: Poly, Bs):
    """Split monic A into pairwise coprime monic pieces Q_i, each tagged
    with the first slot j_i whose B_j is a unit modulo Q_i, by gcds alone.

    For j = 0, 1, ... the largest factor of what is left of A that is
    coprime to B_j becomes a piece.  Every irreducible factor of A lands in
    the piece of the first B_j it does not divide.  Raises FieldError when
    a part of A is a non-unit modulo every B_j."""
    pieces = []
    rest = A
    for j, B in enumerate(Bs):
        if rest.degree == 0:
            break
        # strip from Q every irreducible it shares with B_j: g keeps them all
        Q = rest
        g = poly_gcd(Q, B)
        while g.degree > 0:
            Q = poly_divmod(Q, g)[0]
            g = poly_gcd(Q, g)
        if Q.degree > 0:
            pieces.append((Q, j))
            rest = poly_divmod(rest, Q)[0]
    if rest.degree > 0:
        raise FieldError("A and the B_j do not generate the unit ideal")
    return pieces


def pd_cert(p: PdPoint) -> Certificate:
    """Certificate from p to the standard point (X^n, 1, ..., 1).

    Every step is one straight-line slide of A and each B_j (`slide`): from
    slot cofactors c_j with sum c_j B_j(T) = 1 modulo A(T), the A-cofactor
    is -(sum c_j B_j(T) - 1)/A(T), an exact division.  Splits A into
    pairwise coprime pieces on each of which some B_j is a unit, and
    aggregates these local units into one global unit W of k[X]/(A) with
    Chinese-remainder selectors.  The slides take B_2 to W (slot cofactors:
    selector times local inverse), B_1 to 1 (1/W on B_2), the other B_j to
    1 and then A to X^n (1 on B_1).  A point whose A and B_j do not
    generate the unit ideal raises FieldError.
    """
    field = p.ring
    if isinstance(field, PolyRing):
        raise FieldError("pd_cert starts from a field point")
    if not isinstance(field, PrimeField):
        raise FieldError("unsupported: certificates for P^d need a prime field")
    n, d = p.n, p.d
    kt = PolyRing(field)
    if n == 0:
        return Certificate("pd", field, (), p, p)
    one, nil = const(field, field.one), zero(field)
    ones, on_b1 = (one,) * d, (one,) + (nil,) * (d - 1)
    steps = []
    A, Bs = p.A, tuple(p.Bs)

    def slide(A1, Bs1, slot_cofactors):
        nonlocal A, Bs
        A_T = _interp_poly(kt, A, A1)
        Bs_T = tuple(_interp_poly(kt, B, B1) for B, B1 in zip(Bs, Bs1))
        cofactors = tuple(Poly.make(kt, c.coeffs) for c in slot_cofactors)
        total = zero(kt)
        for c, B in zip(cofactors, Bs_T):
            total = total + c * B
        quo, rem = poly_divmod(total - const(kt, kt.one), A_T)
        if not rem.is_zero():
            raise FieldError("slot cofactors do not give 1 modulo A")
        # rem = 0 is A_T c_0 + sum c_j B_j = 1; both ends are valid points
        steps.append(PdPoint(kt, d, A_T, Bs_T, (-quo,) + cofactors))
        A, Bs = A1, tuple(Bs1)

    if any(B != one for B in Bs):
        pieces = _coprime_split(A, Bs)
        W, slot_cofactors = nil, [nil] * d
        for e, (Q, j) in zip(_crt_selectors(field, [Q for Q, _ in pieces]), pieces):
            g, s, _ = poly_xgcd(Bs[j], Q)
            if g.degree != 0:
                raise FieldError("a piece's B_j is not a unit modulo the piece")
            W = W + e * Bs[j]
            slot_cofactors[j] = poly_divmod(slot_cofactors[j] + e * poly_divmod(s, Q)[1], A)[1]
        W = poly_divmod(W, A)[1]
        if Bs[1] != W:
            slide(A, (Bs[0], W) + Bs[2:], slot_cofactors)
        g, winv, _ = poly_xgcd(W, A)
        if g.degree != 0:
            raise FieldError("W is not a unit modulo A")
        if Bs[0] != one:
            slide(A, (one,) + Bs[1:], (nil, winv) + (nil,) * (d - 2))
        if any(B != one for B in Bs[1:]):
            slide(A, ones, on_b1)
    xn = X(field).shift(n - 1)
    if A != xn:
        slide(xn, ones, on_b1)
    return Certificate("pd", field, tuple(steps), p, mk_pd(xn, ones))
