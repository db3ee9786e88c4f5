"""Finite-field ground truth by exhaustive enumeration.

Enumerates all points of the schemes of pointed rational functions,
non-degenerate symmetric matrices, or pointed maps to P^d over a small
prime field, together with all homotopies whose T-degree is bounded by D;
computes naive connected components by union-find and cross-checks them
against the invariant fibers, bridging any splits left by a too-small D
with explicitly verified certificates.

Points are judged once each, by the library constructors (`mk_pointed`,
`SymMatrix`, `mk_pd`).  The edge kernels work on raw tuples of ints
(polynomials in T, ascending coefficients) for speed, and judge paths with
their own exact tests over F_q[T]: a resultant, determinant or gcd of minors
that must be a nonzero constant.

The brute-force kernels screen each candidate path before that test.  They
read its field point at every t in F_q from tables of the T-polynomials'
values, and look it up in a table of field points that the same exact test
builds at T-degree 0.  Evaluation T -> t is a ring map, so it keeps a
nonzero constant nonzero and a unit gcd a unit: a valid path is a point at
every t.  A candidate that is not, whose ends agree, or whose endpoint pair
is already an edge, cannot change the edge set, and skips the exact test.

The ratfun n = 2 kernel does not search; it solves the resultant equation
b0^2 - a1 b0 b1 + a0 b1^2 = c for a nonzero constant c over F_q[T], on three
exact facts.  Only coprime (b0, b1) have solutions, since gcd(b0, b1)^2
divides the resultant.  For deg b1 >= 1 only one c is admissible, the
remainder b0^2 mod b1, and only when it is a nonzero constant (every c is,
for a constant b1).  The solutions are a_i = a_ip + h b_i for one particular
(a0p, a1p) and every h of bounded T-degree, and the ends of a path depend on
h only through (h(0), h(1)); so the kernel tabulates h once and reads each
path's ends with scalar arithmetic.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field as dataclass_field

from . import certify, classify, quadform
from .poly import Poly, PolyRing, const
from .bezout_hankel import SymMatrix
from .fields import GF, FieldError
from .ratmap import RejectedPoint, mk_pointed, mk_unpointed, projective_normal
from .quadform import stable_invariant


# ---------------------------------------------------------------------------
# Raw polynomial helpers: tuples of ints mod q, ascending, no trailing zeros
# ---------------------------------------------------------------------------


def _rtrim(t):
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return tuple(t[:n])


def _radd(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return _rtrim(out)


def _rneg(a, q):
    return tuple((-c) % q for c in a)


def _rsub(a, b, q):
    return _radd(a, _rneg(b, q), q)


def _rmul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _rtrim(out)


def _rscale(a, c, q):
    c %= q
    if c == 0:
        return ()
    return _rtrim([(x * c) % q for x in a])


def _rdivmod(a, b, q):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, q)
    rem = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _rtrim(rem)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = rem[i + db] % q
        if c:
            f = (c * inv) % q
            quo[i] = f
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - f * bc) % q
    return _rtrim(quo), _rtrim(rem[:db])


def _rgcd(a, b, q):
    while b:
        a, b = b, _rdivmod(a, b, q)[1]
    if a:
        a = _rscale(a, pow(a[-1], -1, q), q)
    return a


def _reval(a, t, q):
    acc = 0
    for c in reversed(a):
        acc = (acc * t + c) % q
    return acc


def _rpolys(q, maxdeg):
    return [_rtrim(c) for c in itertools.product(range(q), repeat=maxdeg + 1)]


# ---------------------------------------------------------------------------
# Enumeration parameters
# ---------------------------------------------------------------------------

_WORK_CAP = 25_000_000  # edge candidates enumerate_edges may walk
# point candidates enumerate_points may build: each kept point holds about
# 1 KB of library objects, and a candidate takes about 0.1 ms to judge
_POINT_CAP = 1_000_000


@dataclass(frozen=True)
class EnumSpec:
    q: int
    n: int
    D: int | None = None
    target: str = "ratfun"  # "ratfun" | "symmat" | "pd"
    d: int = 2
    workers: int = 1

    def __post_init__(self):
        if self.target not in ("ratfun", "symmat", "pd"):
            raise FieldError(f"unknown oracle target {self.target}")
        GF(self.q)  # primality check
        if self.n < 0 or (self.D is not None and self.D < 0):
            raise FieldError("the degree n and the T-degree D must be >= 0")
        if self.d < 1:
            raise FieldError("the target dimension d must be >= 1")
        if self.target == "pd" and self.d < 2:
            raise FieldError("maps to P^d need d >= 2")
        object.__setattr__(self, "D", self.depth)

    @property
    def depth(self) -> int:
        return self.n if self.D is None else self.D

    def work_estimate(self) -> float:
        """The number of candidates enumerate_edges walks (inf when it is
        beyond the float range)."""
        q, n, D = self.q, self.n, self.depth
        if self.target == "ratfun" and n == 2:
            # structured solver: outer loop over (b0, b1), inner over the
            # bounded homogeneous parameter
            return _qpow(q, 3 * (D + 1), q - 1)
        if self.target == "ratfun":
            e = 2 * max(n, 1) * (D + 1)
        elif self.target == "symmat":
            e = n * (n + 1) // 2 * (D + 1)
        else:  # pd: (A, B_1, ..., B_d), (d+1) n coefficients of T-degree <= D
            e = (self.d + 1) * n * (D + 1)
        return _qpow(q, e)

    def point_estimate(self) -> float:
        """The number of candidates enumerate_points builds (inf when it is
        beyond the float range)."""
        n = self.n
        per_point = {"ratfun": 2 * n, "symmat": n * (n + 1) // 2, "pd": (self.d + 1) * n}
        return _qpow(self.q, per_point[self.target])


def _qpow(q: int, e: int, times: int = 1) -> float:
    """times * q^e as a float, or inf when q^e is beyond 2^1000; never builds
    a huge integer."""
    return float(times * q**e) if e * math.log2(q) < 1000 else math.inf


@dataclass
class ComponentReport:
    spec: EnumSpec
    points: int
    components: list
    edges: int
    agreement: bool  # every edge respects the invariant
    labels: list = dataclass_field(default_factory=list, repr=False)
    objects: list = dataclass_field(default_factory=list, repr=False)
    invariants: list = dataclass_field(default_factory=list, repr=False)


@dataclass
class CrossCheckReport:
    spec: EnumSpec
    agreement: bool
    components: int
    fibers: int
    bridges: int
    detail: str
    report: ComponentReport


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


# ---------------------------------------------------------------------------
# Point enumeration (field level)
# ---------------------------------------------------------------------------


def enumerate_points(spec: EnumSpec) -> dict:
    """Every valid point at the field level: an insertion-ordered dict from
    each raw coefficient encoding that point_object accepts to its object.
    Raises FieldError, before any work, beyond _POINT_CAP candidates."""
    if spec.point_estimate() > _POINT_CAP:
        raise FieldError(
            f"oversize enumeration: ~{spec.point_estimate():.2e} point candidates"
        )
    q, n = spec.q, spec.n
    coefs = tuple(itertools.product(range(q), repeat=n))
    if spec.target == "ratfun":
        candidates = itertools.product(coefs, repeat=2)  # (A coeffs, B coeffs)
    elif spec.target == "symmat":
        candidates = itertools.product(range(q), repeat=n * (n + 1) // 2)
    else:  # (A coeffs, (B_1 coeffs, ..., B_d coeffs))
        candidates = itertools.product(coefs, itertools.product(coefs, repeat=spec.d))
    out = {}
    for enc in candidates:
        try:
            out[enc] = point_object(spec, enc)
        except (FieldError, RejectedPoint):
            pass
    return out


def point_object(spec: EnumSpec, enc):
    """The library object of a raw encoding; FieldError or RejectedPoint
    when the encoding is not a point."""
    field = GF(spec.q)
    n = spec.n
    if spec.target == "ratfun":
        acoef, bcoef = enc
        A = Poly.make(field, list(acoef) + [1])
        B = Poly.make(field, list(bcoef))
        return mk_pointed(A, B)
    if spec.target == "symmat":
        idx = [(i, j) for i in range(n) for j in range(i, n)]
        M = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, enc):
            M[i][j] = M[j][i] = v
        S = SymMatrix.make(field, M)
        if not S.is_nondegenerate():
            raise FieldError("degenerate symmetric matrix")
        return S
    acoef, bs = enc
    A = Poly.make(field, list(acoef) + [1]) if n else const(field, field.one)
    Bs = [Poly.make(field, list(b)) for b in bs]
    return classify.mk_pd(A, Bs)


def point_invariant_key(spec: EnumSpec, obj):
    if spec.target == "ratfun":
        inv = classify.pointed_invariant(obj)
        return inv._key()
    if spec.target == "symmat":
        return (stable_invariant(obj)._key(), obj.det())
    return obj.n


# ---------------------------------------------------------------------------
# Edge enumeration
# ---------------------------------------------------------------------------


def _edges_ratfun_n1(q, D):
    """n = 1: B = b0(T) must be a constant unit while a0(T) moves freely,
    so for D >= 1 each unit b0 carries the complete graph on numerators."""
    edges = set()
    for b0 in range(1, q):
        for a0 in range(q):
            for a1 in range(a0 + 1, q):
                edges.add((((a0,), (b0,)), ((a1,), (b0,))))
    return edges


def _edges_ratfun_n2_chunk(args):
    """Structured, exact enumeration of valid degree-2 paths for one slice
    of (b0(T), b1(T)) codes: solve res = b0^2 - a1 b0 b1 + a0 b1^2 = c, a
    nonzero constant, over F_q[T], and read each solution's ends.

    - Only coprime pairs: d = gcd(b0, b1) divides every term of res, so d^2
      divides c and d is a unit.
    - One admissible c: for deg b1 >= 1, b1 divides c - b0^2, so c is the
      remainder b0^2 mod b1 and must be a nonzero constant; that remainder is
      divisible by d, so this test also skips every non-coprime pair.  Every
      c in F_q^* is admissible only for a constant b1.  With quo = (b0^2 -
      c)/b1, the inverse of b0 mod b1 is b0/c, so a1p = quo b0/c mod b1 and
      a0p = (b0 a1p - quo)/b1 solve the equation with deg a1p < deg b1.
    - The solutions are a_i = a_ip + h b_i for h of T-degree <= D - deg b1,
      so deg a1 <= D always, and deg a0 <= D exactly when the coefficients of
      h b0 above T^D cancel those of a0p.  The ends a_i(t) = a_ip(t) +
      h(t) b_i(t), t = 0, 1, read h only through (h(0), h(1)); so each chunk
      tabulates, once per (D - deg b1, b0), the distinct (h(0), h(1)) of the
      h with each value of those coefficients, and the per-path loop is
      scalar arithmetic mod q."""
    q, D, lo, hi = args
    polys, vals, _ = _raw_tables(q, D)
    npolys = len(polys)
    tables = {}
    edges = set()
    for bidx in range(lo, hi):
        i0, i1 = divmod(bidx, npolys)
        b0, b1 = polys[i0], polys[i1]
        if not b1:
            # resultant is b0^2: constant iff b0 is a constant unit, and then
            # the numerator coefficients move freely (complete graph)
            if len(b0) == 1:
                apts = list(itertools.product(range(q), repeat=2))
                for u in range(len(apts)):
                    for v in range(u + 1, len(apts)):
                        edges.add(
                            ((apts[u], (b0[0], 0)), (apts[v], (b0[0], 0)))
                        )
            continue
        b0sq = _rmul(b0, b0, q)
        if len(b1) > 1:
            cs = _rdivmod(b0sq, b1, q)[1]
            if len(cs) != 1:
                continue
        else:
            cs = range(1, q)
        hmax = D - (len(b1) - 1)
        # h b0 has at most k coefficients above T^D
        k = max(len(b0) - len(b1), 0)
        table = tables.get((hmax, i0))
        if table is None:
            table = tables[(hmax, i0)] = _high_table(q, D, k, hmax, b0)
        (b00, b01), (b10, b11) = vals[i0][:2], vals[i1][:2]
        for c in cs:
            quo = _rdivmod(_rsub(b0sq, (c,), q), b1, q)[0]
            a1p = _rdivmod(_rscale(_rmul(quo, b0, q), pow(c, -1, q), q), b1, q)[1]
            a0p = _rdivmod(_rsub(_rmul(b0, a1p, q), quo, q), b1, q)[0]
            # deg a0p <= max(deg b0 - 1, 2 (deg b0 - deg b1)) <= D + k
            hs = table.get(_high(_rneg(a0p, q), D, k))
            if hs is None:
                continue
            x0, x1 = _reval(a0p, 0, q), _reval(a0p, 1, q)
            y0, y1 = _reval(a1p, 0, q), _reval(a1p, 1, q)
            for h0, h1 in hs:
                p0 = (((x0 + h0 * b00) % q, (y0 + h0 * b10) % q), (b00, b10))
                p1 = (((x1 + h1 * b01) % q, (y1 + h1 * b11) % q), (b01, b11))
                if p0 != p1:
                    edges.add((p0, p1) if p0 < p1 else (p1, p0))
    return edges


def _high(a, D, k):
    """The coefficients of T^(D+1) .. T^(D+k) of a, zero-padded."""
    top = a[D + 1 : D + 1 + k]
    return top + (0,) * (k - len(top))


def _high_table(q, D, k, hmax, b0):
    """For h of T-degree <= hmax: each value of _high(h b0, D, k), mapped to
    the distinct (h(0), h(1)) of the h that give it."""
    table = {}
    for h in _rpolys(q, hmax):
        key = _high(_rmul(h, b0, q), D, k)
        table.setdefault(key, set()).add((_reval(h, 0, q), _reval(h, 1, q)))
    return {key: tuple(ends) for key, ends in table.items()}


def _screened_edges(q, m, polys, vals, consts, exact, shape, lo, hi):
    """The edges of candidates lo..hi-1 of a brute-force kernel, screened as
    the module docstring says.

    A candidate is m T-polynomials: code sum_k r_k npolys^k picks polys[r_k]
    for coordinate k.  vals[r] are the values of polys[r] at t = 0..q-1,
    consts[v] is the constant v, and exact(coords) is the kernel's test over
    F_q[T], which on constants tabulates the field points.  A field point is
    numbered by its coordinates in base q, the first most significant, so
    numbers order like encodings; shape builds the encoding from the
    coordinates."""
    npolys = len(polys)
    weights = [q ** (m - 1 - k) for k in range(m)]
    flats = list(itertools.product(range(q), repeat=m))
    point = [exact(tuple(consts[v] for v in flat)) for flat in flats]
    # the first h coordinates, the low digits of the code, run innermost
    h = m // 2
    inner_size = npolys**h
    inner = []
    for digits in itertools.product(range(npolys), repeat=h):
        rs = digits[::-1]
        inner.append((
            tuple(polys[r] for r in rs),
            tuple(sum(vals[r][t] * w for r, w in zip(rs, weights)) for t in range(q)),
        ))
    pairs = set()
    for o in range(lo // inner_size, (hi - 1) // inner_size + 1):
        rs, c = [], o
        for _ in range(h, m):
            c, r = divmod(c, npolys)
            rs.append(r)
        outer = tuple(polys[r] for r in rs)
        H = [sum(vals[r][t] * w for r, w in zip(rs, weights[h:])) for t in range(q)]
        h0, h1, hrest = H[0], H[1], H[2:]
        base = o * inner_size
        for coords, L in inner[max(lo - base, 0) : min(hi - base, inner_size)]:
            p0, p1 = h0 + L[0], h1 + L[1]
            if p0 == p1 or not (point[p0] and point[p1]):
                continue
            pair = (p0, p1) if p0 < p1 else (p1, p0)
            if pair in pairs:
                continue
            if hrest and not all(point[x + y] for x, y in zip(hrest, L[2:])):
                continue
            if exact(coords + outer):
                pairs.add(pair)
    return {(shape(flats[a]), shape(flats[b])) for a, b in pairs}


def _edges_ratfun_n3_f2_chunk(args):
    """Brute force for q = 2, n = 3 with carry-less bit-packed T-polynomials
    (bit i is the coefficient of T^i)."""
    _q, D, lo, hi = args
    size = 1 << (D + 1)
    polys = range(size)
    vals = [(x & 1, x.bit_count() & 1) for x in polys]
    return _screened_edges(
        2, 6, polys, vals, (0, 1), lambda c: _f2_n3_det(*c) == 1,
        lambda flat: (flat[:3], flat[3:]), lo, hi,
    )


def _clmul(x, y):
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        x <<= 1
        y >>= 1
    return acc


def _f2_n3_det(a0, a1, a2, b0, b1, b2):
    """The resultant of X^3 + a2 X^2 + a1 X + a0 and b2 X^2 + b1 X + b0 over
    F_2[T]: the determinant of multiplication by B modulo A."""
    clmul = _clmul
    # columns of multiplication by B modulo A (char 2: minus = plus)
    r3 = (a0, a1, a2)  # X^3 mod A
    r4 = (
        clmul(a2, a0),
        a0 ^ clmul(a2, a1),
        a1 ^ clmul(a2, a2),
    )
    c0 = (b0, b1, b2)
    c1 = (
        clmul(b2, r3[0]),
        b0 ^ clmul(b2, r3[1]),
        b1 ^ clmul(b2, r3[2]),
    )
    c2 = (
        clmul(b1, r3[0]) ^ clmul(b2, r4[0]),
        clmul(b1, r3[1]) ^ clmul(b2, r4[1]),
        b0 ^ clmul(b1, r3[2]) ^ clmul(b2, r4[2]),
    )
    return (
        clmul(c0[0], clmul(c1[1], c2[2]) ^ clmul(c1[2], c2[1]))
        ^ clmul(c1[0], clmul(c0[1], c2[2]) ^ clmul(c0[2], c2[1]))
        ^ clmul(c2[0], clmul(c0[1], c1[2]) ^ clmul(c0[2], c1[1]))
    )


def _raw_tables(q, D):
    """The T-polynomials of degree <= D in code order, their values at
    t = 0..q-1, and the constants."""
    polys = _rpolys(q, D)
    vals = [tuple(_reval(p, t, q) for t in range(q)) for p in polys]
    return polys, vals, [_rtrim((v,)) for v in range(q)]


def _edges_symmat_chunk(args):
    q, n, D, lo, hi = args
    idx = [(i, j) for i in range(n) for j in range(i, n)]

    def exact(coords):
        M = [[()] * n for _ in range(n)]
        for (i, j), v in zip(idx, coords):
            M[i][j] = M[j][i] = v
        return len(_rdet(M, q)) == 1

    return _screened_edges(q, len(idx), *_raw_tables(q, D), exact, tuple, lo, hi)


def _rdet(M, q):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return _rsub(_rmul(M[0][0], M[1][1], q), _rmul(M[0][1], M[1][0], q), q)
    if n == 3:
        a, b, c = M[0]
        d, e, f = M[1]
        g, h, i = M[2]
        t1 = _rmul(a, _rsub(_rmul(e, i, q), _rmul(f, h, q), q), q)
        t2 = _rmul(b, _rsub(_rmul(d, i, q), _rmul(f, g, q), q), q)
        t3 = _rmul(c, _rsub(_rmul(d, h, q), _rmul(e, g, q), q), q)
        return _radd(_rsub(t1, t2, q), t3, q)
    raise FieldError("raw determinant only implemented for n <= 3")


def _edges_pd_chunk(args):
    q, n, D, d, lo, hi = args

    def split(coords):
        return coords[:n], tuple(coords[n * (1 + k) : n * (2 + k)] for k in range(d))

    return _screened_edges(
        q, n * (1 + d), *_raw_tables(q, D),
        lambda c: _pd_unimodular_kt(q, n, *split(c)), split, lo, hi,
    )


def _pd_unimodular_kt(q, n, acoef, bs):
    """Unimodularity over F_q[T][X] for monic A: the gcd over F_q[T] of the
    n x n minors of the stacked multiplication matrices is constant."""
    if n == 0:
        return True
    cols = []
    for b in bs:
        cur = [tuple(x) for x in b]
        for _ in range(n):
            cols.append(list(cur) + [()] * (n - len(cur)))
            cur = [()] + list(cur)
            if len(cur) == n + 1:
                lead = cur.pop()
                if lead:
                    cur = [
                        _rsub(cc, _rmul(lead, aa, q), q)
                        for cc, aa in zip(cur, [tuple(x) for x in acoef])
                    ]
    g = ()
    for combo in itertools.combinations(range(len(cols)), n):
        M = [[cols[j][i] for j in combo] for i in range(n)]
        minor = _rdet(M, q)
        if minor:
            g = _rgcd(g, minor, q) if g else _rscale(minor, pow(minor[-1], -1, q), q)
            if len(g) == 1:
                return True
    return False


def _worker_count(requested: int) -> int:
    """Worker processes to start: the request, clamped to 1..os.cpu_count()."""
    return max(1, min(requested, os.cpu_count() or 1))


def _chunks(total, workers):
    step = (total + workers - 1) // workers
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _has_edge_kernel(target: str, q: int, n: int) -> bool:
    """The one list of cells enumerate_edges has a kernel for, at n >= 1 and
    D >= 1: ratfun up to n = 2, and n = 3 over F_2 (bit-packed); symmat and
    pd up to n = 3, the largest determinant _rdet expands."""
    if target == "ratfun":
        return n <= 2 or (n, q) == (3, 2)
    return n <= 3


def enumerate_edges(spec: EnumSpec):
    """All distinct endpoint pairs of valid paths with T-degree <= D.

    The n = 1 and n = 2 ratfun cells solve for their paths.  The others walk
    every candidate, and run the exact test only on those that are field
    points at every t and join a new pair of distinct points; the rest are
    not valid paths or add no edge, so the set is the one the exact test on
    every candidate gives.  Raises FieldError, before any work, for a cell
    beyond _WORK_CAP candidates or one with no kernel."""
    q, n, D = spec.q, spec.n, spec.depth
    if D == 0 or n == 0:
        return set()  # constant paths, or a one-point scheme: no edges
    if spec.work_estimate() > _WORK_CAP:
        raise FieldError(
            f"oversize enumeration: ~{spec.work_estimate():.2e} edge candidates"
        )
    if not _has_edge_kernel(spec.target, q, n):
        raise FieldError(
            f"unsupported oracle cell: no {spec.target} edge kernel at "
            f"q = {q}, n = {n}; only D = 0 (no edges) runs there"
        )
    npolys = q ** (D + 1)
    if spec.target == "ratfun":
        if n == 1:
            return set((min(a, b), max(a, b)) for a, b in _edges_ratfun_n1(q, D))
        if n == 2:
            total = npolys * npolys
            worker, base_args = _edges_ratfun_n2_chunk, (q, D)
        else:
            total = npolys**6
            worker, base_args = _edges_ratfun_n3_f2_chunk, (q, D)
    elif spec.target == "symmat":
        total = npolys ** (n * (n + 1) // 2)
        worker, base_args = _edges_symmat_chunk, (q, n, D)
    else:
        total = npolys ** (n * (1 + spec.d))
        worker, base_args = _edges_pd_chunk, (q, n, D, spec.d)
    workers = _worker_count(spec.workers)
    ranges = _chunks(total, workers)
    args = [base_args + r for r in ranges]
    if workers > 1:
        # imported here: multiprocessing costs every `import p1h` otherwise
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(worker, args))
    else:
        parts = [worker(a) for a in args]
    edges = set()
    for p in parts:
        edges |= p
    return edges


# ---------------------------------------------------------------------------
# Components and cross-checking
# ---------------------------------------------------------------------------


def components(spec: EnumSpec) -> ComponentReport:
    """Union-find partition of the points under D-bounded homotopies.

    Every edge's endpoint invariants are compared (the machine-checked half
    of homotopy invariance).  The edges come first, so that an unsupported or
    oversize cell is refused before any enumeration."""
    edges = enumerate_edges(spec)
    points = enumerate_points(spec)
    encs = list(points)
    index = {enc: i for i, enc in enumerate(encs)}
    objects = list(points.values())
    invariants = [point_invariant_key(spec, obj) for obj in objects]
    uf = UnionFind(len(points))
    agreement = True
    for a, b in edges:
        ia, ib = index[a], index[b]
        if invariants[ia] != invariants[ib]:
            agreement = False
        uf.union(ia, ib)
    labels = [uf.find(i) for i in range(len(points))]
    comp: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        comp.setdefault(lab, []).append(i)
    comps = [
        {
            "size": len(members),
            "representative": encs[members[0]],
            "invariant": invariants[members[0]],
        }
        for lab, members in sorted(comp.items())
    ]
    return ComponentReport(
        spec=spec,
        points=len(points),
        components=comps,
        edges=len(edges),
        agreement=agreement,
        labels=labels,
        objects=objects,
        invariants=invariants,
    )


def _bridge(spec: EnumSpec, obj_a, obj_b):
    """A verified homotopy between two same-fiber points found in different
    D-bounded components."""
    if spec.target == "symmat":
        cert = _matrix_bridge(obj_a, obj_b)
    elif spec.target == "ratfun":
        cert = certify.connect(obj_a, obj_b)
        if not isinstance(cert, certify.Certificate):
            return None
    else:
        # both halves end at the standard point; verifying the whole chain
        # checks every step and endpoint of each half (a reversed step is
        # valid exactly when the step is)
        cert = certify.concat_certificates(
            certify.pd_cert(obj_a), certify.reverse_certificate(certify.pd_cert(obj_b))
        )
    return cert if certify.verify(cert) else None


def _matrix_bridge(Sa: SymMatrix, Sb: SymMatrix) -> certify.Certificate:
    """A symmat certificate from Sa to Sb of equal determinant and stable
    class: the normal-form certificate of Sa, the T-scaled diagonal chain
    between the two normal forms, and the reversed normal-form certificate
    of Sb."""
    field = Sa.ring
    us, cert_a = _matrix_nf_cert(Sa)
    vs, cert_b = _matrix_nf_cert(Sb)
    steps = []
    cur = us
    for mv in certify.diag_chain(field, us, vs):
        P = certify.move_matrix(field, cur[mv.i], cur[mv.i + 1], mv)
        ops = [
            (kind, mv.i + i, mv.i + j, v)
            for kind, i, j, v in certify.sl2_elementary_factors(field, P)
        ]
        steps.append(quadform.oplog_to_path(SymMatrix.diagonal(field, cur), ops))
        cur = certify.apply_move(field, cur, mv)
    back = certify.reverse_certificate(cert_b).steps
    return certify.Certificate("symmat", field, cert_a.steps + tuple(steps) + back, Sa, Sb)


def _matrix_nf_cert(S: SymMatrix):
    """(units, certificate) from S to the diagonal matrix of units: the
    T-scaled oplog of diagonalize.  Over F_2 each hyperbolic block
    [[0,1],[1,0]] then has its corner switched on along [[T,1],[1,0]] and is
    diagonalized again, so every F_2 form ends at the identity."""
    field = S.ring
    kt = PolyRing(field)
    steps = []
    cur = S
    while True:
        _, ops = quadform.diagonalize(cur)
        if ops:
            steps.append(quadform.oplog_to_path(cur, ops))
            cur = quadform.replay_oplog(cur, ops)
        i = next((i for i in range(cur.n) if field.is_zero(cur.rows[i][i])), None)
        if i is None:
            break
        path = [[const(field, x) for x in row] for row in cur.rows]
        path[i][i] = Poly.make(field, [0, 1])
        step = SymMatrix.make(kt, path)
        steps.append(step)
        cur = step.eval(1)
    units = tuple(cur.rows[i][i] for i in range(cur.n))
    return units, certify.Certificate("symmat", field, tuple(steps), S, cur)


@dataclass
class UnpointedReport:
    q: int
    n: int
    points: int
    components: int
    fibers: int
    agreement: bool
    edges_verified: int


def unpointed_components(q: int, n: int, D: int = None) -> UnpointedReport:
    """Components of the unpointed scheme over F_q under verified homotopies.

    The raw coefficient space of unpointed k[T]-points is out of reach for
    q = 5, so the edge set is generated by three verified families: pointed
    homotopies (from the exhaustive pointed enumeration), the normalization
    paths sliding any point to a pointed one, and the unit rescaling paths
    f ~ lambda^2 f.  Every edge is re-checked by the certificate verifier,
    and an edge it rejects is left out and makes agreement False;
    agreement means the generated partition coincides with the invariant
    fibers, which pins both down to the true naive components.
    """
    from .certify import Certificate, _normalization_step, _scaling_step, verify
    from .ratmap import normalize_unpointed, scale_pointed, unpointed_of_pointed

    field = GF(q)
    kt = PolyRing(field)
    # all projective points with nonzero resultant and true degree n
    pts = []
    index = {}
    for vec in itertools.product(range(q), repeat=2 * (n + 1)):
        if all(v == 0 for v in vec):
            continue
        first = next(v for v in vec if v)
        if first != 1:
            continue  # canonical scaling: first nonzero coordinate is 1
        avec, bvec = vec[: n + 1], vec[n + 1 :]
        try:
            up = mk_unpointed(field, avec, bvec)
        except (FieldError, ValueError):
            continue
        index[(up.avec, up.bvec)] = len(pts)
        pts.append(up)
    uf = UnionFind(len(pts))
    edges_verified = edges_rejected = 0

    def link(u1, u2, step):
        nonlocal edges_verified, edges_rejected
        if not verify(Certificate("unpointed", field, (step,), u1, u2)):
            edges_rejected += 1
            return
        edges_verified += 1
        uf.union(index[(u1.avec, u1.bvec)], index[(u2.avec, u2.bvec)])

    # family 1: pointed homotopies, projectivized: (A, B) with A monic of
    # degree n and deg B < n has the padded vectors (a.., 1), (b.., 0)
    pspec = EnumSpec(q=q, n=n, D=D if D is not None else n)
    for (a1, b1), (a2, b2) in enumerate_edges(pspec):
        ua = projective_normal(field, (a1 + (1,), b1 + (0,)))
        ub = projective_normal(field, (a2 + (1,), b2 + (0,)))
        uf.union(index[ua], index[ub])
    # families 2 and 3: the normalization path from each point to its pointed
    # representative f, and the rescaling paths f ~ lambda^2 f
    for up in pts:
        f, mv = normalize_unpointed(up)
        fu = unpointed_of_pointed(f)
        if mv.factors:
            link(up, fu, _normalization_step(mv, kt))
        for lam in range(2, q):
            g = scale_pointed(f, lam)
            link(fu, unpointed_of_pointed(g), _scaling_step(f, lam, kt))
    fibers: dict = {}
    for i, up in enumerate(pts):
        fibers.setdefault(classify.unpointed_invariant(up)._key(), []).append(i)
    comp_labels = {uf.find(i) for i in range(len(pts))}
    # soundness: each component sits inside one fiber; completeness: counts
    fiber_of = {}
    sound = True
    for key, members in fibers.items():
        for i in members:
            fiber_of[i] = key
    for i in range(len(pts)):
        if fiber_of[uf.find(i)] != fiber_of[i]:
            sound = False
    agreement = sound and not edges_rejected and len(comp_labels) == len(fibers)
    return UnpointedReport(
        q, n, len(pts), len(comp_labels), len(fibers), agreement, edges_verified
    )


def cross_check(spec: EnumSpec) -> CrossCheckReport:
    """Compare D-bounded components with the invariant fibers; bridge any
    fiber split across components with verified certificates."""
    rep = components(spec)
    if not rep.agreement:
        return CrossCheckReport(
            spec, False, len(rep.components), 0, 0,
            "an edge connects points with different invariants", rep,
        )
    fibers: dict = {}
    for i, inv in enumerate(rep.invariants):
        fibers.setdefault(inv, []).append(i)
    bridges = 0
    ok = True
    detail = "components equal invariant fibers"
    for inv, members in fibers.items():
        labs = {}
        for i in members:
            labs.setdefault(rep.labels[i], i)
        if len(labs) == 1:
            continue
        reps = list(labs.values())
        base = reps[0]
        for other in reps[1:]:
            cert = _bridge(spec, rep.objects[base], rep.objects[other])
            if cert is None:
                ok = False
                detail = (
                    f"fiber {inv} splits into {len(labs)} components and "
                    "bridging failed"
                )
                break
            bridges += 1
        if not ok:
            break
    if ok and bridges:
        detail = f"components equal fibers after {bridges} verified bridges"
    return CrossCheckReport(
        spec, ok, len(rep.components), len(fibers), bridges, detail, rep
    )
