"""Symmetric bilinear form machinery.

Diagonalization by det-1 congruences (with a replayable operation log),
stable Witt-class invariants per field (rank/discriminant, plus signature
and Hasse symbols over Q), Hilbert symbols, tensor products of diagonal
forms, and the constructive block-reduction of symmetric matrices over k[T]
with constant unit determinant, driven by short-vector search in the
non-archimedean lattice k[T]^n.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bezout_hankel import SymMatrix
from .fields import FieldError, PrimeField, Rationals, factorize
from .poly import Poly, PolyRing, const, poly_divmod, poly_gcd
from .ratmap import elementary_path, elementary_product

REAL_PLACE = "real"


# ---------------------------------------------------------------------------
# Diagonalization over a field with a det-1 operation log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagForm:
    field: object
    units: tuple

    def __post_init__(self):
        if any(self.field.is_zero(u) for u in self.units):
            raise FieldError("diagonal form with a zero unit")

    @property
    def rank(self):
        return len(self.units)

    def det(self):
        d = self.field.one
        for u in self.units:
            d = self.field.mul(d, u)
        return d


@dataclass(frozen=True)
class BlockNormalForm:
    """Diagonal units plus hyperbolic-type blocks [[0,1],[1,0]] (char 2)."""

    field: object
    diag: tuple
    hblocks: int

    @property
    def rank(self):
        return len(self.diag) + 2 * self.hblocks


# An op is ("add", i, j, lam): column j += lam * column i, and rows likewise
# (a det-1 congruence).
Op = tuple


def apply_op(field, M, op):
    kind, i, j, lam = op
    if kind != "add":
        raise FieldError(f"unknown op {kind}")
    n = len(M)
    for r in range(n):
        M[r][j] = field.add(M[r][j], field.mul(lam, M[r][i]))
    for c in range(n):
        M[j][c] = field.add(M[j][c], field.mul(lam, M[i][c]))


def _swap_ops(field, i, j):
    """Signed swap of coordinates i and j as three elementary ops (det 1)."""
    one = field.one
    return [("add", j, i, one), ("add", i, j, field.neg(one)), ("add", j, i, one)]


def diagonalize(S: SymMatrix):
    """Diagonalize (char != 2) or block-normalize (F_2) by det-1 congruences.

    Returns (form, oplog): replaying oplog on S reproduces the result
    exactly, and the accumulated matrix has determinant 1, so the diagonal
    multiplies to det S.  Raises FieldError when a row runs out of pivots,
    which happens exactly when S is degenerate.
    """
    field = S.ring
    if isinstance(field, PolyRing):
        raise FieldError("diagonalize is the field-level routine; see hermite_reduce")
    n = S.n
    M = [list(r) for r in S.rows]
    ops: list[Op] = []

    def do(op):
        ops.append(op)
        apply_op(field, M, op)

    def partner(k):
        j = next((j for j in range(k + 1, n) if not field.is_zero(M[k][j])), None)
        if j is None:
            raise FieldError("degenerate form")
        return j

    if field.char != 2:
        for k in range(n):
            if field.is_zero(M[k][k]):
                j = next(
                    (j for j in range(k + 1, n) if not field.is_zero(M[j][j])), None
                )
                if j is not None:
                    for op in _swap_ops(field, k, j):
                        do(op)
                else:
                    do(("add", partner(k), k, field.one))  # M[k][k] becomes 2 M[k][j]
            piv = M[k][k]
            for j in range(k + 1, n):
                if not field.is_zero(M[k][j]):
                    do(("add", k, j, field.neg(field.div(M[k][j], piv))))
        form = DiagForm(field, tuple(M[k][k] for k in range(n)))
        return form, tuple(ops)

    # characteristic 2 (prime-field scope: F_2)
    diag_units = []
    hblocks = 0
    k = 0
    while k < n:
        j = next((j for j in range(k, n) if not field.is_zero(M[j][j])), None)
        if j is not None:
            if j != k:
                for op in _swap_ops(field, k, j):
                    do(op)
            piv = M[k][k]
            for j2 in range(k + 1, n):
                if not field.is_zero(M[k][j2]):
                    do(("add", k, j2, field.div(M[k][j2], piv)))
            diag_units.append(M[k][k])
            k += 1
            continue
        # alternating block: all remaining diagonal entries vanish
        j = partner(k)
        if j != k + 1:
            for op in _swap_ops(field, k + 1, j):
                do(op)
        # over F_2 the pairing value is already 1
        for m in range(k + 2, n):
            if not field.is_zero(M[k + 1][m]):
                do(("add", k, m, M[k + 1][m]))
            if not field.is_zero(M[k][m]):
                do(("add", k + 1, m, M[k][m]))
        hblocks += 1
        k += 2
    form = BlockNormalForm(field, tuple(diag_units), hblocks)
    return form, tuple(ops)


def _sqrt_exact(field, a):
    """A square root of a, or None when a is not a square."""
    if isinstance(field, Rationals):
        num, den = a.numerator, a.denominator
        rn = _isqrt(num)
        rd = _isqrt(den)
        if rn is None or rd is None:
            return None
        return Fraction(rn, rd)
    return field.sqrt(a)


def _isqrt(m):
    if m < 0:
        return None
    r = math.isqrt(m)
    return r if r * r == m else None


def replay_oplog(S: SymMatrix, ops) -> SymMatrix:
    M = [list(r) for r in S.rows]
    for op in ops:
        apply_op(S.ring, M, op)
    return SymMatrix.make(S.ring, M)


def oplog_to_path(S: SymMatrix, ops) -> SymMatrix:
    """The matrix homotopy S(T) = P(T)^T S P(T), where P(T) multiplies every
    elementary addition's off-diagonal entry by T: S(0) = S, S(1) = replay."""
    field = S.ring
    kt = PolyRing(field)
    P = elementary_path(field, S.n, ops)
    ST = [[const(field, x) for x in row] for row in S.rows]
    M = linalg.mat_mul(kt, linalg.mat_transpose(P), linalg.mat_mul(kt, ST, P))
    return SymMatrix.make(kt, M)


# ---------------------------------------------------------------------------
# Hilbert symbols and stable invariants
# ---------------------------------------------------------------------------


def _val_unit(a, p: int) -> tuple[int, int]:
    """(v, r) for a nonzero rational (Fraction or int) a = p^v u, u a p-adic
    unit: r is u modulo m, in [1, m), with m = 8 at p = 2 and m = p
    otherwise.  Both are read off a's numerator and denominator, and r fixes
    u's class modulo squares of Q_p units (Serre, A Course in Arithmetic,
    ch. II, 3.3)."""
    num, den = a.numerator, a.denominator
    if not num:
        raise FieldError("a local symbol needs a nonzero rational")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    m = 8 if p == 2 else p
    return v, num * pow(den, -1, m) % m


def _hilbert_local(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """(a, b)_p from a = p^alpha u and b = p^beta w as `_val_unit` gives
    them (Serre, ch. III, Thm. 1): at odd p,
    (-1)^(alpha beta eps(p)) (u/p)^beta (w/p)^alpha; at p = 2,
    (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)), where
    eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8 modulo 2.  Only the
    parities of alpha and beta enter."""
    if p == 2:
        e = ((u - 1) // 2) * ((w - 1) // 2) + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        sign = -sign
    if beta % 2 and pow(u, (p - 1) // 2, p) != 1:
        sign = -sign
    if alpha % 2 and pow(w, (p - 1) // 2, p) != 1:
        sign = -sign
    return sign


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b)_v over Q at a prime or the real place.  The
    arguments are converted to Fraction once; at a prime the symbol is
    `_hilbert_local` on their `_val_unit` pairs, on integers only."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise FieldError("hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    return _hilbert_local(*_val_unit(a, place), *_val_unit(b, place), place)


def is_isotropic(values) -> bool:
    """Whether the diagonal form <a_1, ..., a_n> over Q has a nonzero zero,
    by Hasse-Minkowski: both signs occur, and below rank 5 the form is
    isotropic over Q_p at 2 and at each prime of an entry (at any other
    prime all entries are units).  Entries are factored in order, each only
    once the primes before it pass, so a caller puts a fresh entry last."""
    values = [Fraction(a) for a in values]
    if 0 in values:
        raise FieldError("degenerate form")
    if all(a > 0 for a in values) or all(a < 0 for a in values):
        return False
    primes = itertools.chain([2], itertools.chain.from_iterable(
        factorize(m) for a in values for m in (abs(a.numerator), a.denominator)))
    return len(values) >= 5 or all(isotropic_at(values, p) for p in primes)


def isotropic_at(values, p: int) -> bool:
    """Whether <a_1, ..., a_n>, nonzero rationals with n >= 2, is isotropic
    over Q_p (Serre, A Course in Arithmetic, ch. IV, Thm. 6), with d the
    determinant and e the Hasse symbol: rank 2 needs -d a square, rank 3
    (-1, -d)_p = e, rank 4 d not a square or e = (-1, -1)_p."""
    n, d = len(values), math.prod(values)
    if n == 2:
        return _is_local_square(-d, p)
    minus_one = _val_unit(-1, p)
    if n == 3:
        return _hilbert_local(*minus_one, *_val_unit(-d, p), p) == _hasse(values, p)
    return (n >= 5 or not _is_local_square(d, p)
            or _hasse(values, p) == _hilbert_local(*minus_one, *minus_one, p))


def _is_local_square(a, p: int) -> bool:
    """Whether a nonzero rational is a square in Q_p: even valuation and
    unit residue 1 modulo 8 (p = 2) or a quadratic residue modulo p."""
    v, r = _val_unit(a, p)
    if v % 2:
        return False
    if p == 2:
        return r == 1
    return pow(r, (p - 1) // 2, p) == 1


@dataclass(frozen=True)
class WittInvariant:
    """Stable class data of a non-degenerate symmetric form.

    Over Q: rank, discriminant square class, signature, and the Hasse
    symbols at the finite relevant primes (all other symbols are +1).
    Over odd F_p: rank and discriminant class.  Over F_2: rank only.
    The classes tuple holds a diagonalization's values themselves, not
    their square classes; sums and tensor products rebuild the invariant
    from them.  It does not enter equality.
    """

    field: object
    rank: int
    disc: object
    signature: tuple | None
    hasse: tuple | None  # sorted ((p, +-1), ...) over the relevant primes
    classes: tuple = ()

    def _key(self):
        if isinstance(self.field, Rationals):
            minus = tuple(p for p, v in (self.hasse or ()) if v == -1)
            return ("Q", self.rank, self.disc, self.signature, minus)
        if self.field.p == 2:
            return ("F2", self.rank)
        return (f"F{self.field.p}", self.rank, self.disc)

    def __eq__(self, other):
        return isinstance(other, WittInvariant) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def relevant_primes_q(entries, det: Fraction) -> list[int]:
    """Primes where a form can have a nontrivial Hasse symbol: 2 plus the
    primes of the common denominator of `entries` and of the nonzero
    determinant det.  `entries` are rationals whose integer polynomials
    give the matrix (its own entries, or a function's coefficients for its
    Bezout form); at any other odd prime the matrix is p-adically
    unimodular."""
    den = math.lcm(1, *(x.denominator for x in entries))  # ints have one too
    return sorted({2} | set(factorize(den)) | set(factorize(abs(det.numerator)))
                  | set(factorize(det.denominator)))


def _hasse(values, p) -> int:
    """The Hasse symbol prod_{i<j} (a_i, a_j)_p of <a_1, ..., a_n>, as the
    cocycle prod_j (a_1 ... a_{j-1}, a_j)_p: linear in n.  The running
    product enters the symbol only through its class modulo squares of
    Q_p, so it is kept as the pair (v mod 2, r) of `_val_unit`, which
    fixes that class; the loop works on integers and builds no Fraction."""
    m = 8 if p == 2 else p
    h, dv, dr = 1, 0, 1
    for a in values:
        v, r = _val_unit(a, p)
        h *= _hilbert_local(dv, dr, v, r, p)
        dv, dr = (dv + v) % 2, dr * r % m
    return h


def invariant_from_values(field, values, relevant) -> WittInvariant:
    """Stable invariant of the diagonal form with the given entries; over Q
    the Hasse map is taken on the supplied relevant prime set."""
    rank = len(values)
    if isinstance(field, Rationals):
        det = Fraction(math.prod(v.numerator for v in values),
                       math.prod(v.denominator for v in values))
        pos = sum(1 for v in values if v > 0)
        hasse = tuple((p, _hasse(values, p)) for p in sorted(set(relevant) | {2}))
        return WittInvariant(field, rank, field.square_class(det), (pos, rank - pos),
                             hasse, tuple(values))
    det = field.one
    for v in values:
        det = field.mul(det, v)
    if field.p == 2:
        return WittInvariant(field, rank, field.one, None, None, tuple(values))
    return WittInvariant(field, rank, field.square_class(det), None, None, tuple(values))


def stable_invariant(S: SymMatrix) -> WittInvariant:
    """Complete stable-equivalence invariant of a non-degenerate form.

    Over Q the diagonal values can be large minor ratios, but only their
    signs and p-adic valuations are used, and they multiply to det S
    exactly, so no separate determinant is taken."""
    field = S.ring
    form, _ = diagonalize(S)
    if isinstance(field, Rationals):
        entries = (x for row in S.rows for x in row)
        return invariant_from_values(field, form.units, relevant_primes_q(entries, form.det()))
    if isinstance(form, BlockNormalForm):
        # F_2: rank determines the stable class; an all-ones payload keeps
        # tensor bookkeeping meaningful
        return invariant_from_values(field, [field.one] * form.rank, None)
    return invariant_from_values(field, list(form.units), None)


def stable_equal(i1: WittInvariant, i2: WittInvariant) -> bool:
    """Equality in the stable Witt monoid (Hasse maps compared with +1 default)."""
    if i1.field != i2.field:
        raise FieldError("invariants over different fields")
    return i1 == i2


def _hasse_primes(i1: WittInvariant, i2: WittInvariant):
    """The union of the two relevant prime sets (None off Q).  Outside it
    every entry of either form is a p-adic unit, so a sum's or a tensor
    product's Hasse symbols stay +1 there."""
    if not isinstance(i1.field, Rationals):
        return None
    return {p for p, _ in i1.hasse} | {p for p, _ in i2.hasse}


def witt_sum(i1: WittInvariant, i2: WittInvariant) -> WittInvariant:
    """Invariant of the orthogonal sum: the concatenated diagonal values."""
    if i1.field != i2.field:
        raise FieldError("invariants over different fields")
    return invariant_from_values(i1.field, i1.classes + i2.classes, _hasse_primes(i1, i2))


def tensor_diag(d1: DiagForm, d2: DiagForm) -> DiagForm:
    """Kronecker product of diagonal forms: all pairwise products."""
    if d1.field != d2.field:
        raise FieldError("forms over different fields")
    f = d1.field
    return DiagForm(
        f, tuple(f.mul(a, b) for a in d1.units for b in d2.units)
    )


def witt_tensor(i1: WittInvariant, i2: WittInvariant) -> WittInvariant:
    """Invariant of the tensor product: the pairwise value products."""
    field = i1.field
    t = tensor_diag(DiagForm(field, i1.classes), DiagForm(field, i2.classes))
    return invariant_from_values(field, t.units, _hasse_primes(i1, i2))


# ---------------------------------------------------------------------------
# Hermite reduction over k[T]
# ---------------------------------------------------------------------------


def _kt_check(S: SymMatrix):
    kt = S.ring
    if not isinstance(kt, PolyRing):
        raise FieldError("expected a matrix over k[T]")
    d = S.det()
    if d.is_zero() or not d.is_constant():
        raise FieldError("not a point of S_n(k[T]): determinant is not a unit")
    return kt


def kt_short_vector(S: SymMatrix):
    """A primitive vector x over k[T] with deg b(x, x) <= 0.

    Existence is guaranteed by the non-archimedean Hermite bound (the
    determinant is a unit, so the minimum is at most 1 in the degree
    valuation).  The search runs lattice-style reduction on the Gram
    matrix: reduce off-diagonal entries modulo the minimal-degree diagonal
    entry; when the state is fully reduced, a constant-determinant Gram
    matrix must already have a diagonal entry of degree <= 0.  A bounded
    exhaustive search backs up the loop over finite fields.
    """
    kt = _kt_check(S)
    base = kt.base
    n = S.n
    G = [list(r) for r in S.rows]
    basis = linalg.mat_identity(kt, n)

    def col(j):
        return [basis[r][j] for r in range(n)]

    max_iter = 200 * n * (2 + sum(max(G[i][i].degree, 0) for i in range(n)))
    for _ in range(max_iter):
        diags = [G[i][i].degree for i in range(n)]
        best = min(range(n), key=lambda i: diags[i] if diags[i] >= 0 else -10**9)
        if diags[best] <= 0:
            return col(best)
        i = best
        progressed = False
        for j in range(n):
            if j == i or G[i][j].degree < diags[i]:
                continue
            q = poly_divmod(G[i][j], G[i][i])[0]
            _gram_col_add(kt, G, basis, i, j, -q)
            progressed = True
        if not progressed:
            # row i is reduced; reduce the other rows against each other
            moved = False
            order = sorted(range(n), key=lambda r: G[r][r].degree)
            for a in order:
                for b in range(n):
                    if b == a or G[a][a].degree < 1:
                        continue
                    if G[a][b].degree >= G[a][a].degree:
                        q = poly_divmod(G[a][b], G[a][a])[0]
                        _gram_col_add(kt, G, basis, a, b, -q)
                        moved = True
            if not moved:
                break
    diags = [G[i][i].degree for i in range(n)]
    best = min(range(n), key=lambda i: diags[i] if diags[i] >= 0 else -10**9)
    if diags[best] <= 0:
        return col(best)
    # exhaustive fallback (finite fields): search coefficient vectors of
    # increasing T-degree; a short vector exists, so this terminates
    if not isinstance(base, PrimeField):
        raise FieldError("short-vector reduction did not converge over Q[T]")
    for bound in range(0, 7):
        for x in _vectors_of_degree(base, n, bound):
            val = _pairing(kt, S, x, x)
            if val.degree <= 0:
                return _primitive(kt, x)
    raise FieldError("Hermite bound violated: no short vector found")


def _gram_col_add(kt, G, basis, i, j, q: Poly):
    """basis_j += q * basis_i, updating the Gram matrix in place."""
    n = len(G)
    gij = G[i][j]
    gii = G[i][i]
    for r in range(n):
        basis[r][j] = basis[r][j] + q * basis[r][i]
    for r in range(n):
        if r != j:
            G[r][j] = G[r][j] + q * G[r][i]
            G[j][r] = G[r][j]
    G[j][j] = G[j][j] + q * gij + q * (gij + q * gii)


def _vectors_of_degree(base, n, bound):
    coeffs = list(itertools.product(range(base.p), repeat=bound + 1))
    for combo in itertools.product(coeffs, repeat=n):
        x = [Poly.make(base, list(c)) for c in combo]
        if all(p.is_zero() for p in x):
            continue
        yield x


def _content(kt, x):
    g = kt.zero
    for c in x:
        g = poly_gcd(g, c) if not g.is_zero() else (c.monic() if not c.is_zero() else g)
    return g


def _primitive(kt, x):
    g = _content(kt, x)
    if g.is_zero() or g.degree == 0:
        return list(x)
    return [kt.exact_div(c, g) for c in x]


def complete_unimodular(kt: PolyRing, x):
    """A det-1 matrix over k[T] whose first column is the primitive vector x.

    Reduces x to c e_piv (c a constant unit) by elementary row operations
    (Euclid on entry pairs) and builds the inverse product from the inverse
    operations, a signed swap bringing e_piv to e_0 and a scaling of
    columns 0 and 1 by c and 1/c; every factor has determinant 1.
    """
    n = len(x)
    if n == 1:
        if not kt.is_unit(x[0]):
            raise FieldError("a 1 x 1 completion needs a unit")
        return [[x[0]]]
    v = list(x)
    inv_ops = []  # inverses of the row ops applied to v, in order
    # a pass reduces every other entry modulo one of least degree, so it
    # leaves one nonzero entry or lowers the least degree: Euclid ends
    while True:
        nz = [i for i in range(n) if not v[i].is_zero()]
        if not nz:
            raise FieldError("zero vector cannot be completed")
        if len(nz) == 1:
            if v[nz[0]].degree != 0:
                raise FieldError("vector is not primitive")
            piv = nz[0]
            break
        nz.sort(key=lambda i: v[i].degree)
        i = nz[0]
        for j in nz[1:]:
            q = poly_divmod(v[j], v[i])[0]
            v[j] = v[j] - q * v[i]
            inv_ops.append(("add", j, i, q))  # undoes row_j -= q row_i
    # E x = c e_piv for the product E of the row ops, so E^{-1} is the
    # product of the inverse ops in their recorded order
    M = elementary_product(kt, n, inv_ops)
    if piv:
        # right-multiply by the inverse (the transpose) of the signed swap
        # sending e_piv to e_0 and e_0 to -e_piv
        for row in M:
            row[0], row[piv] = row[piv], -row[0]
    # column 0 is now x / c: rescale it by c and column 1 by 1/c
    c = v[piv]
    cinv = kt.inv(c)
    for row in M:
        row[0], row[1] = row[0] * c, row[1] * cinv
    return M


def hermite_reduce(S: SymMatrix):
    """Block-diagonalize S over k[T] by a det-1 congruence.

    Returns (P, N) with P^T S P = N, P in SL_n(k[T]), and N block diagonal
    with constant unit entries and (over F_2) [[0,1],[1,alpha(T)]] blocks.
    Evaluating N (equivalently S) at T=0 and T=1 yields forms with equal
    stable invariants, which is the computational content of the homotopy
    invariance of the Witt class.
    """
    kt = _kt_check(S)
    base = kt.base
    n = S.n
    if n <= 1:
        return linalg.mat_identity(kt, n), S
    x = _primitive(kt, kt_short_vector(S))
    C = complete_unimodular(kt, x)
    if not _pairing(kt, S, x, x).is_zero():
        return _split(S, C, 1)
    # x is isotropic.  Its pairing row r against the other columns of C is
    # unimodular (S is non-degenerate), and W = complete_unimodular(r) has r
    # as first column, so adj(W) W = det(W) I makes the transposed adjugate
    # send r to det(W) e_0: in the new basis x pairs with the second vector
    # by the unit u = det(W) and with every later one by 0.
    r = linalg.mat_vec(kt, linalg.mat_transpose(C), linalg.mat_vec(kt, S.rows, x))[1:]
    adj_t = linalg.mat_transpose(linalg.adjugate(kt, complete_unimodular(kt, r)))
    C = linalg.mat_mul(kt, C, _block_one(kt, adj_t, top=1))
    if base.char == 2:
        return _split(S, C, 2)  # the block [[0,1],[1,alpha]] (u = 1 over F_2)
    # elsewhere N has constant units only: v = s e_0 + e_1 with
    # s = (2 - alpha) / (2u) has b(v, v) = 2su + alpha = 2, and (v, -e_0)
    # is a det-1 basis of the plane
    e1 = [row[1] for row in C]
    u, alpha = _pairing(kt, S, x, e1), _pairing(kt, S, e1, e1)
    two = const(base, base.add(base.one, base.one))
    V = linalg.mat_identity(kt, n)
    V[0][0], V[0][1] = (two - alpha) * kt.inv(two * u), -kt.one
    V[1][0], V[1][1] = kt.one, kt.zero
    return _split(S, linalg.mat_mul(kt, C, V), 1)


def _split(S: SymMatrix, C, k):
    """P^T S P = B (+) complement, recursing on the complement.

    C is a det-1 basis whose first k columns span a block B of unit
    determinant; the other columns are cleared against B with B^{-1}."""
    kt = S.ring
    n = S.n
    G = _congruence(kt, S, C)
    B = [row[:k] for row in G[:k]]
    try:
        Binv = linalg.inverse(kt, B)
    except FieldError:
        raise FieldError("split block does not have unit determinant") from None
    E = linalg.mat_identity(kt, n)
    for j in range(k, n):
        for i in range(k):
            E[i][j] = -sum((Binv[i][m] * G[m][j] for m in range(k)), kt.zero)
    G = linalg.mat_mul(kt, linalg.mat_transpose(E), linalg.mat_mul(kt, G, E))
    sub = SymMatrix.make(kt, [row[k:] for row in G[k:]])
    Psub, Nsub = hermite_reduce(sub)
    P = linalg.mat_mul(kt, linalg.mat_mul(kt, C, E), _block_one(kt, Psub, top=k))
    N = SymMatrix.make(kt, _embed_block(kt, B, [list(r) for r in Nsub.rows]))
    _check_hermite(S, P, N)
    return P, N


def _congruence(kt, S, P):
    """P^T S P over k[T]."""
    return linalg.mat_mul(
        kt, linalg.mat_transpose(P), linalg.mat_mul(kt, [list(r) for r in S.rows], P)
    )


def _check_hermite(S, P, N):
    """Raise unless P^T S P = N and det P = 1 (an explicit raise, so the
    check survives python -O)."""
    kt = S.ring
    if not linalg.mat_eq(kt, _congruence(kt, S, P), [list(r) for r in N.rows]):
        raise FieldError("block reduction: P^T S P differs from N")
    if linalg.det(kt, P) != kt.one:
        raise FieldError("block reduction: det P is not 1")


def _block_one(kt, Psub, top):
    n = Psub and len(Psub) or 0
    size = top + n
    M = linalg.mat_identity(kt, size)
    for i in range(n):
        for j in range(n):
            M[top + i][top + j] = Psub[i][j]
    return M


def _embed_block(kt, topblock, subrows):
    t = len(topblock)
    n = t + len(subrows)
    out = [[kt.zero] * n for _ in range(n)]
    for i in range(t):
        for j in range(t):
            out[i][j] = kt.coerce(topblock[i][j])
    for i in range(len(subrows)):
        for j in range(len(subrows)):
            out[t + i][t + j] = subrows[i][j]
    return out


def _pairing(kt, S, u, v):
    acc = kt.zero
    n = S.n
    for i in range(n):
        for j in range(n):
            acc = acc + S.rows[i][j] * u[i] * v[j]
    return acc
