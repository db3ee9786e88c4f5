"""Small exact linear algebra over a coefficient ring.

Matrices are lists (or tuples) of rows; functions never mutate their inputs.
The ring argument must provide zero/one/add/sub/mul/neg/is_zero/is_unit and
exact_div (exact division, defined whenever the quotient lies in the ring),
which is what fields.Rationals, fields.PrimeField and poly.PolyRing supply.
Everything here is fraction-free, so it works over k[T] as well as over a
field; sizes are desk scale throughout.  `inverse` is the one exact inverse:
every matrix inverted in the package has a unit determinant (over k[T] a
nonzero constant), and no other code divides an adjugate by a determinant.
"""
from __future__ import annotations

from .fields import FieldError


def mat_identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def mat_copy(M):
    return [list(row) for row in M]


def mat_transpose(M):
    return [list(col) for col in zip(*M)]


def mat_mul(ring, A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_vec(ring, A, v):
    return [
        _dot(ring, row, v)
        for row in A
    ]


def _dot(ring, row, v):
    acc = ring.zero
    for a, b in zip(row, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


def mat_eq(ring, A, B):
    if len(A) != len(B):
        return False
    for ra, rb in zip(A, B):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if not ring.is_zero(ring.sub(a, b)):
                return False
    return True


def is_symmetric(ring, M):
    n = len(M)
    return all(
        ring.is_zero(ring.sub(M[i][j], M[j][i]))
        for i in range(n)
        for j in range(i + 1, n)
    )


def det(ring, M):
    """Determinant by fraction-free (Bareiss) elimination.

    Valid over any integral domain with exact_div; intermediate divisions are
    exact by the Bareiss identity.  The divisor at the first pivot is 1, so
    that step does not divide.
    """
    n = len(M)
    if n == 0:
        return ring.one
    M = mat_copy(M)
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if ring.is_zero(M[k][k]):
            for i in range(k + 1, n):
                if not ring.is_zero(M[i][k]):
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(ring.mul(M[k][k], M[i][j]), ring.mul(M[i][k], M[k][j]))
                M[i][j] = ring.exact_div(num, prev) if k else num
            M[i][k] = ring.zero
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return d if sign == 1 else ring.neg(d)


def _adjugate_det(ring, M):
    """(adj M, det M) for M with a unit determinant (over k[T]: a nonzero
    constant), by one fraction-free Gauss-Jordan pass over [M | I]: O(n^3)
    ring operations.  After pivot k every entry is a (k+1)-minor of the
    row-swapped [M | I], so each division is exact (Bareiss), and the pass
    ends at [d I | d M^{-1}] with d = +-det M.  FieldError when det M is not
    a unit.

    Column j of the right block is prev * e_j until pivot j, so it is
    appended only then: column j came from identity column cols[j], and a
    row swap swaps those labels too."""
    n = len(M)
    if n == 2:  # the closed form: the pass would rebuild M[1][1] by a division
        (a, b), (c, e) = M
        d = ring.sub(ring.mul(a, e), ring.mul(b, c))
        if not ring.is_unit(d):
            raise FieldError("matrix determinant is not a unit")
        return [[e, ring.neg(b)], [ring.neg(c), a]], d
    rows = [list(row) for row in M]
    cols = list(range(n))
    sign, prev = 1, ring.one
    for k in range(n):
        piv = next((i for i in range(k, n) if not ring.is_zero(rows[i][k])), None)
        if piv is None:
            raise FieldError("matrix determinant is not a unit")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            cols[k], cols[piv] = cols[piv], cols[k]
            sign = -sign
        pk = rows[k]
        p = pk[k]
        for i, ri in enumerate(rows):
            if i == k:
                continue
            a = ri[k]
            # left columns k+1..n-1 and right columns 0..k-1; the columns
            # left of k are no longer read
            for j in range(k + 1, n + k):
                x = ring.sub(ring.mul(p, ri[j]), ring.mul(a, pk[j]))
                ri[j] = ring.exact_div(x, prev) if k else x
            ri.append(ring.neg(a))
        pk.append(prev)
        prev = p
    d = prev if sign == 1 else ring.neg(prev)
    if not ring.is_unit(d):
        raise FieldError("matrix determinant is not a unit")
    adj = [[None] * n for _ in range(n)]
    for r, row in enumerate(rows):
        for j, c in enumerate(cols):
            adj[r][c] = row[n + j] if sign == 1 else ring.neg(row[n + j])
    return adj, d


def adjugate(ring, M):
    """adj(M) = det(M) M^{-1} for M with a unit determinant (over k[T]: a
    nonzero constant); FieldError otherwise."""
    return _adjugate_det(ring, M)[0]


def inverse(ring, M):
    """The exact inverse adj(M) / det(M) of a matrix whose determinant is a
    unit of the ring (over k[T]: a nonzero constant); FieldError otherwise."""
    adj, d = _adjugate_det(ring, M)
    return [[ring.exact_div(x, d) for x in row] for row in adj]
