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
    exact by the Bareiss identity.
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
                M[i][j] = ring.exact_div(num, prev)
            M[i][k] = ring.zero
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return d if sign == 1 else ring.neg(d)


def _minor(M, i, j):
    return [
        [x for jj, x in enumerate(row) if jj != j]
        for ii, row in enumerate(M)
        if ii != i
    ]


def adjugate(ring, M):
    """Classical adjugate: adj(M)[i][j] = (-1)^{i+j} det(minor(M, j, i))."""
    n = len(M)
    if n == 1:
        return [[ring.one]]
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det(ring, _minor(M, j, i))
            out[i][j] = c if (i + j) % 2 == 0 else ring.neg(c)
    return out


def inverse(ring, M):
    """The exact inverse adj(M) / det(M) of a matrix whose determinant is a
    unit of the ring (over k[T]: a nonzero constant); FieldError otherwise."""
    d = det(ring, M)
    if not ring.is_unit(d):
        raise FieldError("matrix determinant is not a unit")
    return [[ring.exact_div(x, d) for x in row] for row in adjugate(ring, M)]
