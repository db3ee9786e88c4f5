"""The symmetric form of a rational function, its determinant formula, the
Hankel inverse, and the reconstruction maps."""
import itertools
from fractions import Fraction

import pytest

import p1h.linalg as la
from p1h.bezout_hankel import (
    HankelMatrix,
    SymMatrix,
    bezout_form,
    f2_iso,
    f2_iso_inv,
    hankel_of,
    psi_n,
)
from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly, PolyRing, X, const
from p1h.quadform import oplog_to_path
from p1h.ratmap import eval_path, ga_act, mk_pointed, monomial_sum, oplus, phi_n, x_over

from conftest import all_points, block_sum, delta_matrix_oracle, perm_det, random_point


def block_sum_change_of_basis(u, g):
    """The det-1 matrix P with P^T Bez(X/u (+) g) P = Bez(g) (+) <u>.

    P is the contragredient of the unitriangular basis matrix whose last
    column is the coefficient vector of g's numerator: explicitly, identity
    with last row (-a_0, ..., -a_{n-1}, 1).
    """
    ring = g.ring
    n = g.n
    P = la.mat_identity(ring, n + 1)
    for j in range(n):
        P[n][j] = ring.neg(g.A.coeff(j))
    return P


def detsign(n):
    return -1 if (n * (n - 1) // 2) % 2 else 1


class TestBezoutForm:
    def test_x_plus_x_is_identity(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        S = bezout_form(s)
        assert S.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        # det I = 1 = (-1)^1 * res = -(-1)
        assert s.res == -1

    def test_degree_one(self):
        f = mk_pointed(X(QQ) + const(QQ, 5), const(QQ, 3))
        assert bezout_form(f).rows == ((Fraction(3),),)

    def test_matches_bivariate_division_oracle(self, rng):
        F3 = GF(3)
        for n in (1, 2, 3):
            for f in all_points(F3, n):
                S = bezout_form(f)
                assert [list(r) for r in S.rows] == delta_matrix_oracle(
                    F3, f.A, f.B, n
                )

    def test_determinant_formula_exhaustive_f3(self):
        F3 = GF(3)
        for n in (1, 2, 3):
            for f in all_points(F3, n):
                S = bezout_form(f)
                d = perm_det(F3, [list(r) for r in S.rows])
                expected = f.res if detsign(n) > 0 else F3.neg(f.res)
                assert d == expected

    def test_determinant_formula_random_q(self, rng):
        for _ in range(100):
            f = random_point(QQ, rng.randrange(1, 7), rng)
            S = bezout_form(f)
            d = la.det(QQ, [list(r) for r in S.rows])
            assert d == detsign(f.n) * f.res

    def test_block_sum_identity_exhaustive_f3(self):
        # Bez(X/u (+) g) is congruent, with an explicit det-1 matrix, to
        # the block sum of Bez(g) and <u>; the two-variable identity
        # delta_sum = u A(X)A(Y) + delta_g is checked coefficientwise
        F3 = GF(3)
        for u in (1, 2):
            for n in (1, 2):
                for g in all_points(F3, n):
                    s = oplus(x_over(F3, u), g)
                    S = bezout_form(s)
                    # coefficient identity
                    delta = delta_matrix_oracle(F3, s.A, s.B, n + 1)
                    for i in range(n + 1):
                        for j in range(n + 1):
                            expected = F3.mul(
                                u, F3.mul(g.A.coeff(i), g.A.coeff(j))
                            )
                            if i < n and j < n:
                                expected = F3.add(
                                    expected, bezout_form(g).rows[i][j]
                                )
                            assert delta[i][j] == expected
                    P = block_sum_change_of_basis(u, g)
                    assert la.det(F3, P) == 1
                    M = la.mat_mul(
                        F3, la.mat_transpose(P), la.mat_mul(F3, [list(r) for r in S.rows], P)
                    )
                    block = [list(r) for r in block_sum(
                        bezout_form(g), SymMatrix.diagonal(F3, [u])
                    ).rows]
                    assert M == block

    def test_path_has_constant_determinant(self):
        kt = PolyRing(GF(3))
        A = Poly.make(kt, [Poly.make(GF(3), [0, 1]), Poly.make(GF(3), [0, 1]), Poly.make(GF(3), [1])])
        F = mk_pointed(A, Poly.make(kt, [Poly.make(GF(3), [1])]))
        S = bezout_form(F)
        d = S.det()
        assert d.is_constant() and not d.is_zero()


class TestHankel:
    def test_example(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        assert hankel_of(s).s == (1, 0, 1)

    def test_degree_one(self):
        f = x_over(QQ, Fraction(4))
        assert hankel_of(f).s == (Fraction(1, 4),)

    def test_inverse_exhaustive_f3(self):
        F3 = GF(3)
        for n in (1, 2, 3):
            for f in all_points(F3, n):
                H = hankel_of(f)  # asserts Bez * Hank = I internally
                M = la.mat_mul(
                    F3,
                    [list(r) for r in bezout_form(f).rows],
                    [list(r) for r in H.to_sym().rows],
                )
                assert la.mat_eq(F3, M, la.mat_identity(F3, n))


class TestPsi:
    def test_roundtrip_exhaustive(self):
        for q in (2, 3):
            field = GF(q)
            for n in (1, 2, 3):
                for f in all_points(field, n):
                    H = hankel_of(f)
                    v = phi_n(f)
                    assert psi_n(H, v) == f

    def test_roundtrip_random_q(self, rng):
        for _ in range(200):
            f = random_point(QQ, rng.randrange(1, 6), rng)
            assert psi_n(hankel_of(f), phi_n(f)) == f

    def test_wrong_length_raises(self):
        with pytest.raises(FieldError):
            HankelMatrix(QQ, 2, (Fraction(1), Fraction(0)))

    def test_identity_hankel(self):
        H = HankelMatrix(QQ, 2, (Fraction(1), Fraction(0), Fraction(1)))
        f = psi_n(H, Fraction(0))
        assert f == oplus(x_over(QQ, 1), x_over(QQ, 1))

    def test_closed_form_degree_two(self, rng):
        # psi_2 applied to S^{-1} reproduces the closed formula
        # (X^2 + ab/(b^2-ac) X + a^2/(b^2-ac)) / (c X + b) on S_2 points
        count = 0
        while count < 100:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            disc = b * b - a * c
            if disc == 0 or a == 0 and b == 0 or c == 0 and b == 0:
                continue
            S = SymMatrix.make(QQ, [[a, b], [b, c]])
            if QQ.is_zero(S.det()):
                continue
            f = f2_iso_inv(S, 0)
            A_expected = (
                X(QQ) * X(QQ) + X(QQ).scale(a * b / disc) + const(QQ, a * a / disc)
            )
            B_expected = X(QQ).scale(c) + const(QQ, b)
            assert f.A == A_expected and f.B == B_expected
            count += 1


class TestF2Iso:
    def test_identity_pair(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        S, t = f2_iso(s)
        assert S.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert t == 0

    def test_roundtrips(self, rng):
        F5 = GF(5)
        for _ in range(60):
            f = random_point(F5, 2, rng)
            S, t = f2_iso(f)
            assert f2_iso_inv(S, t) == f

    def test_equivariance(self, rng):
        F5 = GF(5)
        for _ in range(60):
            f = random_point(F5, 2, rng)
            h = rng.randrange(5)
            S, t = f2_iso(f)
            S2, t2 = f2_iso(ga_act(h, f))
            assert S2.rows == S.rows
            assert t2 == F5.add(t, h)

    def test_degenerate_rejected(self):
        S = SymMatrix.make(QQ, [[1, 1], [1, 1]])
        with pytest.raises(FieldError):
            f2_iso_inv(S, 0)

    def test_transport_over_kt(self):
        # the chart inverse works identically over k[T]: a path of matrices
        # transports to a path of functions with matching endpoints
        F3 = GF(3)
        kt = PolyRing(F3)
        T = Poly.make(F3, [0, 1])
        one = Poly.make(F3, [1])
        ST = SymMatrix.make(kt, [[T, one], [one, Poly.make(F3, [])]])
        G = f2_iso_inv(ST, kt.zero)
        S0 = ST.eval(0)
        S1 = ST.eval(1)
        assert eval_path(G, 0) == f2_iso_inv(S0, 0)
        assert eval_path(G, 1) == f2_iso_inv(S1, 0)

    @pytest.mark.parametrize("field", (GF(2), GF(3), GF(5), GF(101), QQ), ids=str)
    def test_closed_form_matches_psi(self, field, rng):
        """f2_iso_inv(S, t) against psi_2 of S^{-1} read as Hankel data: the
        same A, B, U, V and res, and the same S refused by both, over the
        field and on k[T] paths (as certify lifts them) with t a T-polynomial."""
        kt = PolyRing(field)

        def entry():
            if field == QQ:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return rng.randrange(field.p)

        def t_poly():
            return Poly.make(field, [entry() for _ in range(rng.randrange(4))])

        def via_psi(S, t):
            inv = la.inverse(S.ring, S.rows)
            return psi_n(HankelMatrix(S.ring, 2, (inv[0][0], inv[0][1], inv[1][1])), t)

        def outcome(chart, S, t):
            try:
                f = chart(S, t)
            except FieldError:
                return None
            return f.A, f.B, f.U, f.V, f.res

        cases = []
        for _ in range(120):
            a, b, c = (entry() for _ in range(3))
            cases.append((SymMatrix.make(field, [[a, b], [b, c]]), entry()))
            a, x = entry(), entry()  # rank at most 1: refused
            cases.append((SymMatrix.make(field, [[a, a * x], [a * x, a * x * x]]), entry()))
        for _ in range(60):
            units = [entry() or 1 for _ in range(2)]
            ops = [("add", i, 1 - i, entry()) for i in (rng.randrange(2) for _ in range(4))]
            path = oplog_to_path(SymMatrix.diagonal(field, units), ops)
            cases.append((path, t_poly() + X(field).shift(rng.randrange(2))))
            # random k[T] entries: a non-constant determinant is refused
            rows = [[t_poly() for _ in range(2)] for _ in range(2)]
            rows[1][0] = rows[0][1]
            cases.append((SymMatrix.make(kt, rows), t_poly()))
        refused = lifted = 0
        for S, t in cases:
            got = outcome(f2_iso_inv, S, t)
            assert got == outcome(via_psi, S, t)
            refused += got is None
            lifted += got is not None and S.ring == kt and t.degree > 0
        assert refused >= 120 and lifted >= 50
