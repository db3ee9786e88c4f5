"""Field and polynomial layer: division, gcd, resultants, expansions,
square classes, integer factorization."""
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from p1h.fields import GF, QQ, FieldError, factorize, is_prime, squarefree_part
from p1h.poly import (
    Poly,
    PolyRing,
    X,
    bezout_pair,
    const,
    laurent_expand,
    poly_divmod,
    poly_gcd,
    poly_xgcd,
    resultant_nn,
    zero,
)
from p1h.ratmap import ga_act, oplus, path_of_point

from conftest import (
    EUCLID_FIELDS,
    euclid_pairs,
    laurent_oracle,
    minor_det,
    perm_det,
    random_point,
    schoolbook_divmod,
    schoolbook_mul,
    sylvester_nn,
)


class TestDivmod:
    def test_one_step_division(self):
        q, r = poly_divmod(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))
        assert q == X(QQ) and r == const(QQ, -1)

    def test_f2(self):
        F2 = GF(2)
        q, r = poly_divmod(X(F2), X(F2) + const(F2, 1))
        assert q == const(F2, 1) and r == const(F2, 1)

    def test_f3_multiply_back(self):
        F3 = GF(3)
        a = X(F3).shift(2)  # X^3
        b = X(F3) * X(F3) + const(F3, 1)
        q, r = poly_divmod(a, b)
        assert q == X(F3) and r == X(F3).scale(2)
        assert b * q + r == a

    def test_roundtrip_random(self, rng):
        for field in (QQ, GF(2), GF(3), GF(5)):
            for _ in range(100):
                a = _rand_poly(field, rng, rng.randrange(0, 7))
                b = _rand_poly(field, rng, rng.randrange(0, 5))
                if b.is_zero():
                    continue
                q, r = poly_divmod(a, b)
                assert b * q + r == a
                assert r.degree < b.degree

    def test_nonmonic_divisor_over_kt(self):
        kt = PolyRing(QQ)
        a = X(kt)
        b = const(kt, Poly.make(QQ, [0, 1]))  # the constant-in-X poly T
        with pytest.raises(FieldError, match="non-monic divisor"):
            poly_divmod(a, b)


class TestXgcd:
    def test_example_q(self):
        a = X(QQ) * X(QQ) - const(QQ, 1)
        b = X(QQ)
        g, s, t = poly_xgcd(a, b)
        assert g == const(QQ, 1)
        assert a * s + b * t == const(QQ, 1)
        assert s == const(QQ, -1) and t == X(QQ)

    def test_trivial(self):
        g, s, t = poly_xgcd(X(QQ), const(QQ, 1))
        assert g == const(QQ, 1) and s == zero(QQ) and t == const(QQ, 1)

    def test_f2_square(self):
        F2 = GF(2)
        a = X(F2) * X(F2) + const(F2, 1)
        b = X(F2) + const(F2, 1)
        g, s, t = poly_xgcd(a, b)
        assert g == b  # X^2+1 = (X+1)^2 in F_2
        assert s == zero(F2) and t == const(F2, 1)

    def test_both_zero(self):
        with pytest.raises(FieldError):
            poly_xgcd(zero(QQ), zero(QQ))

    def test_degree_bounds_random(self, rng):
        for field in (QQ, GF(5)):
            for _ in range(80):
                a = _rand_poly(field, rng, rng.randrange(1, 6))
                b = _rand_poly(field, rng, rng.randrange(1, 6))
                if a.is_zero() or b.is_zero():
                    continue
                g, s, t = poly_xgcd(a, b)
                assert a * s + b * t == g
                assert g.is_monic()
                if not poly_divmod(a, g)[0].is_zero() and not poly_divmod(b, g)[0].is_zero():
                    if s.degree >= 0 and b.degree - g.degree > 0:
                        assert s.degree < b.degree - g.degree
                    if t.degree >= 0 and a.degree - g.degree > 0:
                        assert t.degree < a.degree - g.degree


class TestResultant:
    def test_res11(self):
        # 2x2 Sylvester determinant
        assert resultant_nn(X(QQ), const(QQ, Fraction(7)), 1) == 7

    def test_res22(self):
        a = X(QQ) * X(QQ) - const(QQ, 1)
        assert resultant_nn(a, X(QQ), 2) == -1

    def test_degenerate(self):
        a = X(QQ).shift(2) + const(QQ, 3)
        assert resultant_nn(a, zero(QQ), 3) == 0

    def test_formal_degree_error(self):
        with pytest.raises(FieldError):
            resultant_nn(X(QQ).shift(3), X(QQ), 2)

    def test_euclidean_branch_matches_permutation_determinant(self, rng):
        """Over a field, monic A takes the Euclidean remainder sequence; the
        defining Sylvester determinant, expanded by permutations, agrees for
        B of every degree below n (the zero B included), at the formal degree
        n itself, and on zero resultants."""
        zeros = 0
        for field in (GF(2), GF(3), GF(5), QQ):
            for n in (1, 2, 3):
                for m in range(-1, n + 1):
                    for _ in range(12 if n == 3 else 25):
                        A = _rand_poly(field, rng, n, monic=True)
                        B = _rand_poly(field, rng, m) if m >= 0 else zero(field)
                        if m >= 0 and B.degree < m:
                            B = B + const(field, 1).shift(m)  # force degree m
                        if rng.random() < 0.2 and n >= 2 and m >= 1:
                            # a shared linear factor: the resultant is 0
                            r = _rand_poly(field, rng, 0)
                            lin = X(field) - r
                            A = _rand_poly(field, rng, n - 1, monic=True) * lin
                            B = _rand_poly(field, rng, m - 1, monic=True) * lin
                        assert (A.degree, B.degree) == (n, max(m, -1))
                        got = resultant_nn(A, B, n)
                        assert got == perm_det(field, sylvester_nn(A, B, n))
                        zeros += field.is_zero(got)
        assert zeros >= 20

    def test_matches_permutation_determinant(self, rng):
        # the Euclidean route vs the defining Sylvester determinant,
        # expanded by permutations
        F3 = GF(3)
        for n in (1, 2):
            for acoef in itertools.product(range(3), repeat=n):
                A = Poly.make(F3, list(acoef) + [1])
                for bcoef in itertools.product(range(3), repeat=n + 1):
                    B = Poly.make(F3, list(bcoef))
                    assert resultant_nn(A, B, n) == perm_det(
                        F3, sylvester_nn(A, B, n)
                    )
        # n = 3 sampled (720-term permanent-style expansion is slow)
        for _ in range(40):
            A = _rand_poly(F3, rng, 3, monic=True)
            B = _rand_poly(F3, rng, rng.randrange(0, 4))
            assert resultant_nn(A, B, 3) == perm_det(F3, sylvester_nn(A, B, 3))

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
    def test_field_pairs_of_every_shape_against_sylvester(self, field, rng):
        """Over a field every pair takes one remainder sequence: non-monic A
        of degree n (the lead scaled out), deg A < n = deg B (the blocks
        swapped) and both below n (a zero first column), against the
        Sylvester determinant expanded by permutations."""
        shapes = Counter()
        for n in (1, 2, 3):
            for _ in range(40 if n == 3 else 80):
                shape = rng.choice(("non-monic", "deg A < n", "both below n"))
                if shape == "non-monic":
                    A = _rand_poly(field, rng, n)
                    B = _rand_poly(field, rng, rng.randrange(-1, n + 1))
                elif shape == "deg A < n":
                    A = _rand_poly(field, rng, rng.randrange(-1, n))
                    B = _rand_poly(field, rng, n)
                else:
                    A = _rand_poly(field, rng, rng.randrange(-1, n))
                    B = _rand_poly(field, rng, rng.randrange(-1, n))
                got = resultant_nn(A, B, n)
                assert got == perm_det(field, sylvester_nn(A, B, n)), (A, B, n)
                if A.degree == n:
                    shapes["non-monic" if not A.is_monic() else "monic"] += 1
                elif B.degree == n:
                    shapes["deg A < n"] += 1
                else:
                    shapes["both below n"] += 1
                shapes["unit"] += not field.is_zero(got)
        assert min(shapes[s] for s in ("deg A < n", "both below n", "unit")) >= 20, shapes
        if field != GF(2):  # over F2 a lead that is not zero is 1
            assert shapes["non-monic"] >= 20, shapes

    def test_kt_exhaustive_f2_against_sylvester(self):
        """Over F2[T], every pair of T-degree <= 1 at formal degree n <= 2:
        the monic route (multiplication matrix) and the rest (Bezoutian)
        against the Sylvester determinant, expanded by permutations."""
        F2 = GF(2)
        kt = PolyRing(F2)
        entries = [Poly.make(F2, [c0, c1]) for c0 in (0, 1) for c1 in (0, 1)]
        routes = Counter()
        for n in (1, 2):
            for acoef in itertools.product(entries, repeat=n + 1):
                A = Poly.make(kt, acoef)
                for bcoef in itertools.product(entries, repeat=n + 1):
                    B = Poly.make(kt, bcoef)
                    got = resultant_nn(A, B, n)
                    assert got == perm_det(kt, sylvester_nn(A, B, n)), (A, B, n)
                    monic = A.degree == n and A.is_monic()
                    routes["monic" if monic else "bezoutian"] += 1
                    routes["monic, deg B = n"] += monic and B.degree == n
                    routes["deg A < n"] += A.degree < n
                    routes["unit"] += kt.is_unit(got)
        assert routes["monic"] == 4 * 16 + 16 * 64
        assert min(routes.values()) >= 50, routes

    @pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=str)
    def test_kt_random_against_sylvester(self, field, rng):
        """Random k[T] pairs of T-degree <= 2 at formal degree n <= 4: monic A
        of degree n with deg B < n and deg B = n, non-monic A of degree n,
        and deg A < n, against the Sylvester determinant by minors."""
        kt = PolyRing(field)

        def entry():
            return _rand_poly(field, rng, rng.randrange(-1, 3))

        def rand_kt(deg, lead=None):
            cs = [entry() for _ in range(deg)] + [lead if lead is not None else entry()]
            return Poly.make(kt, cs)

        for n in range(1, 5):
            for shape in ("monic", "monic, deg B = n", "non-monic", "deg A < n"):
                for _ in range(6 if n == 4 else 10):
                    if shape.startswith("monic"):
                        A = rand_kt(n, kt.one)
                    elif shape == "non-monic":
                        A = rand_kt(n, _rand_poly(field, rng, 1, monic=True) + kt.one)
                    else:
                        A = rand_kt(rng.randrange(n))
                    B = rand_kt(n if shape == "monic, deg B = n" else rng.randrange(n))
                    if shape == "monic, deg B = n" and B.degree < n:
                        B = B + Poly.make(kt, [kt.one]).shift(n)
                    assert (A.degree == n and A.is_monic()) == shape.startswith("monic")
                    assert resultant_nn(A, B, n) == minor_det(kt, sylvester_nn(A, B, n))

    def test_nonzero_iff_coprime(self, rng):
        for field in (QQ, GF(2), GF(3), GF(5)):
            for _ in range(500):
                A = _rand_poly(field, rng, rng.randrange(1, 5), monic=True)
                B = _rand_poly(field, rng, rng.randrange(0, A.degree + 1))
                n = A.degree
                if B.degree >= n or B.is_zero():
                    continue
                res = resultant_nn(A, B, n)
                g = poly_gcd(A, B)
                assert (not field.is_zero(res)) == (g.degree == 0)


class TestBezoutPair:
    def test_example(self):
        A = X(QQ) * X(QQ) - const(QQ, 1)
        U, V = bezout_pair(A, X(QQ))
        assert U == const(QQ, -1) and V == X(QQ)

    def test_degree_one(self):
        U, V = bezout_pair(X(QQ), const(QQ, Fraction(3)))
        assert U == zero(QQ) and V == const(QQ, Fraction(1, 3))

    def test_f3_constant(self):
        F3 = GF(3)
        U, V = bezout_pair(X(F3) * X(F3) + const(F3, 1), const(F3, 1))
        assert U == zero(F3) and V == const(F3, 1)

    def test_not_coprime(self):
        with pytest.raises(FieldError, match="not coprime"):
            bezout_pair(X(QQ) * X(QQ), X(QQ))

    def test_uniqueness_random(self, rng):
        # any second solution within the degree bounds is the same one
        for field in (QQ, GF(5)):
            for _ in range(60):
                f = random_point(field, rng.randrange(1, 5), rng)
                U, V = bezout_pair(f.A, f.B)
                assert f.A * U + f.B * V == const(field, field.one)
                assert U.degree <= f.n - 2 and V.degree <= f.n - 1
                # uniqueness: the difference of two solutions (U', V') would
                # satisfy A(U-U') = -B(V-V') with A coprime to B, forcing
                # degree overflow; check against the k[T]-style linear solve
                from p1h.poly import _bezout_pair_kt  # noqa

    def test_kt_route_agrees_with_field_route(self, rng):
        from p1h.poly import _bezout_pair_kt

        for _ in range(40):
            f = random_point(GF(5), rng.randrange(1, 4), rng)
            kt = PolyRing(GF(5))
            A = f.A.map_coeffs(lambda c: const(GF(5), c), kt)
            B = f.B.map_coeffs(lambda c: const(GF(5), c), kt)
            U, V = _bezout_pair_kt(A, B, f.n)
            back = lambda p: p.map_coeffs(lambda c: c.constant(), GF(5))
            assert back(U) == f.U and back(V) == f.V

    def test_kt_pair_solves_the_identity(self, rng):
        """Over k[T], on paths with non-constant coefficients (a translation
        by a multiple of T, summed with a lifted point): A U + B V = 1 within
        the degree bounds, the pair the path was built with."""
        for field in (GF(3), GF(5), QQ):
            kt = PolyRing(field)
            T = Poly.make(field, [0, 1])
            for _ in range(15):
                f = random_point(field, rng.randrange(1, 4), rng)
                g = random_point(field, rng.randrange(1, 3), rng)
                F = oplus(ga_act(T.scale(rng.randrange(1, 3)), path_of_point(f, kt)),
                          path_of_point(g, kt))
                U, V = bezout_pair(F.A, F.B)
                assert F.A * U + F.B * V == const(kt, kt.one)
                assert U.degree <= F.n - 2 and V.degree <= F.n - 1
                assert (U, V) == (F.U, F.V)
                assert any(c.degree > 0 for c in F.A.coeffs)
            with pytest.raises(FieldError, match="not coprime"):
                bezout_pair(X(kt) * X(kt), Poly.make(kt, [T]))


class TestPolyValue:
    """Poly is an immutable value: equal and hashed as (ring, coeffs)."""

    @staticmethod
    def _variants(ring, cs):
        # make, trimmed (with trailing zeros) and arithmetic all reach the
        # same canonical coefficient tuple
        made = Poly.make(ring, cs)
        trimmed = Poly.trimmed(ring, [ring.coerce(c) for c in cs] + [ring.zero] * 2)
        one = const(ring, ring.one)
        summed = (made + one) - one
        product = made * one
        return made, trimmed, summed, product, -(-made)

    @pytest.mark.parametrize("ring", [QQ, GF(5), PolyRing(GF(3))], ids=str)
    def test_equal_values_hash_equal(self, ring):
        for cs in ([], [1], [0, 2, 1], [3, 0, 0, 1]):
            vals = self._variants(ring, cs)
            assert len({hash(v) for v in vals}) == 1
            assert all(v == vals[0] and not v != vals[0] for v in vals)
            assert vals[0] != Poly.make(ring, cs + [1])
        assert Poly.make(GF(5), [1]) != Poly.make(GF(7), [1])
        assert Poly.make(GF(5), [1]) != (GF(5), (1,))

    def test_assignment_raises(self):
        p = Poly.make(GF(5), [1, 2])
        for name in ("ring", "coeffs", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p.coeffs == (1, 2)

    @pytest.mark.parametrize("ring", [QQ, GF(5), PolyRing(GF(3))], ids=str)
    def test_pickle_round_trip(self, ring):
        import pickle

        for p in self._variants(ring, [2, 0, 1]):
            q = pickle.loads(pickle.dumps(p))
            assert q == p and hash(q) == hash(p) and type(q) is Poly


class TestPackedProduct:
    """Poly.__mul__ packs each operand into one integer (Kronecker
    substitution) and multiplies once; it must give the schoolbook value,
    hash and canonical form over Q, F_p and k[T], up to X-degree 40 and
    T-degree 20, including the operands that fill the packed slots to
    their bound."""

    FIELDS = (QQ, GF(2), GF(3), GF(7), GF(101))
    BIG = 10**40  # the largest numerator the Q cases use

    def _entry(self, K, rng, kind):
        if K is not QQ:
            return K.p - 1 if kind in ("max", "min") else rng.randrange(K.p)
        if kind == "max":
            return Fraction(self.BIG)
        if kind == "min":
            return Fraction(-self.BIG)
        d = rng.choice([1, 1, 2, 3, 10**6])
        shape = rng.randrange(4)
        if shape == 0:  # an integer-valued Fraction
            return Fraction(rng.randint(-9, 9) * d, d)
        if shape == 1:  # a large numerator of either sign
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, self.BIG), d)
        return Fraction(rng.randint(-20, 20), d)

    def _poly(self, R, rng, dx, dt, kind, zero_rate):
        """Degree dx in X; over k[T] each coefficient has T-degree dt, or
        is zero with probability zero_rate (never the leading one)."""
        if dx < 0:
            return Poly(R, ())
        if not isinstance(R, PolyRing):
            cs = [self._entry(R, rng, kind) for _ in range(dx + 1)]
            cs[-1] = cs[-1] or R.one
            return Poly.make(R, cs)
        K = R.base
        rows = []
        for i in range(dx + 1):
            if i < dx and rng.random() < zero_rate:
                rows.append(Poly(K, ()))
            else:
                rows.append(self._poly(K, rng, dt, 0, kind, 0))
        return Poly.make(R, rows)

    @staticmethod
    def _assert_canonical(P):
        R = P.ring
        K = R.base if isinstance(R, PolyRing) else R
        entries = []
        for c in P.coeffs:
            if K is R:
                entries.append(c)
            else:
                assert type(c) is Poly and c.ring == K and (not c.coeffs or c.coeffs[-1] != 0)
                entries.extend(c.coeffs)
        assert not P.coeffs or not R.is_zero(P.coeffs[-1])
        for v in entries:
            if K is QQ:
                assert type(v) is Fraction
            else:
                assert type(v) is int and 0 <= v < K.p

    def _cases(self, R, rng):
        """(X-degree, T-degree) of each operand, the entry kind, and the
        rate of zero X-coefficients."""
        nested = isinstance(R, PolyRing)
        top = 20 if nested else 0
        fixed = [
            ((-1, 0), (-1, 0)), ((-1, 0), (5, top)), ((7, top), (-1, 0)),
            ((0, 0), (0, 0)), ((40, 0), (0, top)), ((0, top), (40, 0)),
            ((40, top), (0, 0)), ((1, top), (40, 1)), ((3, top), (40, top)),
        ]
        if R.char:  # over Q the schoolbook reference takes seconds here
            fixed.append(((40, top), (40, top)))
        out = [(a, b, kind, 0.0) for a, b in fixed for kind in ("max", "min", "rand")]
        for _ in range(30):
            a = (rng.randint(0, 40), rng.randint(0, top))
            b = (rng.randint(0, 40), rng.randint(0, top))
            # keep the schoolbook reference quick: large in X or in T, not both
            if nested and (a[0] + 1) * (b[0] + 1) * (a[1] + 1) * (b[1] + 1) > 40_000:
                a, b = (a[0] // 4, a[1]), (b[0] // 4, b[1])
            out.append((a, b, rng.choice(["max", "min", "rand", "rand"]), rng.choice([0.0, 0.3])))
        return out

    @pytest.mark.parametrize("nested", [False, True], ids=["k", "kT"])
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_agrees_with_schoolbook(self, field, nested):
        R = PolyRing(field) if nested else field
        rng = random.Random(f"packed-{field}-{nested}")
        for (dxa, dta), (dxb, dtb), kind, zeros in self._cases(R, rng):
            x = self._poly(R, rng, dxa, dta, kind, zeros)
            # the second operand of a "max" case takes the same sign, so the
            # middle slots reach the bound; "min" pairs a negative with a
            # positive operand over Q
            y = self._poly(R, rng, dxb, dtb, "max" if kind == "min" else kind, zeros)
            got, want = x * y, schoolbook_mul(x, y)
            assert got == want and hash(got) == hash(want), (x, y)
            assert y * x == want
            self._assert_canonical(got)

    def test_reference_is_the_double_loop(self):
        F = GF(7)
        x, y = Poly.make(F, [1, 6]), Poly.make(F, [6, 6, 6])
        assert schoolbook_mul(x, y).coeffs == (6, 0, 0, 1)
        kt = PolyRing(F)
        T = Poly.make(F, [0, 1])
        X_ = X(kt)
        assert schoolbook_mul(X_ + const(kt, T), X_ - const(kt, T)) == Poly.make(
            kt, [Poly.make(F, [0, 0, 6]), Poly.make(F, []), Poly.make(F, [1])]
        )


class TestDivisionKernel:
    """poly_divmod over a base field runs on integers: residues with one
    inverse of the lead over F_p, fraction-free pseudo-division over Q.
    It must give the schoolbook loop's quotient and remainder, canonical,
    over Q, F2, F3, F7 and F101 at X-degree 0-40; k[T] exact_div, which
    runs on it, must return the exact quotient at T-degree 0-40 and keep
    refusing an inexact division; X-division with k[T] coefficients keeps
    the schoolbook loop."""

    FIELDS = (QQ, GF(2), GF(3), GF(7), GF(101))
    BIG = 10**40

    def _entry(self, K, rng, kind):
        if K is not QQ:
            return rng.randrange(K.p)
        if kind == "big":  # a numerator of about 10^40, of either sign
            return Fraction(rng.choice([-1, 1]) * rng.randint(self.BIG // 2, self.BIG),
                            rng.choice([1, 3, 10**6]))
        return Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 7, 10**6]))

    def _poly(self, K, rng, d, kind="rand", lead=None):
        """Degree d (zero for d < 0), with the given lead or a random
        nonzero one."""
        if d < 0:
            return Poly(K, ())
        cs = [self._entry(K, rng, kind) for _ in range(d)]
        if lead is None:
            lead = self._entry(K, rng, kind) or K.from_int(2 if K.char != 2 else 1)
        return Poly.make(K, cs + [lead])

    def _cases(self, K, rng):
        """(deg a, deg b, entry kind, lead of b) of each division."""
        half = Fraction(1, 3) if K is QQ else K.from_int(K.p - 1)
        fixed = [
            (-1, 0, "rand", None), (-1, 3, "rand", None), (-1, 40, "big", None),
            (5, 12, "rand", None), (0, 1, "rand", None), (39, 40, "big", None),
            (40, 0, "rand", None), (40, 0, "big", None), (40, 1, "rand", half),
            (40, 40, "big", None), (40, 1, "big", None), (40, 3, "rand", K.one),
            (40, 20, "rand", None), (7, 7, "rand", K.one),
        ]
        out = list(fixed)
        for _ in range(25):
            da, db = rng.randint(-1, 40), rng.randint(0, 40)
            out.append((da, db, rng.choice(["rand", "rand", "big"]), None))
        return out

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_agrees_with_schoolbook(self, field):
        rng = random.Random(f"divmod-{field}")
        for da, db, kind, lead in self._cases(field, rng):
            a = self._poly(field, rng, da, kind)
            b = self._poly(field, rng, db, kind, lead)
            q, r = poly_divmod(a, b)
            wq, wr = schoolbook_divmod(a, b)
            assert (q, r) == (wq, wr) and hash((q, r)) == hash((wq, wr)), (a, b)
            assert r.degree < b.degree
            assert schoolbook_mul(b, q) + r == a
            TestPackedProduct._assert_canonical(q)
            TestPackedProduct._assert_canonical(r)

    def test_the_q_kernel_cases(self):
        """The divisions whose integer form takes each branch: a divisor
        with a denominator and a non-unit lead (the window is scaled), an
        exact division by a primitive divisor (it never is), a divisor
        with a content, a negative lead, a dividend whose coefficients
        bring new denominators as they enter the window, and a constant
        divisor."""
        x = X(QQ)
        one = const(QQ, 1)
        unit_fractions = Poly.make(QQ, [Fraction(1, k) for k in range(1, 60)])
        cases = [
            (Poly.make(QQ, [0] * 100 + [1]), x + const(QQ, Fraction(1, 3))),
            ((x.scale(3) + one) * (x.scale(5) - const(QQ, 2)), x.scale(3) + one),
            (x * x * x + const(QQ, 7), x.scale(6) + const(QQ, 4)),
            (x * x + x.scale(Fraction(1, 2)), const(QQ, Fraction(-4, 9)) * x - const(QQ, 2)),
            (Poly.make(QQ, [Fraction(1, 6), Fraction(-5, 4), 0, Fraction(7, 10)]), Poly.make(QQ, [0, 0, -2])),
            (unit_fractions, Poly.make(QQ, [1, 1, 0, 1])),
            (unit_fractions, Poly.make(QQ, [Fraction(2, 9), Fraction(-5, 3)])),
            (unit_fractions, const(QQ, Fraction(-7, 3))),
        ]
        for a, b in cases:
            assert poly_divmod(a, b) == schoolbook_divmod(a, b), (a, b)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_kt_exact_div(self, field):
        """exact_div in k[T] is poly_divmod of T-polynomials: the exact
        quotient back, and FieldError when a remainder is left."""
        kt = PolyRing(field)
        rng = random.Random(f"exact-{field}")
        degrees = [(0, -1), (0, 0), (40, 0), (0, 40), (40, 40), (1, 40), (40, 1)]
        degrees += [(rng.randint(0, 40), rng.randint(-1, 40)) for _ in range(20)]
        for db, dq in degrees:
            b = self._poly(field, rng, db, rng.choice(["rand", "big"]))
            q = self._poly(field, rng, dq)
            a = schoolbook_mul(b, q)
            assert kt.exact_div(a, b) == q
            if db > 0:
                r = self._poly(field, rng, rng.randint(0, db - 1))
                if r.is_zero():
                    r = const(field, 1)
                a = schoolbook_mul(b, q) + r
                with pytest.raises(FieldError, match="non-exact"):
                    kt.exact_div(a, b)

    def _kt_poly(self, kt, rng, dx, dt, lead=None):
        if dx < 0:
            return Poly(kt, ())
        K = kt.base
        rows = [self._poly(K, rng, rng.randint(-1, dt)) for _ in range(dx)]
        rows.append(lead if lead is not None else self._poly(K, rng, dt))
        return Poly.make(kt, rows)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_x_division_over_kt(self, field):
        """X-division with k[T] coefficients (the schoolbook loop in src):
        a constant, not necessarily monic, lead divides; a lead that
        depends on T is refused."""
        kt = PolyRing(field)
        rng = random.Random(f"xdiv-{field}")
        for _ in range(12):
            dx_a, dx_b = rng.randint(-1, 8), rng.randint(0, 5)
            lead = self._poly(field, rng, 0)
            a = self._kt_poly(kt, rng, dx_a, rng.randint(0, 6))
            b = self._kt_poly(kt, rng, dx_b, rng.randint(0, 6), lead)
            assert poly_divmod(a, b) == schoolbook_divmod(a, b), (a, b)
        b = self._kt_poly(kt, rng, 2, 3, self._poly(field, rng, 1))
        for fn in (poly_divmod, schoolbook_divmod):
            with pytest.raises(FieldError, match="non-monic divisor"):
                fn(X(kt).shift(3), b)


class TestAgainstSympy:
    """poly_xgcd, poly_gcd, the field resultant_nn and bezout_pair, all read
    off one remainder sequence, against sympy's gcdex and resultant."""

    @staticmethod
    def _sympy(sp, p):
        field, x = p.ring, sp.Symbol("x")
        cs = [sp.Rational(c.numerator, c.denominator) if field is QQ else c
              for c in reversed(p.coeffs)] or [0]
        if field is QQ:
            return sp.Poly(cs, x, domain="QQ")
        return sp.Poly(cs, x, modulus=field.p)

    @staticmethod
    def _back(field, c):
        return Fraction(int(c.p), int(c.q)) if field is QQ else field.coerce(int(c))

    @pytest.mark.parametrize("field", EUCLID_FIELDS, ids=str)
    def test_corpus(self, field):
        sp = pytest.importorskip("sympy")
        back = lambda P: Poly.make(field, [self._back(field, c) for c in reversed(P.all_coeffs())])
        seen = Counter()
        for a, b in euclid_pairs(field):
            if a.is_zero() and b.is_zero():
                with pytest.raises(FieldError):
                    poly_xgcd(a, b)
                assert poly_gcd(a, b).is_zero()
                continue
            # sympy's gcdex divides by its second argument: swap a zero b
            if b.is_zero():
                t, s, h = self._sympy(sp, b).gcdex(self._sympy(sp, a))
            else:
                s, t, h = self._sympy(sp, a).gcdex(self._sympy(sp, b))
            g, s, t = back(h), back(s), back(t)
            assert poly_xgcd(a, b) == (g, s, t)
            assert poly_gcd(a, b) == g
            seen["common factor"] += g.degree > 0
            seen["zero or constant operand"] += min(a.degree, b.degree) <= 0
            seen["deg a < deg b"] += a.degree < b.degree
            if not a.is_monic() or a.degree < max(b.degree, 1):
                continue
            n = a.degree
            res = resultant_nn(a, b, n)
            assert res == self._back(field, self._sympy(sp, a).resultant(self._sympy(sp, b)))
            seen["zero resultant"] += field.is_zero(res)
            if b.degree == n:
                continue
            if g.degree == 0:
                assert bezout_pair(a, b) == (s, t)
                seen["field point"] += 1
            else:
                with pytest.raises(FieldError, match="not coprime"):
                    bezout_pair(a, b)
        for what in ("common factor", "zero or constant operand", "deg a < deg b",
                     "zero resultant", "field point"):
            assert seen[what] >= 20, (what, seen)


class TestLaurent:
    def test_geometric(self):
        A = X(QQ) * X(QQ) - const(QQ, 1)
        assert laurent_expand(X(QQ), A, 3) == (1, 0, 1)

    def test_trivial(self):
        assert laurent_expand(const(QQ, 1), X(QQ), 2) == (1, 0)

    def test_f2(self):
        F2 = GF(2)
        assert laurent_expand(const(F2, 1), X(F2) + const(F2, 1), 3) == (1, 1, 1)

    def test_degree_error(self):
        with pytest.raises(FieldError):
            laurent_expand(X(QQ), X(QQ), 2)

    def test_against_long_division(self, rng):
        for field in (QQ, GF(3)):
            for _ in range(60):
                A = _rand_poly(field, rng, rng.randrange(1, 5), monic=True)
                V = _rand_poly(field, rng, rng.randrange(0, A.degree))
                m = rng.randrange(1, 8)
                assert laurent_expand(V, A, m) == laurent_oracle(field, V, A, m)


class TestSquareClass:
    def test_q_examples(self):
        assert QQ.square_class(Fraction(18)) == 2
        assert QQ.square_class(Fraction(-4, 9)) == -1

    def test_f7(self):
        F7 = GF(7)
        squares = {(x * x) % 7 for x in range(1, 7)}
        assert squares == {1, 2, 4}
        assert F7.square_class(2) == 1
        assert F7.square_class(3) == F7.nonresidue()

    def test_f2(self):
        assert GF(2).square_class(1) == 1

    def test_zero_rejected(self):
        with pytest.raises(FieldError):
            QQ.square_class(Fraction(0))

    def test_idempotent_multiplicative(self, rng):
        for field in (QQ, GF(7), GF(5)):
            for _ in range(120):
                if field is QQ:
                    a = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                    b = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                else:
                    a = rng.randrange(1, field.p)
                    b = rng.randrange(1, field.p)
                if field.is_zero(a) or field.is_zero(b):
                    continue
                sa = field.square_class(a)
                assert field.square_class(sa) == sa
                lhs = field.square_class(field.mul(a, b))
                rhs = field.square_class(
                    field.mul(field.square_class(a), field.square_class(b))
                )
                assert lhs == rhs


class TestPrimeField:
    def test_large_prime_constructs_quickly(self):
        import time

        t0 = time.perf_counter()
        F = GF(2**61 - 1)
        assert time.perf_counter() - t0 < 1.0
        assert F.mul(F.inv(3), 3) == 1

    def test_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime
        # to the bases 2, 3, 5 and 7
        for n in (561, 3215031751, 1, 0, 9):
            with pytest.raises(FieldError):
                GF(n)

    def test_beyond_proven_bound_rejected(self):
        from p1h.fields import MR_BOUND

        with pytest.raises(FieldError):
            GF(2**89 - 1)  # prime, but above the bound
        with pytest.raises(FieldError):
            GF(MR_BOUND)

    def test_pow(self):
        F7 = GF(7)
        assert F7.pow(3, 0) == 1 and F7.pow(3, 6) == 1 and F7.pow(3, 5) == 5
        assert QQ.pow(Fraction(-2, 3), 3) == Fraction(-8, 27)
        assert QQ.pow(Fraction(5), 0) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 101])
    def test_sqrt_matches_brute_force(self, p):
        # 17 and 41 are 1 mod 8, where the Tonelli loop runs more than once
        F = GF(p)
        for a in range(p):
            roots = [x for x in range(p) if x * x % p == a]
            if roots:
                assert F.sqrt(a) == roots[0]
            else:
                assert F.sqrt(a) is None

    def test_sqrt_large_primes(self, rng):
        import time

        # 2^61 - 1 is 3 mod 4; 998244353 = 119 * 2^23 + 1 needs up to 23 rounds
        for p in (2**61 - 1, 998244353):
            F = GF(p)
            t0 = time.perf_counter()
            for _ in range(20):
                x = rng.randrange(1, p)
                r = F.sqrt(x * x % p)
                assert r in (x, p - x) and r <= p // 2
            assert time.perf_counter() - t0 < 1.0
            assert F.sqrt(F.nonresidue()) is None
        assert GF(2).sqrt(1) == 1 and GF(2).sqrt(0) == 0


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


class TestFactorize:
    def test_agrees_with_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        ns = [rng.randrange(1, 10**12) for _ in range(200)]
        ns += [rng.randrange(1, 10**6) ** 2 for _ in range(50)]
        ns += [_next_prime(rng.randrange(2, 10**4)) ** rng.randrange(1, 5) for _ in range(50)]
        ns += [
            _next_prime(rng.randrange(10**8, 10**9)) * _next_prime(rng.randrange(10**8, 10**9))
            for _ in range(10)
        ]
        ns += [1, 2, 10**5 + 3, (10**5 + 3) ** 2]
        for n in ns:
            assert factorize(n) == sympy.factorint(n), n

    def test_agrees_with_sympy_past_the_prime_table(self, monkeypatch):
        """Trial division stops at the primes below 1000, so prime powers
        p^k with p in (1000, 10^5), primes just above 1000 and 12- and
        18-digit semiprimes reach Miller-Rabin and rho, which must factor
        them completely."""
        sympy = pytest.importorskip("sympy")
        from p1h import fields

        rng = random.Random(1800)

        def semiprime(digits):
            while True:
                p = _next_prime(rng.randrange(10 ** (digits // 2 - 2), 10 ** (digits // 2)))
                q = _next_prime(10 ** (digits - 1) // p + rng.randrange(10 ** (digits // 2)))
                if len(str(p * q)) == digits:
                    return p * q

        ns = [_next_prime(rng.randrange(1001, 10**5)) ** k for k in (2, 3, 4) for _ in range(25)]
        ns += list(sympy.primerange(1000, 1300))
        ns += [1009 * 1013, 1009**2 * 1019 * 997, 2 * 3 * 1013**3]
        ns += [semiprime(d) for d in (12, 18) for _ in range(8)]
        rho = []

        def spy(n):
            rho.append(n)
            return factor(n)

        factor = fields._rho_factor
        monkeypatch.setattr(fields, "_rho_factor", spy)
        fields._factor_pairs.cache_clear()
        fields._hard_factor_pairs.cache_clear()
        try:
            for n in ns:
                assert factorize(n) == sympy.factorint(n), n
        finally:
            fields._factor_pairs.cache_clear()
            fields._hard_factor_pairs.cache_clear()
        assert len(rho) >= 75 + 16

    def test_hard_part_is_split_once(self, monkeypatch):
        """The resultants of two points of one decision share a hard part N
        beside different small primes: what survives trial division is
        memoized, so rho splits N once."""
        sympy = pytest.importorskip("sympy")
        from p1h import fields

        N = 571266167 * 409746383  # 18 digits
        rho = []
        factor = fields._rho_factor
        monkeypatch.setattr(fields, "_rho_factor", lambda m: rho.append(m) or factor(m))
        fields._factor_pairs.cache_clear()
        fields._hard_factor_pairs.cache_clear()
        try:
            assert factorize(6 * N) == sympy.factorint(6 * N)
            assert factorize(35 * N) == sympy.factorint(35 * N)
            assert squarefree_part(-11 * N) == -11 * N
            assert squarefree_part(-11 * N * 49) == -11 * N
        finally:
            fields._factor_pairs.cache_clear()
            fields._hard_factor_pairs.cache_clear()
        assert rho == [N]
        assert fields._hard_factor_pairs.cache_info().maxsize is not None

    def test_returns_a_fresh_dict(self):
        n = 2**3 * 3 * 1000000007
        first = factorize(n)
        first[2] = 99
        first[5] = 1
        del first[3]
        assert factorize(n) == {2: 3, 3: 1, 1000000007: 1}
        assert factorize(n) is not factorize(n)

    def test_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                factorize(n)


def _rand_poly(field, rng, deg, monic=False):
    if field is QQ or not hasattr(field, "p"):
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg + 1)]
    else:
        cs = [rng.randrange(field.p) for _ in range(deg + 1)]
    if monic:
        cs[-1] = field.one
    return Poly.make(field, cs)
