"""Rational functions: the addition law, continued fractions, composition,
the translation action, the splitting coordinate, paths, unpointed points."""
import itertools
from fractions import Fraction

import pytest

from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly, PolyRing, X, bezout_pair, const, laurent_expand, resultant_nn, zero
from p1h.ratmap import (
    PointedRat,
    RejectedPath,
    RejectedPoint,
    cf_assemble,
    cf_expand,
    cf_values,
    compose,
    elementary_product,
    eval_path,
    ga_act,
    identity_point,
    mk_pointed,
    mk_unpointed,
    monomial_sum,
    normalize_unpointed,
    oplus,
    oplus_all,
    path_of_point,
    phi_n,
    pointed_from_pair,
    poly_point,
    reflect,
    reverse_path,
    sl2_elementary_factors,
    unpointed_of_pointed,
    x_over,
)

from conftest import (
    EUCLID_FIELDS,
    all_points,
    euclid_pairs,
    random_point,
    run_optimized,
    schoolbook_mul,
    solved_twin,
)


def _kt_point(field, avecs, bvecs):
    kt = PolyRing(field)
    A = Poly.make(kt, [Poly.make(field, c) for c in avecs])
    B = Poly.make(kt, [Poly.make(field, c) for c in bvecs])
    return mk_pointed(A, B)


class TestMkPointed:
    def test_valid(self):
        f = mk_pointed(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))
        assert f.res == -1
        assert f.n == 2

    def test_common_root_rejected(self):
        with pytest.raises(RejectedPoint) as exc:
            mk_pointed(X(QQ).shift(1), X(QQ))
        assert exc.value.resultant == 0

    def test_valid_path(self):
        # (X^2 + T X, 1) over Q[T]
        F = _kt_point(QQ, [[0], [0, 1], [1]], [[1]])
        assert F.res.is_constant() and F.res.constant() == 1

    def test_nonconstant_resultant_path_rejected(self):
        with pytest.raises(RejectedPath):
            _kt_point(QQ, [[0, 1], [0], [1]], [[0], [1]])  # (X^2+T)/X

    def test_degree_zero_point(self):
        e = identity_point(QQ)
        assert e.n == 0 and e.res == 1


FIELDS = (GF(3), GF(5), GF(101), QQ)


def _random_path(field, n, rng):
    """A random k[T] polynomial point P/b: P monic with T-linear coefficients."""
    kt = PolyRing(field)
    while True:
        coeffs = [Poly.make(field, [rng.randrange(-3, 4), rng.randrange(-3, 4)]) for _ in range(n)]
        b = field.coerce(rng.randrange(-3, 4))
        if not field.is_zero(b):
            return poly_point(Poly.make(kt, coeffs + [field.one]), b)


class TestPointedFromPair:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_oplus_and_poly_point_match_mk_pointed(self, field, rng):
        for _ in range(12):
            f = random_point(field, rng.randrange(0, 4), rng)
            g = random_point(field, rng.randrange(1, 4), rng)
            P = Poly.make(field, [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))] + [1])
            b = field.coerce(rng.choice([1, 2, -1, -2]))
            for h in (oplus(f, g), oplus(g, f), poly_point(P, b)):
                got, solved = solved_twin(h)
                assert got == solved

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_path_sums_match_mk_pointed(self, field, rng):
        for _ in range(4):
            F = _random_path(field, rng.randrange(1, 3), rng)
            G = _random_path(field, rng.randrange(1, 3), rng)
            for H in (F, oplus(F, G), oplus(oplus(G, F), G)):
                got, solved = solved_twin(H)
                assert got == solved
                assert H.res.is_constant()

    def test_poly_point_rejects_as_mk_pointed(self):
        kt = PolyRing(GF(5))
        T = Poly.make(GF(5), [0, 1])
        for P, b in ((X(QQ), 0), (X(kt), T), (X(kt), kt.zero)):
            with pytest.raises(RejectedPoint) as got:
                poly_point(P, b)
            with pytest.raises(RejectedPoint) as want:
                mk_pointed(P, const(P.ring, b))
            assert type(got.value) is type(want.value)
            assert got.value.resultant == want.value.resultant
        with pytest.raises(FieldError, match="monic"):
            poly_point(X(QQ).scale(2), 1)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_tampered_pairs_raise(self, field, rng):
        for _ in range(10):
            f = random_point(field, rng.randrange(2, 5), rng)
            assert pointed_from_pair(f.A, f.B, f.U, f.V) == f
            for name, bound in (("U", f.n - 2), ("V", f.n - 1)):
                cs = [getattr(f, name).coeff(j) for j in range(bound + 1)]
                i = rng.randrange(bound + 1)
                cs[i] = field.add(cs[i], field.one)
                pair = {"U": f.U, "V": f.V, name: Poly.make(field, cs)}
                with pytest.raises(FieldError, match="Bezout"):
                    pointed_from_pair(f.A, f.B, pair["U"], pair["V"])
            # U + B c, V - A c keeps A U + B V = 1 but leaves the degree bounds
            c = Poly.make(field, [rng.randrange(1, 3)])
            with pytest.raises(FieldError, match="degree bounds"):
                pointed_from_pair(f.A, f.B, f.U + f.B * c, f.V - f.A * c)
            with pytest.raises(FieldError):
                pointed_from_pair(f.A.scale(2), f.B, f.U, f.V)

    def test_checks_survive_optimize(self):
        script = (
            "from p1h.fields import GF, FieldError\n"
            "from p1h.poly import Poly\n"
            "from p1h.ratmap import mk_pointed, pointed_from_pair\n"
            "F = GF(5)\n"
            "f = mk_pointed(Poly.make(F, [1, 4, 4, 1]), Poly.make(F, [1, 2, 4]))\n"
            "one, x = Poly.make(F, [1]), Poly.make(F, [0, 1])\n"
            "print(pointed_from_pair(f.A, f.B, f.U, f.V) == f)\n"
            "for args in ((f.A, f.B, f.U, f.V + one), (f.A, f.B, f.U + x, f.V),\n"
            "             (f.A, f.B, f.U + f.B, f.V - f.A)):\n"
            "    try:\n"
            "        pointed_from_pair(*args)\n"
            "        print('accepted')\n"
            "    except FieldError:\n"
            "        print('refused')\n"
        )
        assert run_optimized(script).split() == ["True", "refused", "refused", "refused"]


class TestLazyBezoutPair:
    """A point compares and hashes by (ring, A, B, res); its Bezout pair is
    built when first read."""

    @pytest.mark.parametrize("field", EUCLID_FIELDS, ids=str)
    def test_constructors_give_equal_points_and_hashes(self, field, rng):
        def unit():
            if field is QQ:
                return Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
            return rng.randrange(1, field.p)

        for _ in range(12):
            h = oplus(random_point(field, rng.randrange(1, 4), rng),
                      random_point(field, rng.randrange(1, 4), rng))
            P = Poly.make(field, [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))] + [1])
            b = field.coerce(unit())
            B = const(field, b)
            for same in (
                [h, mk_pointed(h.A, h.B), pointed_from_pair(h.A, h.B, h.U, h.V)],
                [poly_point(P, b), mk_pointed(P, B),
                 pointed_from_pair(P, B, zero(field), const(field, field.inv(b)))],
            ):
                fresh = mk_pointed(same[0].A, same[0].B)
                key = hash(fresh)
                assert {fresh: 1}[same[0]] == 1
                assert all(f == fresh and hash(f) == key for f in same)
                fresh.U  # building the pair leaves the key as it was
                assert hash(fresh) == key and all(f == fresh for f in same)

    @pytest.mark.parametrize("field", EUCLID_FIELDS, ids=str)
    def test_lazy_pair_is_bezout_pair(self, field):
        points = 0
        for a, b in euclid_pairs(field):
            if a.degree < 1 or not a.is_monic() or b.degree >= a.degree:
                continue
            try:
                f = mk_pointed(a, b)
            except RejectedPoint:
                continue
            assert (f.U, f.V) == bezout_pair(a, b)
            points += 1
        assert points >= 50

    def test_decisions_and_loading_build_no_pair(self, monkeypatch):
        """Parsing two points and deciding them runs one remainder sequence
        per point and builds no Bezout pair; neither does loading a
        certificate."""
        import importlib
        from collections import Counter

        from p1h import certify, classify, expr, ratmap, serial

        poly = importlib.import_module("p1h.poly")  # p1h.poly is also a function
        calls = Counter()
        for module in (poly, ratmap):
            for name in ("remainder_sequence", "sequence_cofactors", "bezout_pair"):
                def spy(*args, _orig=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _orig(*args)

                monkeypatch.setattr(module, name, spy)
        classify._pointed_invariant_cached.cache_clear()
        for field, f_text, g_text in ((QQ, "(X^3-2*X+5)/(3*X^2-X+1/2)", "X^3/(7*X-2)"),
                                      (GF(7), "(X^2+3)/(2*X+1)", "(X^2+X+5)/4")):
            calls.clear()
            f, g = expr.parse_ratfun(f_text, field), expr.parse_ratfun(g_text, field)
            classify.pointed_equiv(f, g)
            assert calls == Counter(remainder_sequence=2)
        F3 = GF(3)
        f = mk_pointed(X(F3) * X(F3) - const(F3, 1), X(F3))
        g = mk_pointed(X(F3) * X(F3) + const(F3, 1), Poly.make(F3, [2, 2]))
        data = serial.certificate_to_json(certify.connect(f, g))
        calls.clear()
        cert = serial.certificate_from_json(data)
        assert calls == Counter(remainder_sequence=2)
        assert cert.source == f and cert.target == g

    def test_self_checks_raise_under_optimize(self):
        script = (
            "import importlib\n"
            "from p1h import ratmap\n"
            "from p1h.fields import GF, FieldError\n"
            "from p1h.poly import Poly, PolyRing, const\n"
            "from p1h.ratmap import (PointedRat, eval_path, ga_act, mk_pointed, phi_n,\n"
            "                        sl2_elementary_factors)\n"
            "F = GF(5)\n"
            "def run(f):\n"
            "    try:\n"
            "        f()\n"
            "    except FieldError as exc:\n"
            "        print('raised:', exc)\n"
            "    else:\n"
            "        print('passed')\n"
            "f = mk_pointed(Poly.make(F, [1, 4, 4, 1]), Poly.make(F, [1, 2, 4]))\n"
            "bad = PointedRat(F, f.A, f.B, f.res, _pair=(f.U, f.V + const(F, 1)))\n"
            "run(lambda: ga_act(2, bad))\n"
            "kt = PolyRing(F)\n"
            "lift = lambda p: p.map_coeffs(lambda c: const(F, c), kt)\n"
            "path = PointedRat(kt, lift(f.A), lift(f.B), const(F, F.add(f.res, 1)))\n"
            "run(lambda: eval_path(path, 1))\n"
            "poly = importlib.import_module('p1h.poly')\n"
            "expand = poly.laurent_expand\n"
            "poly.laurent_expand = lambda V, A, m: expand(V, A, m)[:-1] + (F.one,)\n"
            "run(lambda: phi_n(f))\n"
            "ratmap.elementary_product = lambda field, n, ops: [[1, 0], [0, 1]]\n"
            "run(lambda: sl2_elementary_factors(F, [[1, 2], [0, 1]]))\n"
        )
        assert run_optimized(script).splitlines() == [
            "raised: ga_act: the translated pair is not a Bezout pair",
            "raised: eval_path: the resultant at T = t is not the path's",
            "raised: phi_n: the two routes to the coordinate disagree",
            "raised: sl2_elementary_factors: the factors do not multiply to M",
        ]


class TestOplus:
    def test_x_plus_x(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        assert s.A == X(QQ) * X(QQ) - const(QQ, 1)
        assert s.B == X(QQ)

    def test_x_plus_general(self, rng):
        for _ in range(20):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            s = oplus(x_over(QQ, 1), f)
            assert s.A == X(QQ) * f.A - f.B
            assert s.B == f.A

    def test_general_plus_x(self):
        f = x_over(QQ, 1)  # A=X, B=1, U=0, V=1
        s = oplus(f, x_over(QQ, 1))
        # (A X - V)/(B X + U) for A=X, B=1
        assert s.A == X(QQ) * X(QQ) - const(QQ, 1)
        assert s.B == X(QQ)

    def test_identity_two_sided(self, rng):
        e = identity_point(QQ)
        for _ in range(10):
            f = random_point(QQ, rng.randrange(0, 4), rng)
            assert oplus(e, f) == f
            assert oplus(f, e) == f

    def test_associativity_random(self, rng):
        for field in (QQ, GF(3), GF(5)):
            for _ in range(67):
                f = random_point(field, rng.randrange(1, 3), rng)
                g = random_point(field, rng.randrange(1, 3), rng)
                h = random_point(field, rng.randrange(1, 3), rng)
                assert oplus(oplus(f, g), h) == oplus(f, oplus(g, h))

    def test_balanced_fold_is_the_left_fold(self, rng):
        # oplus_all folds pairwise; associativity makes it the left fold,
        # in order, with the same Bezout pair, for every length
        for field in (QQ, GF(2), GF(5), PolyRing(GF(3))):
            assert oplus_all(field, []) == identity_point(field)
            for m in range(1, 8):
                base = field.base if isinstance(field, PolyRing) else field
                pts = [random_point(base, rng.randrange(0, 3), rng) for _ in range(m)]
                if isinstance(field, PolyRing):
                    pts = [path_of_point(f, field) for f in pts]
                left = identity_point(field)
                for f in pts:
                    left = oplus(left, f)
                got = oplus_all(field, iter(pts))
                assert got == left and (got.U, got.V) == (left.U, left.V)
        with pytest.raises(FieldError, match="different rings"):
            oplus_all(QQ, [x_over(QQ, 1), x_over(GF(5), 1)])

    def test_degree_and_twisted_resultant(self, rng):
        # deg adds; res multiplies up to the sign (-1)^{n1 n2}, which is
        # the determinant-of-the-form coordinate being multiplicative
        for field in (QQ, GF(3)):
            for _ in range(50):
                f = random_point(field, rng.randrange(1, 4), rng)
                g = random_point(field, rng.randrange(1, 4), rng)
                s = oplus(f, g)
                assert s.n == f.n + g.n
                expected = field.mul(f.res, g.res)
                if (f.n * g.n) % 2:
                    expected = field.neg(expected)
                assert field.is_zero(field.sub(s.res, expected))


class TestOplusFromSummands:
    """oplus takes the sum's resultant from the summands' and runs no
    remainder sequence; the point it builds is the one mk_pointed solves
    from (A, B) alone."""

    @staticmethod
    def _chain(field, rng, top=40):
        """Seeded sums of growing degree up to `top`: each link adds a small
        point, a polynomial point or an earlier sum, on either side."""
        sums = [random_point(field, rng.randrange(1, 4), rng)]
        while sums[-1].n < top:
            acc = sums[-1]
            pick = rng.randrange(3)
            if pick == 0:
                g = random_point(field, rng.randrange(1, 5), rng)
            elif pick == 1:
                cs = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
                b = field.coerce(rng.choice([1, -1, 2]))
                g = poly_point(Poly.make(field, cs + [1]), b if b else field.one)
            else:
                g = rng.choice(sums[: max(1, len(sums) // 2)])
            if acc.n + g.n > top:
                g = random_point(field, top - acc.n, rng)
            sums.append(oplus(acc, g) if rng.randrange(2) else oplus(g, acc))
        return sums[1:]

    @pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(7), GF(101)), ids=str)
    def test_sum_chains_match_mk_pointed(self, field, rng):
        degrees = set()
        for _ in range(3):
            for h in self._chain(field, rng):
                assert h._steps is None  # no remainder sequence was run
                twin = mk_pointed(h.A, h.B)
                assert (h.A, h.B, h.res, h.U, h.V) == (twin.A, twin.B, twin.res, twin.U, twin.V)
                assert cf_expand(h).terms == cf_expand(twin).terms
                assert h._steps == twin._steps  # kept from the first read
                assert cf_values(h) == cf_values(twin)
                degrees.add(h.n)
        assert max(degrees) == 40

    @pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(7), GF(101)), ids=str)
    def test_embedded_steps_carry_the_constant_resultant(self, field, rng):
        from p1h import certify

        kt = PolyRing(field)
        steps = 0
        for _ in range(4):
            f = random_point(field, rng.randrange(2, 6), rng)
            certify._normal_form_cert_cached.cache_clear()
            units, cert = certify.normal_form_cert(f)
            left = [random_point(field, rng.randrange(1, 3), rng)]
            right = [random_point(field, rng.randrange(1, 3), rng)]
            G = _random_path(field, rng.randrange(1, 3), rng)
            for F in cert.steps + (certify._embed(kt, left, G, right),):
                want = resultant_nn(F.A, F.B, F.n)
                assert want.is_constant() and not want.is_zero()
                assert F.res == want
                assert (F.A * F.U + F.B * F.V).coeffs == (kt.one,)
                steps += 1
        assert steps >= 8
        certify._normal_form_cert_cached.cache_clear()

    def test_a_corrupted_field_product_raises(self):
        f = mk_pointed(Poly.make(GF(5), [1, 4, 4, 1]), Poly.make(GF(5), [1, 2, 4]))
        bad = PointedRat(f.ring, f.A, f.B, f.res, _pair=(f.U, f.V + const(f.ring, 1)))
        for a, b in ((bad, x_over(GF(5), 2)), (x_over(GF(5), 2), bad)):
            with pytest.raises(FieldError, match="not a point"):
                oplus(a, b)


class TestContinuedFractions:
    def test_example(self):
        s = mk_pointed(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))
        exp = cf_expand(s)
        assert [(P, b) for P, b in exp] == [(X(QQ), 1), (X(QQ), 1)]

    def test_polynomial_single_term(self):
        P = X(QQ).shift(2) + X(QQ).scale(2)
        f = poly_point(P, Fraction(5))
        exp = cf_expand(f)
        assert list(exp) == [(P, Fraction(5))]

    def test_monomial(self):
        exp = cf_expand(x_over(QQ, Fraction(7)))
        assert list(exp) == [(X(QQ), Fraction(7))]

    def test_roundtrip_exhaustive_f3(self):
        F3 = GF(3)
        for n in (1, 2, 3):
            for f in all_points(F3, n):
                assert cf_assemble(cf_expand(f)) == f

    def test_roundtrip_random_q(self, rng):
        for _ in range(200):
            f = random_point(QQ, rng.randrange(1, 5), rng)
            assert cf_assemble(cf_expand(f)) == f

    @pytest.mark.parametrize("field", EUCLID_FIELDS, ids=str)
    def test_roundtrip_euclid_corpus(self, field):
        """The blocks read off the remainder sequence reassemble the point,
        on every field point of the corpus the xgcd tests compare with sympy."""
        points = 0
        for a, b in euclid_pairs(field):
            if a.degree < 1 or not a.is_monic() or b.degree >= a.degree:
                continue
            try:
                f = mk_pointed(a, b)
            except RejectedPoint:
                continue
            assert cf_assemble(cf_expand(f)) == f
            points += 1
        assert points >= 50

    def test_concatenation(self, rng):
        for _ in range(50):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            g = random_point(QQ, rng.randrange(1, 4), rng)
            assert cf_expand(oplus(f, g)).terms == cf_expand(f).terms + cf_expand(g).terms


class TestCompose:
    def test_linear_outer(self, rng):
        # (X/a) o f = (1/a) f = (A, aB)
        for _ in range(20):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            a = Fraction(rng.randint(1, 5))
            c = compose(x_over(QQ, a), f)
            assert c.A == f.A and c.B == f.B.scale(a)

    def test_identity_right(self, rng):
        for _ in range(10):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            assert compose(f, x_over(QQ, 1)) == f

    def test_squares(self):
        sq = poly_point(X(QQ).shift(1), 1)
        assert compose(sq, sq).A == X(QQ).shift(3)
        assert compose(sq, sq).B == const(QQ, 1)

    def test_assoc_and_degree(self, rng):
        for field in (QQ, GF(5)):
            for _ in range(40):
                f = random_point(field, rng.randrange(1, 3), rng)
                g = random_point(field, rng.randrange(1, 3), rng)
                h = random_point(field, rng.randrange(1, 3), rng)
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
                assert compose(f, g).n == f.n * g.n


class TestGaAction:
    def test_zero(self, rng):
        f = random_point(QQ, 2, rng)
        assert ga_act(0, f) == f

    def test_translate_x(self):
        assert ga_act(1, x_over(QQ, 1)).A == X(QQ) + const(QQ, 1)

    def test_res_invariance_and_additivity(self, rng):
        F5 = GF(5)
        for _ in range(200):
            f = random_point(F5, rng.randrange(1, 4), rng)
            h1, h2 = rng.randrange(5), rng.randrange(5)
            assert ga_act(h1, f).res == f.res
            assert ga_act(h1, ga_act(h2, f)) == ga_act((h1 + h2) % 5, f)


class TestPhi:
    def test_degree_one(self, rng):
        for _ in range(20):
            a = Fraction(rng.randint(-5, 5))
            b = Fraction(rng.randint(1, 5))
            f = mk_pointed(X(QQ) + const(QQ, a), const(QQ, b))
            assert phi_n(f) == a / b

    def test_equivariance(self, rng):
        for field in (QQ, GF(5)):
            for _ in range(60):
                f = random_point(field, rng.randrange(1, 4), rng)
                h = (
                    Fraction(rng.randint(-4, 4))
                    if field is QQ
                    else rng.randrange(field.p)
                )
                lhs = phi_n(ga_act(h, f))
                rhs = field.add(phi_n(f), field.coerce(h))
                assert field.is_zero(field.sub(lhs, rhs))

    def test_against_expansion_tail(self, rng):
        # phi is minus the 2n-th expansion coefficient of V/A
        for _ in range(40):
            f = random_point(QQ, rng.randrange(1, 5), rng)
            s = laurent_expand(f.V, f.A, 2 * f.n)
            assert phi_n(f) == -s[2 * f.n - 1]

    def test_degree_zero_error(self):
        with pytest.raises(FieldError):
            phi_n(identity_point(QQ))


class TestPaths:
    def test_leading_term_homotopy(self):
        # (X^2 + T a1 X + T a0)/b0 joins X^2/b0 to (X^2+a1X+a0)/b0
        a1, a0, b0 = Fraction(3), Fraction(1), Fraction(2)
        F = _kt_point(QQ, [[0, a0], [0, a1], [1]], [[b0]])
        assert eval_path(F, 0) == mk_pointed(X(QQ).shift(1), const(QQ, b0))
        assert eval_path(F, 1) == mk_pointed(
            X(QQ) * X(QQ) + X(QQ).scale(a1) + const(QQ, a0), const(QQ, b0)
        )

    def test_inverse_polynomial_homotopy(self):
        # X^n / (T b2 X^2 + T b1 X + b0)
        F3 = GF(3)
        F = _kt_point(
            F3, [[], [], [], [1]], [[1], [0, 2], [0, 1]]
        )  # X^3/(T X^2 + 2T X + 1)
        src = eval_path(F, 0)
        tgt = eval_path(F, 1)
        assert src == mk_pointed(X(F3).shift(2), const(F3, 1))
        assert tgt.B == Poly.make(F3, [1, 2, 1])

    def test_constant_path(self, rng):
        from p1h.ratmap import path_of_point

        f = random_point(GF(5), 2, rng)
        F = path_of_point(f, PolyRing(GF(5)))
        for t in range(5):
            assert eval_path(F, t) == f

    def test_endpoints_share_degree_and_resultant(self, rng):
        F = _kt_point(QQ, [[0, 3], [0, 1], [1]], [[2]])
        assert eval_path(F, 0).res == eval_path(F, 1).res

    def test_reverse(self):
        F = _kt_point(QQ, [[0, 3], [0, 1], [1]], [[2]])
        R = reverse_path(F)
        assert eval_path(R, 0) == eval_path(F, 1)
        assert eval_path(R, 1) == eval_path(F, 0)

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(101), QQ], ids=str)
    def test_reflect_is_the_substitution(self, field, rng):
        # c(1-T) by Horner with schoolbook products, the field's own add
        one_minus_t = Poly.make(field, [1, -1])
        for _ in range(60):
            m = rng.randrange(0, 9)
            if field is QQ:
                cs = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(m)]
            else:
                cs = [rng.randrange(field.p) for _ in range(m)]
            c = Poly.make(field, cs)
            expected = Poly.make(field, [])
            for a in reversed(c.coeffs):
                expected = schoolbook_mul(expected, one_minus_t) + const(field, a)
            assert reflect(c) == expected, c
            assert reflect(reflect(c)) == c


class TestSl2Factors:
    def test_product_reproduces_matrix(self, rng):
        for field in (GF(5), QQ):
            for _ in range(60):
                a, b, c = (
                    field.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                    for _ in range(3)
                )
                if field.is_zero(a):
                    continue
                # [[a, b], [c, (1 + b c)/a]] has determinant 1
                M = [[a, b], [c, field.div(field.add(field.one, field.mul(b, c)), a)]]
                ops = sl2_elementary_factors(field, M)
                assert len(ops) <= 4
                assert all(op[:3] in (("add", 0, 1), ("add", 1, 0)) for op in ops)
                assert elementary_product(field, 2, ops) == M

    def test_rejects_non_sl2(self):
        with pytest.raises(FieldError):
            sl2_elementary_factors(QQ, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]])


class TestUnpointed:
    def test_already_pointed(self):
        u = unpointed_of_pointed(x_over(QQ, 2))
        f, mv = normalize_unpointed(u)
        assert mv.factors == ()
        assert f.A == X(QQ)

    def test_inverse_function(self):
        u = mk_unpointed(QQ, [1, 0], [0, 1])  # 1/X
        f, mv = normalize_unpointed(u)
        assert f.n == 1
        assert f.A.is_monic()

    def test_replayed_endpoints(self, rng):
        from p1h.certify import Certificate, _normalization_step, verify
        from p1h.ratmap import UnpointedRat

        F5 = GF(5)
        kt = PolyRing(F5)
        for _ in range(40):
            avec = [rng.randrange(5) for _ in range(3)]
            bvec = [rng.randrange(5) for _ in range(3)]
            try:
                u = mk_unpointed(F5, avec, bvec)
            except (FieldError, ValueError, RejectedPoint):
                continue
            f, mv = normalize_unpointed(u)
            if not mv.factors:
                continue
            step = _normalization_step(mv, kt)
            cert = Certificate(
                "unpointed", F5, (step,), u, unpointed_of_pointed(f)
            )
            assert verify(cert)

    def test_degenerate_rejected(self):
        with pytest.raises((RejectedPoint, FieldError)):
            mk_unpointed(QQ, [1, 1], [1, 1])  # proportional pair

    def test_stratum_violation_rejected(self):
        with pytest.raises(FieldError):
            mk_unpointed(QQ, [1, 0], [1, 0])  # true degree 0 < 1
