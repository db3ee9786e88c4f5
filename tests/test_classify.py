"""Invariants and equivalence decisions: the monoid morphism, coherence,
composition law, unpointed classes, maps to P^d."""
import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import pytest

from p1h.bezout_hankel import bezout_form
from p1h.classify import (
    compose_invariant,
    mk_pd,
    pd_equiv,
    pointed_difference,
    pointed_equiv,
    pointed_invariant,
    res_class_mod_2n,
    sum_invariant,
    unpointed_equiv,
    unpointed_invariant,
)
from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly, X, const, zero
from p1h.quadform import stable_equal, stable_invariant
from p1h.ratmap import (
    cf_expand,
    compose,
    ga_act,
    identity_point,
    mk_pointed,
    mk_unpointed,
    monomial_sum,
    oplus,
    poly_point,
    scale_pointed,
    unpointed_of_pointed,
    x_over,
)

from conftest import all_points, dlog, random_point


class TestPointedInvariant:
    def test_degree_one(self):
        inv = pointed_invariant(x_over(QQ, Fraction(3)))
        assert inv.n == 1 and inv.res == 3
        assert inv.witt.rank == 1 and inv.witt.disc == 3

    def test_x_plus_x(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        inv = pointed_invariant(s)
        assert inv.n == 2 and inv.res == -1
        assert inv.witt.rank == 2 and inv.witt.disc == 1
        assert inv.witt.signature == (2, 0)
        assert all(v == 1 for _, v in inv.witt.hasse)
        # coherence: disc = class((-1)^{n(n-1)/2} res)
        assert QQ.square_class(inv.detbez()) == inv.witt.disc

    def test_monoid_morphism_exhaustive_f3(self):
        F3 = GF(3)
        pts = {n: all_points(F3, n) for n in (1, 2)}
        for n1, n2 in ((1, 1), (1, 2), (2, 1)):
            for f in pts[n1]:
                for g in pts[n2]:
                    direct = pointed_invariant(oplus(f, g))
                    formal = sum_invariant(pointed_invariant(f), pointed_invariant(g))
                    assert direct == formal

    def test_monoid_morphism_random_q(self, rng):
        for _ in range(200):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            g = random_point(QQ, rng.randrange(1, 4), rng)
            assert pointed_invariant(oplus(f, g)) == sum_invariant(
                pointed_invariant(f), pointed_invariant(g)
            )

    def test_commutative_at_invariant_level(self, rng):
        for field in (QQ, GF(5)):
            for _ in range(60):
                f = random_point(field, rng.randrange(1, 3), rng)
                g = random_point(field, rng.randrange(1, 3), rng)
                s1, s2 = oplus(f, g), oplus(g, f)
                assert pointed_invariant(s1) == pointed_invariant(s2)
        # ... while the functions themselves need not be equal
        f = mk_pointed(X(QQ) + const(QQ, 1), const(QQ, 2))
        g = x_over(QQ, 3)
        assert oplus(f, g) != oplus(g, f)
        assert pointed_invariant(oplus(f, g)) == pointed_invariant(oplus(g, f))


def _block_sum(field, rng, nmax):
    """An oplus sum of poly_point blocks P/b of degree 1-4 and total degree
    at most nmax, so that blocks of degree above 1 occur."""
    f = identity_point(field)
    while True:
        d = rng.randrange(1, 5)
        if f.n + d > nmax:
            return f
        if field is QQ:
            cs = [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(d)]
            b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 2, 7]))
        else:
            cs = [rng.randrange(field.p) for _ in range(d)]
            b = rng.randrange(1, field.p)
        f = oplus(f, poly_point(Poly.make(field, cs + [1]), b))
        if f.n and rng.random() < 0.3:
            return f


def _patch_everywhere(monkeypatch, obj, replacement):
    """Rebind obj to replacement in every p1h module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("p1h") and module is not None:
            for attr, val in list(vars(module).items()):
                if val is obj:
                    monkeypatch.setattr(module, attr, replacement)


class TestAgainstBezoutRoute:
    """The decision reads the Witt class off the continued-fraction values;
    the Bezout form, eliminated by stable_invariant, is the oracle."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
    def test_agrees_with_stable_invariant_of_bezout_form(self, field, rng):
        blocks = 0
        for k in range(1000):
            if k % 2:
                f = random_point(field, rng.randrange(1, 11), rng)
            else:
                f = _block_sum(field, rng, 10)
                blocks += any(P.degree > 1 for P, _ in cf_expand(f))
            inv = pointed_invariant(f)
            S = bezout_form(f)  # checks det S against the carried resultant
            assert inv.witt == stable_invariant(S)
            assert inv.detbez() == S.det() and inv.res == f.res
        assert blocks >= 250

    def test_decision_builds_no_matrix(self, rng, monkeypatch):
        """Neither building the points (mk_pointed, oplus) nor deciding
        them calls bezout_form, diagonalize or linalg.det."""
        from p1h import bezout_hankel, classify, linalg, quadform

        calls = []
        for module, name in ((bezout_hankel, "bezout_form"), (quadform, "diagonalize"),
                             (linalg, "det")):
            orig = getattr(module, name)
            _patch_everywhere(monkeypatch, orig,
                              lambda *a, _name=name, _orig=orig: calls.append(_name) or _orig(*a))
        classify._pointed_invariant_cached.cache_clear()
        for field in (QQ, GF(3), GF(2)):
            for _ in range(30):
                f = random_point(field, rng.randrange(1, 8), rng)
                g = _block_sum(field, rng, 8)
                assert pointed_invariant(f).n == f.n
                assert pointed_equiv(g, g)
        assert calls == []

    def test_coherence_failure_is_a_field_error(self, monkeypatch):
        from p1h import classify

        f = oplus(x_over(QQ, 2), x_over(QQ, 3))
        classify._pointed_invariant_cached.cache_clear()
        monkeypatch.setattr(classify, "cf_values", lambda f: (QQ.one, Fraction(5)))
        with pytest.raises(FieldError, match="det Bez"):
            pointed_invariant(f)
        classify._pointed_invariant_cached.cache_clear()

    def test_bezout_form_rejects_a_wrong_resultant(self):
        f = oplus(x_over(QQ, 2), x_over(QQ, 3))
        with pytest.raises(FieldError, match="determinant formula"):
            bezout_form(dataclasses.replace(f, res=Fraction(7)))


class TestFactorOnce:
    def test_semiprime_resultant_is_factored_once(self, monkeypatch):
        from p1h import classify, fields

        N = 100000007 * 999999937  # 18 digits, two 9-digit primes
        f = x_over(QQ, Fraction(N))
        g = mk_pointed(X(QQ) + const(QQ, 1), const(QQ, N))
        assert f.res == g.res == N
        calls = []
        rho = fields._rho_factor
        monkeypatch.setattr(fields, "_rho_factor", lambda m: calls.append(m) or rho(m))
        fields._factor_pairs.cache_clear()
        fields._hard_factor_pairs.cache_clear()
        classify._pointed_invariant_cached.cache_clear()
        assert pointed_equiv(f, g)
        assert calls == [N]


class TestPointedEquiv:
    def test_translation_orbit(self, rng):
        for _ in range(30):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            h = Fraction(rng.randint(-5, 5))
            assert pointed_equiv(f, ga_act(h, f))

    def test_resultant_separates(self):
        assert not pointed_equiv(x_over(QQ, 1), x_over(QQ, 4))
        assert not pointed_equiv(x_over(QQ, 1), x_over(QQ, 2))

    def test_normal_form_equivalent(self, rng):
        from p1h.certify import normal_form_cert

        for field in (QQ, GF(3)):
            for _ in range(25):
                f = random_point(field, rng.randrange(1, 4), rng)
                units, cert = normal_form_cert(f)
                assert pointed_equiv(f, monomial_sum(field, units))

    def test_degree_zero_singleton(self):
        from p1h.ratmap import identity_point

        assert pointed_equiv(identity_point(QQ), identity_point(QQ))


class TestComposeInvariant:
    def test_linear_outer(self, rng):
        for _ in range(30):
            a = Fraction(rng.choice([1, 2, 3, -1, -2]))
            g = random_point(QQ, rng.randrange(1, 4), rng)
            lhs = compose_invariant(
                pointed_invariant(x_over(QQ, a)), pointed_invariant(g)
            )
            rhs = pointed_invariant(compose(x_over(QQ, a), g))
            assert lhs == rhs

    def test_identity(self, rng):
        for _ in range(20):
            g = random_point(QQ, rng.randrange(1, 4), rng)
            assert compose_invariant(
                pointed_invariant(x_over(QQ, 1)), pointed_invariant(g)
            ) == pointed_invariant(g)

    def test_agrees_exhaustive_f3(self):
        F3 = GF(3)
        pts = {n: all_points(F3, n) for n in (1, 2)}
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for f in pts[n1]:
                for g in pts[n2]:
                    assert compose_invariant(
                        pointed_invariant(f), pointed_invariant(g)
                    ) == pointed_invariant(compose(f, g))

    def test_agrees_random_q(self, rng):
        for _ in range(100):
            f = random_point(QQ, rng.randrange(1, 3), rng)
            g = random_point(QQ, rng.randrange(1, 3), rng)
            assert compose_invariant(
                pointed_invariant(f), pointed_invariant(g)
            ) == pointed_invariant(compose(f, g))

    def test_associative(self, rng):
        for _ in range(80):
            invs = [
                pointed_invariant(random_point(QQ, rng.randrange(1, 3), rng))
                for _ in range(3)
            ]
            assert compose_invariant(compose_invariant(invs[0], invs[1]), invs[2]) == (
                compose_invariant(invs[0], compose_invariant(invs[1], invs[2]))
            )

    def test_left_distributivity(self, rng):
        for _ in range(100):
            f = random_point(QQ, rng.randrange(1, 3), rng)
            g1 = random_point(QQ, rng.randrange(1, 3), rng)
            g2 = random_point(QQ, rng.randrange(1, 3), rng)
            lhs = pointed_invariant(compose(f, oplus(g1, g2)))
            rhs = pointed_invariant(oplus(compose(f, g1), compose(f, g2)))
            assert lhs == rhs

    def test_right_distributivity_counterexample(self):
        # found by search; over F_3 no counterexample exists at invariant
        # level (the unit group has exponent 2 and the Witt part always
        # distributes), so the witness lives over Q
        f = x_over(QQ, 2)
        g1 = g2 = x_over(QQ, 1)
        lhs = pointed_invariant(compose(oplus(g1, g2), f))
        rhs = pointed_invariant(oplus(compose(g1, f), compose(g2, f)))
        assert lhs != rhs
        assert lhs.res == -16 and rhs.res == -4

    def test_right_distributivity_never_fails_over_f3(self):
        F3 = GF(3)
        pts = all_points(F3, 1)
        for f in pts:
            for g1 in pts:
                for g2 in pts:
                    lhs = pointed_invariant(compose(oplus(g1, g2), f))
                    rhs = pointed_invariant(oplus(compose(g1, f), compose(g2, f)))
                    assert lhs == rhs


class TestResClass:
    def test_q(self):
        assert res_class_mod_2n(QQ, Fraction(4), 1) == 1  # 4 = 2^2
        assert res_class_mod_2n(QQ, Fraction(2), 1) == 2
        assert res_class_mod_2n(QQ, Fraction(-32), 2) == -2  # -2^5, 5 mod 4 = 1
        assert res_class_mod_2n(QQ, Fraction(1, 4), 1) == 1  # exponent -2 mod 2

    def test_q_sign_retained(self):
        assert res_class_mod_2n(QQ, Fraction(-4), 1) == -1
        assert res_class_mod_2n(QQ, Fraction(-1), 3) == -1

    def test_fp(self):
        F5 = GF(5)
        # generator of F_5^* is 2; 2n = 2, gcd(2, 4) = 2
        assert res_class_mod_2n(F5, 4, 1) == res_class_mod_2n(F5, 1, 1)
        assert res_class_mod_2n(F5, 2, 1) != res_class_mod_2n(F5, 1, 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_fp_matches_discrete_log(self, p):
        F = GF(p)
        g = F.generator()
        for n in range(1, 5):
            d = math.gcd(2 * n, p - 1)
            for r in F.units():
                assert res_class_mod_2n(F, r, n) == pow(g, dlog(F, r) % d, p)

    def test_fp_zero_rejected(self):
        with pytest.raises(FieldError):
            res_class_mod_2n(GF(7), 0, 2)


class TestUnpointed:
    def test_squares_identified(self):
        u1 = unpointed_of_pointed(x_over(QQ, 1))
        u2 = unpointed_of_pointed(x_over(QQ, 4))
        assert unpointed_equiv(u1, u2)

    def test_nonsquares_separated(self):
        u1 = unpointed_of_pointed(x_over(QQ, 1))
        u2 = unpointed_of_pointed(x_over(QQ, 2))
        assert not unpointed_equiv(u1, u2)

    def test_sl2_translate(self, rng):
        # an unpointed point and any Moebius translate are equivalent
        import p1h.linalg as la
        from p1h.poly import resultant_nn

        F5 = GF(5)
        for _ in range(40):
            f = random_point(F5, rng.randrange(1, 3), rng)
            u = unpointed_of_pointed(f)
            # random SL_2: translate (A, B) -> (pA + qB, rA + sB)
            while True:
                p_, q_, r_, s_ = (rng.randrange(5) for _ in range(4))
                if (p_ * s_ - q_ * r_) % 5 == 1:
                    break
            A2 = f.A.scale(p_) + f.B.scale(q_)
            B2 = f.A.scale(r_) + f.B.scale(s_)
            n = f.n
            u2 = mk_unpointed(
                F5,
                [A2.coeff(i) for i in range(n + 1)],
                [B2.coeff(i) for i in range(n + 1)],
            )
            assert unpointed_equiv(u, u2)

    def test_scaling_invariance_random(self, rng):
        for _ in range(40):
            f = random_point(QQ, rng.randrange(1, 4), rng)
            lam = Fraction(rng.choice([2, 3, 5, 7]))
            g = mk_pointed(f.A, f.B.scale(1 / lam**2))
            assert unpointed_equiv(unpointed_of_pointed(f), unpointed_of_pointed(g))


def _disguised(f, rng):
    """(A + Q B)/B for a random Q with deg QB < n: the path (A + T Q B)/B
    has a constant resultant, so the point is in f's class."""
    field = f.ring
    room = f.n - 1 - f.B.degree
    if field is QQ:
        cs = [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2])) for _ in range(room + 1)]
    else:
        cs = [rng.randrange(field.p) for _ in range(room + 1)]
    return mk_pointed(f.A + Poly.make(field, cs) * f.B, f.B)


def _over_scaled(f, mu):
    """(A, B/mu): its resultant is res(f)/mu^n, and for mu a square it is
    unpointed-equivalent to f."""
    field = f.ring
    return mk_pointed(f.A, f.B.scale(field.inv(field.coerce(mu))))


# Bases of equal resultant -1: X/1 (+) X/1 against another signature, and
# against the same signature with another Hasse symbol at 3.
_Q_BASES = {
    "signature": ((1, 1), (-1, -1)),
    "hasse": ((1, 1), (3, Fraction(1, 3))),
}


def _seeded_pairs(field, rng, count):
    """Pointed pairs (f, g) of every kind the cascade separates: equal
    classes, and classes that differ in degree, resultant, and over Q in
    signature or in the Hasse symbol at 3; each g disguised."""
    kinds = ["equal", "degree", "resultant", "scaled"]
    if field is QQ:
        kinds += list(_Q_BASES)
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n = rng.randrange(1, 5)
        f = random_point(field, n, rng)
        if kind == "equal":
            g = f
        elif kind == "degree":
            g = random_point(field, rng.choice([m for m in range(1, 6) if m != n]), rng)
        elif kind == "resultant":
            g = random_point(field, n, rng)
        elif kind == "scaled":
            mu = rng.choice([2, 3, 4, 9]) if field is QQ else rng.randrange(1, field.p)
            g = _over_scaled(f, mu)
        else:
            us, vs = _Q_BASES[kind]
            f, g = (oplus(monomial_sum(QQ, units), f) for units in (us, vs))
        yield _disguised(f, rng), _disguised(g, rng)


def _pointed_split(f, g):
    """The first invariant on which f and g differ, or None."""
    i1, i2 = pointed_invariant(f), pointed_invariant(g)
    if i1.n != i2.n:
        return "degree"
    if i1.res != i2.res:
        return "resultant"
    if i1.field is QQ and i1.witt.signature != i2.witt.signature:
        return "signature"
    if i1.field is QQ and dict(i1.witt.hasse).get(3, 1) != dict(i2.witt.hasse).get(3, 1):
        return "hasse3"
    return None if i1 == i2 else "witt"


def _unpointed_split(u1, u2):
    i1, i2 = unpointed_invariant(u1), unpointed_invariant(u2)
    if i1.n != i2.n:
        return "degree"
    if i1.field is QQ and i1.witt.signature != i2.witt.signature:
        return "signature"
    if i1.res_class != i2.res_class:
        return "power class"
    return None if i1 == i2 else "witt"


class TestCheapestInvariantFirst:
    """pointed_equiv and unpointed_equiv decide on degree, resultant (or
    its 2n-th-power class) and the signature before the full invariants;
    the answers must be those of comparing the full invariants."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=str)
    def test_agrees_with_the_full_invariants(self, field, rng):
        from p1h import classify

        seen = {"pointed": set(), "unpointed": set()}
        for f, g in _seeded_pairs(field, rng, 240):
            u1, u2 = unpointed_of_pointed(f), unpointed_of_pointed(g)
            classify._pointed_invariant_cached.cache_clear()
            decided = pointed_equiv(f, g), unpointed_equiv(u1, u2)
            splits = _pointed_split(f, g), _unpointed_split(u1, u2)
            assert decided == (splits[0] is None, splits[1] is None), (f, g)
            seen["pointed"].add(splits[0])
            seen["unpointed"].add(splits[1])
        # F_2 has one unit, so every resultant and class is 1 there
        expected = {
            "pointed": {None, "degree"} | ({"resultant"} if field.char != 2 else set()),
            "unpointed": {None, "degree"} | ({"power class"} if field.char != 2 else set()),
        }
        if field is QQ:
            expected["pointed"] |= {"signature", "hasse3"}
            expected["unpointed"] |= {"signature", "witt"}
        for key in expected:
            assert expected[key] <= seen[key], (key, seen[key])

    def test_cheap_mismatches_do_not_factor(self, rng, monkeypatch):
        from p1h import certify, classify, fields

        def refuse(n):
            raise AssertionError("factorize called")

        _patch_everywhere(monkeypatch, fields.factorize, refuse)
        classify._pointed_invariant_cached.cache_clear()
        f = random_point(QQ, 3, rng)
        sig_f, sig_g = (oplus(monomial_sum(QQ, us), f) for us in _Q_BASES["signature"])
        pairs = [
            (f, random_point(QQ, 4, rng)),  # degree
            (f, _over_scaled(f, 5)),  # resultant
            (_disguised(sig_f, rng), _disguised(sig_g, rng)),  # signature
        ]
        for f1, f2 in pairs:
            assert not pointed_equiv(f1, f2)
        for f1, f2 in pairs[:1] + [(f, _over_scaled(f, 2))] + pairs[2:]:
            u1, u2 = unpointed_of_pointed(f1), unpointed_of_pointed(f2)
            assert not unpointed_equiv(u1, u2)
            assert certify.unpointed_connect(u1, u2).reason == "unpointed invariants differ"
        g = pairs[1][1]
        expected = [
            ((x_over(QQ, 1), f), "degree 1 vs 3"),
            (pairs[1], f"resultant {QQ.format(f.res)} vs {QQ.format(g.res)}"),
            (pairs[2], "stable Witt class differs"),
        ]
        for (f1, f2), reason in expected:
            assert certify.connect(f1, f2).reason == reason

    @pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(101), QQ], ids=str)
    def test_connect_decides_as_pointed_equiv(self, field, rng):
        # one decision: connect certifies exactly the pairs pointed_equiv
        # accepts, and refuses the others with pointed_difference's reason
        from p1h.certify import Certificate, NotEquivalent, connect, verify

        seen = set()
        for f, g in _seeded_pairs(field, rng, 60):
            out, reason = connect(f, g), pointed_difference(f, g)
            assert pointed_equiv(f, g) == (reason is None)
            if reason is None:
                assert isinstance(out, Certificate) and verify(out), (f, g)
            else:
                assert isinstance(out, NotEquivalent) and out.reason == reason, (f, g)
            seen.add(reason and reason.split()[0])
        assert {None, "degree"} <= seen, seen
        if field.char != 2:
            assert "resultant" in seen, seen
        if field is QQ:
            assert "stable" in seen, seen

    def test_mixed_fields_and_paths_raise(self):
        from p1h.certify import connect
        from p1h.poly import PolyRing
        from p1h.ratmap import path_of_point

        f, g = x_over(QQ, 1), x_over(GF(7), 1)
        with pytest.raises(FieldError):
            pointed_equiv(f, g)
        with pytest.raises(FieldError):
            unpointed_equiv(unpointed_of_pointed(f), unpointed_of_pointed(g))
        F = path_of_point(f, PolyRing(QQ))
        G = path_of_point(oplus(f, f), PolyRing(QQ))
        for a, b in ((F, F), (F, G)):
            with pytest.raises(FieldError):
                pointed_equiv(a, b)
        with pytest.raises(FieldError):
            connect(F, G)


def _moebius(f, rng):
    """f's coefficient vectors moved by a random SL_2(k) matrix, a product
    of three elementary ones: an unpointed point in f's unpointed class,
    usually with B of full degree."""
    field = f.ring

    def draw():
        if field is QQ:
            return Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return field.coerce(rng.randrange(field.p))

    A, B = f.A, f.B
    for step in range(3):
        x = draw()
        A, B = (A + B.scale(x), B) if step % 2 == 0 else (A, B + A.scale(x))
    return mk_unpointed(field, [A.coeff(i) for i in range(f.n + 1)],
                        [B.coeff(i) for i in range(f.n + 1)])


def _unpointed_pairs(field, rng, count):
    """Unpointed pairs of degree 0-4: a point against its rescaling by a
    random lambda, against a pointed disguise, against (A, B/mu) for a
    random mu, against an unrelated point of its degree or of another, and
    over Q against a sum of another signature or Hasse symbol; each side
    moved by a random SL_2 matrix."""
    kinds = ["rescaled", "disguised", "over-scaled", "unrelated", "degree"]
    if field is QQ:
        kinds += list(_Q_BASES)
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n = rng.randrange(0, 3 if kind in _Q_BASES else 5)  # the bases add 2
        f = random_point(field, n, rng)
        if kind == "rescaled":
            lam = (rng.choice([Fraction(1, 2), Fraction(-3, 2), 2, 5]) if field is QQ
                   else rng.randrange(1, field.p))
            g = scale_pointed(_disguised(f, rng), field.coerce(lam))
        elif kind == "disguised":
            g = _disguised(f, rng)
        elif kind == "over-scaled":
            g = _over_scaled(f, rng.choice([2, 3, 4, 9]) if field is QQ else rng.randrange(1, field.p))
        elif kind == "unrelated":
            g = random_point(field, n, rng)
        elif kind == "degree":
            g = random_point(field, rng.choice([m for m in range(5) if m != n]), rng)
        else:
            us, vs = _Q_BASES[kind]
            f, g = (oplus(monomial_sum(QQ, units), f) for units in (us, vs))
        yield _moebius(f, rng), _moebius(g, rng)


class TestOneUnpointedDecision:
    """unpointed_equiv and unpointed_connect both decide through
    rescaling_witness; the reference is the comparison of the full
    unpointed invariants."""

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
    def test_agrees_with_the_full_invariants(self, field, rng):
        from p1h.certify import Certificate, NotEquivalent, unpointed_connect, verify

        decided = []
        for u1, u2 in _unpointed_pairs(field, rng, 150):
            same = unpointed_invariant(u1) == unpointed_invariant(u2)
            assert unpointed_equiv(u1, u2) == same, (u1, u2)
            out = unpointed_connect(u1, u2)
            if same:
                assert isinstance(out, Certificate) and verify(out), (u1, u2)
                assert (out.source, out.target) == (u1, u2)
            else:
                assert isinstance(out, NotEquivalent), (u1, u2)
                assert out.reason == "unpointed invariants differ"
            decided.append(same)
        assert 20 <= sum(decided) <= len(decided) - 20, sum(decided)

    def test_both_callers_use_the_one_decision(self, monkeypatch, rng):
        from p1h import certify, classify

        calls = []
        decide = classify.rescaling_witness
        _patch_everywhere(monkeypatch, decide, lambda f1, f2: calls.append((f1, f2)) or decide(f1, f2))
        f = random_point(GF(7), 3, rng)
        u1, u2 = unpointed_of_pointed(f), _moebius(scale_pointed(f, 3), rng)
        assert unpointed_equiv(u1, u2)
        assert len(calls) == 1
        assert isinstance(certify.unpointed_connect(u1, u2), certify.Certificate)
        assert len(calls) == 2 and calls[0] == calls[1]

    def test_rescaled_twin_needs_no_factoring(self, monkeypatch):
        # X/6 (+) X/-10 (+) X/(15/7) against its lambda = 3/2 rescaling: the
        # witness takes the rescaling back to the first point itself
        from p1h import certify, classify, fields

        calls = []
        factor = fields.factorize
        _patch_everywhere(monkeypatch, factor, lambda m: calls.append(m) or factor(m))
        classify._pointed_invariant_cached.cache_clear()
        f = monomial_sum(QQ, (Fraction(6), Fraction(-10), Fraction(15, 7)))
        u1, u2 = unpointed_of_pointed(f), unpointed_of_pointed(scale_pointed(f, Fraction(3, 2)))
        assert unpointed_equiv(u1, u2)
        cert = certify.unpointed_connect(u1, u2)
        assert calls == []
        assert isinstance(cert, certify.Certificate) and certify.verify(cert)

    def test_wrong_witness_raises(self, monkeypatch):
        from p1h import classify

        f = x_over(GF(7), 1)
        monkeypatch.setattr(type(f.ring), "root", lambda self, a, k: 2)
        with pytest.raises(FieldError, match="rescaling witness 2 is wrong"):
            classify.rescaling_witness(f, x_over(GF(7), 2))


class TestPd:
    def test_degree_decides(self):
        p1 = mk_pd(X(QQ).shift(1), (const(QQ, 1), const(QQ, 1)))
        p2 = mk_pd(
            X(QQ) * X(QQ) + const(QQ, 1), (X(QQ), const(QQ, 1))
        )
        assert pd_equiv(p1, p2)

    def test_different_degrees(self):
        p1 = mk_pd(X(QQ), (const(QQ, 1), const(QQ, 1)))
        p2 = mk_pd(X(QQ).shift(1), (const(QQ, 1), const(QQ, 1)))
        assert not pd_equiv(p1, p2)

    def test_everything_matches_base_point(self, rng):
        F3 = GF(3)
        for _ in range(30):
            n = rng.randrange(1, 4)
            while True:
                A = Poly.make(F3, [rng.randrange(3) for _ in range(n)] + [1])
                Bs = [
                    Poly.make(F3, [rng.randrange(3) for _ in range(n)])
                    for _ in range(2)
                ]
                try:
                    p = mk_pd(A, Bs)
                    break
                except FieldError:
                    continue
            base = mk_pd(X(F3).shift(n - 1), (const(F3, 1), const(F3, 1)))
            assert pd_equiv(p, base)

    def test_cofactors_certify(self, rng):
        F5 = GF(5)
        for _ in range(40):
            n = rng.randrange(1, 4)
            try:
                p = mk_pd(
                    Poly.make(F5, [rng.randrange(5) for _ in range(n)] + [1]),
                    [
                        Poly.make(F5, [rng.randrange(5) for _ in range(n)])
                        for _ in range(3)
                    ],
                )
            except FieldError:
                continue
            total = p.A * p.cofactors[0]
            for B, c in zip(p.Bs, p.cofactors[1:]):
                total = total + B * c
            assert total == const(F5, 1)

    def test_non_unimodular_rejected(self):
        with pytest.raises(FieldError):
            mk_pd(X(QQ).shift(1), (X(QQ), X(QQ)))

    def test_d_must_be_at_least_two(self):
        with pytest.raises(FieldError):
            mk_pd(X(QQ), (const(QQ, 1),))
