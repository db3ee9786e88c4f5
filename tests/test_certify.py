"""Certificates: generation, exact verification, reversal, congruence."""
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from p1h.certify import (
    EXHAUSTED,
    Certificate,
    DiagMove,
    _coprime_split,
    _end_point,
    _represent,
    apply_move,
    NotEquivalent,
    PairStep,
    concat_certificates,
    connect,
    diag_chain,
    lift_chain_to_cert,
    move_matrix,
    normal_form_cert,
    pd_cert,
    reverse_certificate,
    unpointed_connect,
    verify,
)
from p1h.classify import PdPoint, mk_pd, pointed_equiv, pointed_invariant, unpointed_invariant
from p1h.fields import GF, QQ, FieldError, Rationals, factorize, is_prime
from p1h.bezout_hankel import SymMatrix
from p1h.poly import Poly, PolyRing, X, const, poly_divmod, poly_gcd, zero
from p1h.quadform import REAL_PLACE, hilbert_symbol
from p1h.ratmap import (
    PointedRat,
    cf_values,
    eval_path,
    identity_point,
    mk_pointed,
    mk_unpointed,
    monomial_sum,
    oplus,
    path_of_point,
    poly_point,
    scale_pointed,
    unpointed_of_pointed,
    x_over,
)

from conftest import all_points, dlog, random_point, run_optimized, solved_twin


class TestNormalForm:
    def test_degree_one_is_trivial(self):
        units, cert = normal_form_cert(x_over(QQ, Fraction(7)))
        assert units == (7,)
        assert cert.steps == ()
        assert verify(cert)

    def test_monomial_degree_two(self):
        f = poly_point(X(QQ).shift(1), Fraction(3))
        units, cert = normal_form_cert(f)
        assert verify(cert)
        assert len(cert.steps) >= 2
        assert pointed_invariant(cert.source) == pointed_invariant(cert.target)

    def test_leading_term_route(self):
        f = mk_pointed(
            X(QQ) * X(QQ) + X(QQ).scale(3) + const(QQ, 1), const(QQ, 2)
        )
        units, cert = normal_form_cert(f)
        assert verify(cert)
        assert cert.target == monomial_sum(QQ, units)

    def test_soundness_random(self, rng):
        for field in (QQ, GF(2), GF(3), GF(5)):
            for _ in range(25):
                f = random_point(field, rng.randrange(1, 4), rng)
                units, cert = normal_form_cert(f)
                assert verify(cert)
                assert cert.source == f
                assert cert.target == monomial_sum(field, units)
                assert pointed_invariant(f) == pointed_invariant(cert.target)


    def test_units_are_the_continued_fraction_values(self, rng):
        """Blocks of degree d give [1]*(d//2) + [b]*(d%2) + [-b^2]*(d//2),
        in block order; the decision reads the same values."""
        for field in (QQ, GF(3), GF(5)):
            for _ in range(15):
                f = identity_point(field)
                for d in rng.sample(range(1, 5), rng.randrange(1, 3)):
                    b = field.from_int(rng.choice([1, 2, -1, -2]))
                    cs = [rng.randrange(-2, 3) for _ in range(d)]
                    f = oplus(f, poly_point(Poly.make(field, cs + [1]), b))
                units, cert = normal_form_cert(f)
                assert units == cf_values(f)
                assert cert.target == monomial_sum(field, units)

    def test_units_disagreeing_with_values_is_a_field_error(self, monkeypatch):
        from p1h import certify

        f = poly_point(X(QQ).shift(2), Fraction(3))
        certify._normal_form_cert_cached.cache_clear()
        monkeypatch.setattr(certify, "cf_values", lambda f: (QQ.one,) * f.n)
        with pytest.raises(FieldError, match="continued-fraction values"):
            normal_form_cert(f)
        certify._normal_form_cert_cached.cache_clear()

    def test_wrong_blocks_or_gcd_raise_under_optimize(self):
        # python -O strips asserts: certificates that do not chain, blocks
        # that are not the point's, a gcd that is not 1 and a k[T] V
        # that is not 1/B mod A (solved when the pair is first read) must
        # still raise
        script = (
            "from p1h import certify, linalg\n"
            "from p1h.classify import mk_pd\n"
            "from p1h.fields import GF, FieldError\n"
            "from p1h.poly import Poly, PolyRing, X, const\n"
            "from p1h.ratmap import mk_pointed\n"
            "F3 = GF(3)\n"
            "def run(f):\n"
            "    try:\n"
            "        f()\n"
            "    except FieldError as exc:\n"
            "        print('raised:', exc)\n"
            "    else:\n"
            "        print('passed')\n"
            "f = mk_pointed(Poly.make(F3, [2, 0, 1]), Poly.make(F3, [0, 1]))\n"
            "g = mk_pointed(Poly.make(F3, [1, 0, 1]), Poly.make(F3, [2, 2]))\n"
            "cg = certify.normal_form_cert(g)[1]\n"
            "run(lambda: certify.concat_certificates(cg, cg))\n"
            "other = certify.Certificate('pointed', GF(5), (), cg.target, cg.target)\n"
            "run(lambda: certify.concat_certificates(cg, other))\n"
            "blocks = certify.cf_expand\n"
            "certify.cf_expand = lambda h: blocks(g)\n"
            "run(lambda: certify.normal_form_cert(f))\n"
            "xgcd = certify.poly_xgcd\n"
            "certify.poly_xgcd = lambda a, b: (X(F3), *xgcd(a, b)[1:])\n"
            "run(lambda: certify.pd_cert(mk_pd(X(F3).shift(1), (X(F3), const(F3, 1)))))\n"
            "kt = PolyRing(F3)\n"
            "lift = lambda p: p.map_coeffs(lambda c: const(F3, c), kt)\n"
            "linalg.inverse = lambda ring, M: [[ring.one] * len(M) for _ in M]\n"
            "run(lambda: mk_pointed(lift(f.A), lift(f.B)).V)\n"
        )
        assert run_optimized(script).splitlines() == [
            "raised: the first certificate does not end where the second starts",
            "raised: certificates of different kinds or fields",
            "raised: normal form units differ from the continued-fraction values",
            "raised: CRT moduli are not pairwise coprime",
            "raised: A does not divide 1 - B V: the solved V is not 1/B mod A",
        ]


class TestDiagChain:
    def test_equal_tuples(self):
        assert diag_chain(QQ, (1, 2), (1, 2)) == []

    def test_one_move_over_q(self):
        chain = diag_chain(QQ, (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 2)))
        assert chain is not EXHAUSTED
        assert len(chain) == 1
        mv = chain[0]
        # the witness (1, 1) realizes 2 = 1 + 1
        P = move_matrix(QQ, Fraction(1), Fraction(1), mv)
        M = [[sum(P[k][i] * (P[k][j] if k < 2 else 0) for k in range(2)) for j in range(2)] for i in range(2)]
        assert M == [[2, 0], [0, Fraction(1, 2)]]  # P^T diag(1, 1) P

    def test_moves_replay_exactly(self, rng):
        F5 = GF(5)
        for _ in range(40):
            n = rng.randrange(1, 4)
            us = tuple(rng.randrange(1, 5) for _ in range(n))
            vs = list(us)
            # scramble vs while keeping the product
            for _ in range(3):
                i = rng.randrange(n)
                j = rng.randrange(n)
                if i == j:
                    continue
                lam = rng.randrange(1, 5)
                vs[i] = F5.mul(vs[i], F5.mul(lam, lam))
                vs[j] = F5.div(vs[j], F5.mul(lam, lam))
            vs = tuple(vs)
            chain = diag_chain(F5, us, vs)
            assert chain is not EXHAUSTED
            cur = us
            from p1h.certify import apply_move

            for mv in chain:
                cur = apply_move(F5, cur, mv)
            assert cur == vs

    def test_determinant_obstruction(self):
        with pytest.raises(Exception):
            diag_chain(QQ, (Fraction(1),), (Fraction(2),))

    def test_wrong_witness_rejected(self):
        # 1*1^2 + 1*1^2 = 2, not 3: refused without relying on assert
        with pytest.raises(FieldError):
            move_matrix(QQ, Fraction(1), Fraction(1), DiagMove(0, Fraction(3), Fraction(1), Fraction(1)))
        with pytest.raises(FieldError):
            move_matrix(GF(7), 1, 2, DiagMove(0, 5, 1, 1))

    def test_q_fallback_when_pair_misses_target(self):
        # <1, 1> does not represent 3, so the sweep's first move does not
        # exist; <1, 1, -1> and <3, -3, 1/9> are both H + <1>, so a chain does
        us = (Fraction(1), Fraction(1), Fraction(-1))
        vs = (Fraction(3), Fraction(-3), Fraction(1, 9))
        assert _represent(QQ, us[0], us[1], vs[0]) is None
        chain = diag_chain(QQ, us, vs)
        assert chain is not EXHAUSTED
        cur = us
        for mv in chain:
            cur = apply_move(QQ, cur, mv)
        assert cur == vs
        assert verify(lift_chain_to_cert(QQ, us, chain))


def _random_units(field, n, rng):
    return tuple(rng.randrange(1, field.p) for _ in range(n))


def _hilbert_solvable(a, b, c):
    """a x^2 + b y^2 = c has a rational solution iff (a/c, b/c)_v = 1 at
    every place; only 2, the real place and primes of a, b, c can fail."""
    A, B = a / c, b / c
    primes = {2}
    for q in (A, B):
        primes |= set(factorize(abs(q.numerator * q.denominator)))
    return all(hilbert_symbol(A, B, v) == 1 for v in [REAL_PLACE] + sorted(primes))


def _one_move_q_pair(rng, n):
    """Points (X+a_1)/u_1 (+) ... (+) (X+a_n)/u_n for units one random SL_2
    move apart, each sum with fresh translations."""
    us = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
    while True:
        i = rng.randrange(n - 1)
        x, y = rng.choice([-1, 1]) * rng.randint(1, 3), rng.choice([-1, 1]) * rng.randint(1, 3)
        c = us[i] * x * x + us[i + 1] * y * y
        if c and c != us[i]:
            break
    vs = list(us)
    vs[i], vs[i + 1] = c, us[i] * us[i + 1] / c
    out = []
    for units in (us, vs):
        acc = identity_point(QQ)
        for u in units:
            acc = oplus(acc, mk_pointed(X(QQ) + const(QQ, rng.randint(-9, 9)), const(QQ, u)))
        out.append(acc)
    return out


class TestSearchFreeChains:
    @pytest.mark.parametrize("p", [3, 5, 7, 101, 211])
    def test_fp_sweep_is_short_and_replays(self, p, rng):
        F = GF(p)
        for n in range(1, 6):
            for _ in range(2):
                us = _random_units(F, n, rng)
                vs = list(_random_units(F, n, rng))
                prod_u = prod_v = 1
                for u in us:
                    prod_u = F.mul(prod_u, u)
                for v in vs[:-1]:
                    prod_v = F.mul(prod_v, v)
                vs[-1] = F.div(prod_u, prod_v)
                vs = tuple(vs)
                chain = diag_chain(F, us, vs)
                assert chain is not EXHAUSTED and len(chain) <= max(0, n - 1)
                cur = us
                for mv in chain:
                    cur = apply_move(F, cur, mv)
                assert cur == vs
                cert = lift_chain_to_cert(F, us, chain)
                assert verify(cert)
                assert cert.target == monomial_sum(F, vs)

    def test_q_witness_exact_iff_hilbert(self, rng):
        found = missing = 0
        for _ in range(1000):
            a, b, c = (
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12))
                for _ in range(3)
            )
            w = _represent(QQ, a, b, c)
            assert (w is not None) == _hilbert_solvable(a, b, c), (a, b, c)
            if w is not None:
                assert a * w[0] ** 2 + b * w[1] ** 2 == c
                found += 1
            else:
                missing += 1
        assert found > 50 and missing > 50

    def test_q_isotropic_and_definite_cases(self):
        F = Fraction
        for a, b, c in [(F(1), F(-1), F(7)), (F(2), F(-8), F(-5, 3)), (F(3, 2), F(-27, 2), F(1))]:
            x, y = _represent(QQ, a, b, c)  # -ab is a square: closed form
            assert a * x * x + b * y * y == c
        assert _represent(QQ, F(-1), F(-2), F(3)) is None  # negative definite
        x, y = _represent(QQ, F(-1), F(-2), F(-3))
        assert -x * x - 2 * y * y == -3
        assert _represent(QQ, F(1), F(1), F(3)) is None  # fails at 3
        x, y = _represent(QQ, F(1), F(1), F(5, 4))
        assert x * x + y * y == F(5, 4)

    @pytest.mark.parametrize("p, n", [(211, 3), (101, 4)])
    def test_connect_large_prime(self, p, n, rng):
        F = GF(p)
        for _ in range(2):
            f = random_point(F, n, rng)
            while True:
                g = random_point(F, n, rng)
                if g.res == f.res and g != f:
                    break
            t0 = time.perf_counter()
            cert = connect(f, g)
            assert isinstance(cert, Certificate) and verify(cert)
            # about 0.1-0.5 s on a 2-core VM; the search this replaced took
            # 21 s (F211) and over 300 s (F101 n=4)
            assert time.perf_counter() - t0 < 10.0

    def test_q_degree_three_one_move_pairs(self, rng):
        for _ in range(5):
            f, g = _one_move_q_pair(rng, 3)
            cert = connect(f, g)
            assert isinstance(cert, Certificate)
            assert verify(cert)
            assert cert.source == f and cert.target == g


# the probe pool of diagonal entries over Q
_Q_POOL = [Fraction(s * k) for k in (1, 2, 3, 5, 6, 7, 10, 11, 13) for s in (1, -1)]
_Q_POOL += [Fraction(1, 2), Fraction(-3, 5)]


@st.composite
def _isometric_q_pair(draw):
    """Diagonal tuples us, vs over Q whose monomial sums pointed_equiv calls
    equivalent; the last entry of vs makes the products agree."""
    n = draw(st.integers(3, 6))
    us = tuple(draw(st.lists(st.sampled_from(_Q_POOL), min_size=n, max_size=n)))
    head = draw(st.lists(st.sampled_from(_Q_POOL), min_size=n - 1, max_size=n - 1))
    vs = tuple(head + [math.prod(us) / math.prod(head)])
    assume(pointed_equiv(monomial_sum(QQ, us), monomial_sum(QQ, vs)))
    return us, vs


class TestQChains:
    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(_isometric_q_pair())
    def test_chain_is_constructed_and_replays(self, pair):
        us, vs = pair
        n = len(us)
        chain = diag_chain(QQ, us, vs)
        assert isinstance(chain, list) and len(chain) <= n * (n - 1) // 2
        cur = us
        for mv in chain:
            cur = apply_move(QQ, cur, mv)
        assert cur == vs
        if n <= 4:
            assert verify(lift_chain_to_cert(QQ, us, chain))

    def test_unpointed_degree_four(self):
        # a degree-4 pair the budgeted search gave up on
        f = monomial_sum(QQ, tuple(map(Fraction, (-7, Fraction(1, 2), -1, 13))))
        g = monomial_sum(QQ, tuple(map(Fraction, (5, -1, 2, Fraction(-91, 20)))))
        for u, w in [(f, g), (f, scale_pointed(g, Fraction(2)))]:
            cert = unpointed_connect(unpointed_of_pointed(u), unpointed_of_pointed(w))
            assert isinstance(cert, Certificate) and verify(cert)

    def test_forms_that_are_not_isometric_raise(self):
        # equal products, different signatures: no chain, and no EXHAUSTED
        with pytest.raises(FieldError):
            diag_chain(QQ, (Fraction(1), Fraction(1), Fraction(1)),
                       (Fraction(-1), Fraction(-1), Fraction(1)))

    def test_broken_isotropy_test_raises_under_optimize(self):
        # a representation test that always answers False (no tail) or True
        # (the walk leaves <1, 1>, which misses 3) breaks the placement
        # invariant: the chain builder raises, without asserts, instead of
        # returning a chain or EXHAUSTED; <1, 1, 1> = <3, 2, 6>
        script = (
            "from fractions import Fraction as F\n"
            "from p1h import certify\n"
            "from p1h.fields import QQ, FieldError\n"
            "for answer in (False, True):\n"
            "    certify.is_isotropic = lambda values: answer\n"
            "    certify._diag_chain_cached.cache_clear()\n"
            "    try:\n"
            "        certify.diag_chain(QQ, (F(1), F(1), F(1)), (F(3), F(2), F(1, 6)))\n"
            "    except FieldError:\n"
            "        print('raised')\n"
        )
        assert run_optimized(script).split() == ["raised", "raised"]


class TestLift:
    def test_empty_chain(self):
        cert = lift_chain_to_cert(QQ, (Fraction(1), Fraction(2)), [])
        assert cert.steps == () and verify(cert)

    def test_single_move_degree_two(self):
        us = (Fraction(1), Fraction(1))
        chain = diag_chain(QQ, us, (Fraction(2), Fraction(1, 2)))
        cert = lift_chain_to_cert(QQ, us, chain)
        assert verify(cert)
        assert cert.source == monomial_sum(QQ, us)
        assert cert.target == monomial_sum(QQ, (Fraction(2), Fraction(1, 2)))

    def test_embedded_in_degree_three(self):
        us = (Fraction(1), Fraction(1), Fraction(3))
        chain = [DiagMove(0, Fraction(2), Fraction(1), Fraction(1))]
        cert = lift_chain_to_cert(QQ, us, chain)
        assert verify(cert)
        assert cert.target == monomial_sum(QQ, (Fraction(2), Fraction(1, 2), Fraction(3)))


class TestConnect:
    def test_reflexive_empty(self, rng):
        f = random_point(QQ, 2, rng)
        cert = connect(f, f)
        assert isinstance(cert, Certificate) and cert.steps == ()
        assert verify(cert)

    def test_structurally_equal_sum(self):
        s = oplus(x_over(QQ, 1), x_over(QQ, 1))
        t = mk_pointed(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))
        cert = connect(s, t)
        assert isinstance(cert, Certificate)
        assert verify(cert)

    def test_not_equivalent(self):
        out = connect(x_over(QQ, 1), x_over(QQ, 2))
        assert isinstance(out, NotEquivalent)
        assert "resultant" in out.reason

    def test_translation_certificates(self, rng):
        from p1h.ratmap import ga_act

        for field in (QQ, GF(3)):
            for _ in range(10):
                f = random_point(field, rng.randrange(1, 3), rng)
                g = ga_act(field.from_int(rng.randrange(1, 3)), f)
                cert = connect(f, g)
                assert isinstance(cert, Certificate)
                assert verify(cert)

    def test_complete_over_f3_degree_two(self):
        # connect succeeds exactly on the equivalent pairs (all of them)
        from p1h.classify import pointed_equiv

        pts = all_points(GF(3), 2)
        for i, f in enumerate(pts):
            for g in pts[i + 1 :]:
                cert = connect(f, g)
                if pointed_equiv(f, g):
                    assert isinstance(cert, Certificate)
                    assert verify(cert)
                else:
                    assert isinstance(cert, NotEquivalent)


class TestVerify:
    def test_polynomial_to_leading_term_path(self):
        # (X^n + T a X + T b)/c is a valid single-step certificate
        kt = PolyRing(QQ)
        T = Poly.make(QQ, [0, 1])
        A = Poly.make(kt, [T.scale(2), T.scale(3), Poly.make(QQ, [0]), Poly.make(QQ, [1])])
        step = mk_pointed(A, Poly.make(kt, [Poly.make(QQ, [5])]))
        cert = Certificate(
            "pointed", QQ, (step,), eval_path(step, 0), eval_path(step, 1)
        )
        assert verify(cert)

    def test_monomial_denominator_path(self):
        kt = PolyRing(GF(5))
        T = Poly.make(GF(5), [0, 1])
        A = Poly.make(kt, [Poly.make(GF(5), [])] * 3 + [Poly.make(GF(5), [1])])
        B = Poly.make(kt, [Poly.make(GF(5), [2]), T, T.scale(3)])
        step = mk_pointed(A, B)  # X^3 / (3T X^2 + T X + 2)
        cert = Certificate("pointed", GF(5), (step,), eval_path(step, 0), eval_path(step, 1))
        assert verify(cert)

    def test_nonconstant_resultant_rejected(self):
        kt = PolyRing(QQ)
        T = Poly.make(QQ, [0, 1])
        # (X^2 + T)/X has resultant T: not a homotopy; bypass the validating
        # constructor to exercise the verifier
        A = Poly.make(kt, [T, Poly.make(QQ, []), Poly.make(QQ, [1])])
        B = Poly.make(kt, [Poly.make(QQ, []), Poly.make(QQ, [1])])
        bogus = PointedRat(kt, A, B, None)
        src = mk_pointed(X(QQ) * X(QQ) - const(QQ, 1), X(QQ))
        cert = Certificate("pointed", QQ, (bogus,), src, src)
        res = verify(cert)
        assert not res
        assert "non-constant resultant" in res.reason and res.step == 0

    def test_shuffled_chain_rejected(self, rng):
        f = random_point(GF(3), 2, rng)
        g = None
        from p1h.classify import pointed_equiv

        for cand in all_points(GF(3), 2):
            if cand != f and pointed_equiv(f, cand):
                g = cand
                break
        cert = connect(f, g)
        assert isinstance(cert, Certificate) and len(cert.steps) >= 2
        shuffled = Certificate(
            cert.kind, cert.field, cert.steps[::-1], cert.source, cert.target
        )
        res = verify(shuffled)
        assert not res and "mismatch" in res.reason

    def test_wrong_target_rejected(self, rng):
        f = random_point(GF(5), 1, rng)
        cert = Certificate("pointed", GF(5), (), f, x_over(GF(5), 1))
        assert not verify(cert) or f == x_over(GF(5), 1)

    def test_degree_zero_steps_keep_b_zero(self):
        """At degree 0 a step's B (each B_i for pd) must vanish: the chain
        1/T, 1/(1-T) from 1/0 back to 1/0 would pass through 1/1, which is
        not a point."""
        F3 = GF(3)
        kt = PolyRing(F3)
        T, one_minus_T = (Poly.make(kt, [Poly.make(F3, c)]) for c in ([0, 1], [1, 2]))
        one, o = const(kt, kt.one), zero(kt)
        src = identity_point(F3)
        steps = tuple(PairStep(kt, 0, one, B) for B in (T, one_minus_T))
        res = verify(Certificate("pointed", F3, steps, src, src))
        assert not res and res.step == 0
        pd_src = mk_pd(const(F3, 1), [zero(F3), zero(F3)])
        pd_steps = tuple(PdPoint(kt, 2, one, (B, o), (one, o, o)) for B in (T, one_minus_T))
        res = verify(Certificate("pd", F3, pd_steps, pd_src, pd_src))
        assert not res and res.step == 0

    def test_loaded_steps_are_checked_once_and_never_rebuilt(self, monkeypatch):
        """Loading and verifying takes one resultant per step; only the source
        and target are built as points, by one pass each: one remainder
        sequence for a pointed point (it gives both the resultant and the
        Bezout pair), one resultant for an unpointed one."""
        from collections import Counter

        from p1h import certify, ratmap, serial

        F3 = GF(3)
        f = mk_pointed(X(F3) * X(F3) - const(F3, 1), X(F3))
        g = mk_pointed(X(F3) * X(F3) + const(F3, 1), Poly.make(F3, [2, 2]))
        u1 = mk_unpointed(F3, [0, 0, 1], [1, 0, 1])
        u2 = mk_unpointed(F3, [0, 1, 2], [1, 1, 2])
        calls = Counter()
        for module, name, key in ((ratmap, "remainder_sequence", "sequence"),
                                  (ratmap, "bezout_pair", "bezout_pair"),
                                  (ratmap, "resultant_nn", "point_resultant"),
                                  (certify, "resultant_nn", "step_resultant"),
                                  (ratmap, "eval_path", "eval_path")):
            def spy(*args, _orig=getattr(module, name), _key=key):
                calls[_key] += 1
                return _orig(*args)

            monkeypatch.setattr(module, name, spy)
        for cert, ends in ((connect(f, g), {"sequence": 2}),
                           (unpointed_connect(u1, u2), {"point_resultant": 2})):
            assert len(cert.steps) >= 2
            data = serial.certificate_to_json(cert)
            calls.clear()
            assert verify(serial.certificate_from_json(data))
            assert calls == Counter(step_resultant=len(cert.steps), **ends)
            assert verify(reverse_certificate(serial.certificate_from_json(data)))


def oplus_constant(cert: Certificate, g: PointedRat, side: str) -> Certificate:
    """Sum a pointed certificate with the constant path at g on one side."""
    field = cert.field
    gpath = path_of_point(g, PolyRing(field))
    if side == "right":
        steps = tuple(oplus(s, gpath) for s in cert.steps)
        src = oplus(cert.source, g)
        tgt = oplus(cert.target, g)
    else:
        steps = tuple(oplus(gpath, s) for s in cert.steps)
        src = oplus(g, cert.source)
        tgt = oplus(g, cert.target)
    return Certificate("pointed", field, steps, src, tgt)


class TestReversalAndCongruence:
    def test_reversal(self, rng):
        for _ in range(10):
            f = random_point(GF(3), 2, rng)
            units, cert = normal_form_cert(f)
            rev = reverse_certificate(cert)
            assert verify(rev)
            assert rev.source == cert.target and rev.target == cert.source

    def test_oplus_congruence(self, rng):
        for _ in range(10):
            f = random_point(QQ, 2, rng)
            g = random_point(QQ, rng.randrange(1, 3), rng)
            units, cert = normal_form_cert(f)
            for side in ("right", "left"):
                summed = oplus_constant(cert, g, side)
                assert verify(summed)

    def test_concat(self, rng):
        f = random_point(GF(3), 2, rng)
        units, cert = normal_form_cert(f)
        rt = concat_certificates(cert, reverse_certificate(cert))
        assert verify(rt)
        assert rt.source == f and rt.target == f


class TestUnpointedConnect:
    def test_lambda_two_witness(self):
        u1 = unpointed_of_pointed(x_over(QQ, 1))
        u2 = unpointed_of_pointed(x_over(QQ, 4))
        cert = unpointed_connect(u1, u2)
        assert isinstance(cert, Certificate)
        assert verify(cert)

    def test_moebius_translate(self):
        u = mk_unpointed(QQ, [1, 0], [0, 1])  # the function 1/X
        f = unpointed_of_pointed(x_over(QQ, -1))
        cert = unpointed_connect(u, f)
        assert isinstance(cert, Certificate) and verify(cert)

    def test_not_equivalent(self):
        u1 = unpointed_of_pointed(x_over(QQ, 1))
        u2 = unpointed_of_pointed(x_over(QQ, 2))
        assert isinstance(unpointed_connect(u1, u2), NotEquivalent)

    def test_wrong_rescaling_witness_raises(self, monkeypatch):
        # X/1 and X/4 are unpointed-equivalent by lambda = 2; lambda = 3 takes
        # X/4 to X/(4/9), which is not pointed-equivalent to X/1
        from p1h import certify

        u1 = unpointed_of_pointed(x_over(QQ, 1))
        u2 = unpointed_of_pointed(x_over(QQ, 4))
        monkeypatch.setattr(Rationals, "root", lambda self, a, k: self.coerce(3))
        with pytest.raises(FieldError, match="rescaling witness 3"):
            unpointed_connect(u1, u2)
        script = (
            "from p1h import certify\n"
            "from p1h.fields import QQ, FieldError, Rationals\n"
            "from p1h.ratmap import unpointed_of_pointed, x_over\n"
            "Rationals.root = lambda self, a, k: self.coerce(3)\n"
            "try:\n"
            "    print(certify.unpointed_connect(unpointed_of_pointed(x_over(QQ, 1)),\n"
            "                                    unpointed_of_pointed(x_over(QQ, 4))))\n"
            "except FieldError as exc:\n"
            "    print('raised:', exc)\n"
        )
        assert run_optimized(script).startswith("raised: rescaling witness 3 is wrong")

    def test_f5_random(self, rng):
        from p1h.classify import unpointed_equiv

        F5 = GF(5)
        pool = []
        for _ in range(12):
            f = random_point(F5, rng.randrange(1, 3), rng)
            pool.append(unpointed_of_pointed(f))
        for u1 in pool[:6]:
            for u2 in pool[6:]:
                result = unpointed_connect(u1, u2)
                if unpointed_equiv(u1, u2):
                    assert isinstance(result, Certificate)
                    assert verify(result)
                else:
                    assert isinstance(result, NotEquivalent)

    def test_degree_zero_interpolation_step(self):
        import json

        from p1h import serial

        # the constants 1/2 and 3/1 are joined by one straight-line step
        u1, u2 = mk_unpointed(QQ, [1], [2]), mk_unpointed(QQ, [3], [1])
        cert = unpointed_connect(u1, u2)
        assert isinstance(cert, Certificate) and len(cert.steps) == 1
        text = json.dumps(serial.certificate_to_json(cert))
        loaded = serial.certificate_from_json(json.loads(text))
        assert loaded == cert and verify(loaded)

    def test_degree_zero_same_projective_point(self):
        F5 = GF(5)
        u1, u2 = mk_unpointed(F5, [1], [2]), mk_unpointed(F5, [3], [1])
        cert = unpointed_connect(u1, u2)
        assert isinstance(cert, Certificate) and cert.steps == ()
        assert verify(cert)

    def test_degree_zero_step_through_the_zero_vector_rejected(self):
        # (A, B) = (T, T) is the point [1 : 1] except at T = 0, where it vanishes
        F3 = GF(3)
        kt = PolyRing(F3)
        T = Poly.make(kt, [X(F3)])
        u = mk_unpointed(F3, [1], [1])
        res = verify(Certificate("unpointed", F3, (PairStep(kt, 0, T, T),), u, u))
        assert not res and res.step == 0
        assert res.reason == "coefficient vector vanishes along the path at step 0"

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_fp_witness_exactly_when_classes_agree(self, p):
        F = GF(p)
        for n in range(1, 5):
            d = math.gcd(2 * n, p - 1)
            for r1 in F.units():
                for r2 in F.units():
                    lam = F.root(F.div(r2, r1), 2 * n)
                    if (dlog(F, r2) - dlog(F, r1)) % d == 0:
                        assert r1 * pow(lam, 2 * n, p) % p == r2
                    else:
                        assert lam is None


class TestLambdaWitnessQ:
    @staticmethod
    def _by_factoring(ratio, n):
        """The witness from the prime factorizations of ratio's parts."""
        lam = Fraction(1)
        for part, sign in ((ratio.numerator, 1), (ratio.denominator, -1)):
            for p, e in factorize(part).items():
                if e % (2 * n):
                    return None
                lam *= Fraction(p) ** (sign * (e // (2 * n)))
        return lam

    def test_agrees_with_factoring(self, rng):
        for _ in range(500):
            n = rng.randrange(1, 4)
            base = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
            extra = Fraction(rng.choice([1, 1, 2, 3, 4, 9, 12]), rng.choice([1, 1, 2, 4, 8]))
            r1 = Fraction(rng.choice([1, -1]) * rng.randrange(1, 30), rng.randrange(1, 30))
            r2 = r1 * base ** (2 * n) * extra * rng.choice([1, 1, 1, -1])
            lam = QQ.root(r2 / r1, 2 * n)
            assert lam == (None if r2 / r1 < 0 else self._by_factoring(r2 / r1, n))
            if lam is not None:
                assert lam > 0 and r1 * lam ** (2 * n) == r2

    def test_none_on_non_powers(self):
        assert QQ.root(Fraction(2) / Fraction(1), 2) is None
        assert QQ.root(Fraction(4, 3) / Fraction(1), 2) is None
        assert QQ.root(Fraction(16) / Fraction(1), 4) == 2
        assert QQ.root(Fraction(8) / Fraction(1), 4) is None
        assert QQ.root(Fraction(-3) / Fraction(3), 2) is None
        assert QQ.root(Fraction(2 * (10**20 + 1) ** 2) / Fraction(2), 2) == 10**20 + 1

    def test_large_prime_powers_need_no_factoring(self, monkeypatch):
        import time

        from p1h import fields

        p = next(x for x in range(10**11 + 12345, 10**12) if is_prime(x))
        q = next(x for x in range(3 * 10**11 + 6789, 10**12) if is_prime(x))
        monkeypatch.setattr(fields, "factorize", lambda m: pytest.fail("factorize called"))
        for n in (1, 2, 3):
            t0 = time.perf_counter()
            assert QQ.root(Fraction(5 * (p * q) ** (2 * n), q ** (2 * n)) / Fraction(5), 2 * n) == p
            assert QQ.root(Fraction((p * q) ** (2 * n) * 2) / Fraction(1), 2 * n) is None
            assert time.perf_counter() - t0 < 0.1


class TestGeneratedStepsAreSolvedPoints:
    @pytest.mark.parametrize("field", (GF(3), GF(5), GF(101), QQ), ids=str)
    def test_normal_form_and_lift_steps(self, field, rng):
        steps = []
        for _ in range(5):
            f = random_point(field, rng.randrange(2, 4), rng)
            us, cert = normal_form_cert(f)
            steps += cert.steps
            # one move (u_0, u_1) -> (c, u_0 u_1 / c) with c = u_0 x^2 + u_1 y^2
            x, y = field.coerce(rng.randrange(1, 4)), field.coerce(rng.randrange(1, 4))
            c = field.add(field.mul(us[0], field.mul(x, x)), field.mul(us[1], field.mul(y, y)))
            if field.is_zero(c):
                continue
            move = DiagMove(0, c, x, y)
            steps += lift_chain_to_cert(field, us, (move,)).steps
        assert len(steps) > 5
        for step in steps:
            got, solved = solved_twin(step)
            assert got == solved

    @pytest.mark.parametrize("field", (GF(3), GF(5), GF(101), QQ), ids=str)
    def test_f2_iso_inv_paths(self, field, rng):
        from p1h.bezout_hankel import f2_iso_inv
        from p1h.quadform import oplog_to_path

        kt = PolyRing(field)
        for _ in range(4):
            a, b = (field.coerce(rng.choice([1, 2, -1, -2])) for _ in range(2))
            x = field.coerce(rng.randrange(-3, 4))
            S = oplog_to_path(SymMatrix.diagonal(field, (a, b)), [("add", 0, 1, x)])
            for t in (kt.zero, Poly.make(field, [rng.randrange(-3, 4), 1])):
                G = f2_iso_inv(S, t)
                got, solved = solved_twin(G)
                assert got == solved


class TestGenerationSolvesOnce:
    def test_connect_solves_only_in_psi(self, monkeypatch):
        """connect builds its k[T] points from pairs in hand, and each SL_2
        move runs the degree-2 chart inverse (psi_2 in closed form) once:
        the general psi_n never runs, no k[T] Bezout solve runs at all, and
        no endpoint is rebuilt by eval_path."""
        import importlib
        from collections import Counter

        from p1h import bezout_hankel, certify, ratmap

        poly = importlib.import_module("p1h.poly")  # p1h.poly is also a function
        F5 = GF(5)
        f = mk_pointed(Poly.make(F5, [1, 4, 4, 1]), Poly.make(F5, [1, 2, 4]))
        g = mk_pointed(Poly.make(F5, [3, 3, 3, 1]), Poly.make(F5, [4, 3, 1]))
        calls = Counter()
        kt_pair = poly._bezout_pair_kt
        monkeypatch.setattr(poly, "_bezout_pair_kt",
                            lambda *a: calls.update(["kt_pair"]) or kt_pair(*a))
        chart = certify.f2_iso_inv
        monkeypatch.setattr(certify, "f2_iso_inv",
                            lambda *a: calls.update(["chart"]) or chart(*a))
        psi = bezout_hankel.psi_n
        monkeypatch.setattr(bezout_hankel, "psi_n", lambda *a: calls.update(["psi"]) or psi(*a))
        evp = ratmap.eval_path
        spy_eval = lambda *a: calls.update(["eval_path"]) or evp(*a)
        monkeypatch.setattr(ratmap, "eval_path", spy_eval)
        monkeypatch.setattr(certify, "eval_path", spy_eval, raising=False)
        for cache in (certify._normal_form_cert_cached, certify._diag_chain_cached,
                      certify._lift_chain_cached):
            cache.cache_clear()
        cert = connect(f, g)
        assert len(diag_chain(F5, normal_form_cert(f)[0], normal_form_cert(g)[0])) == 2
        assert calls["chart"] == 2 and calls["psi"] == 0
        assert calls["kt_pair"] == 0 and calls["eval_path"] == 0
        assert verify(cert)


class TestSlidesAreStraightLines:
    """Each block slides along a straight line, and a normal-form round is
    the k[T] sum of every block's path: checked against the per-block route
    (conftest.reference_normal_form_steps), with the certificate ends read
    off the steps."""

    @staticmethod
    def _block_point(field, rng):
        """A sum of random blocks P/b of degree 1-4, total degree 1-8."""
        f = identity_point(field)
        while f.n < 8:
            d = rng.randrange(1, min(4, 8 - f.n) + 1)
            if field == QQ:
                cs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(d)]
                b = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            else:
                cs = [rng.randrange(field.p) for _ in range(d)]
                b = rng.randrange(1, field.p)
            f = oplus(f, poly_point(Poly.make(field, cs + [1]), b))
            if rng.random() < 0.3:
                break
        return f

    @pytest.mark.parametrize("field", (GF(2), GF(3), GF(5), GF(101), QQ), ids=str)
    def test_steps_and_ends_match_the_reference(self, field, rng):
        from conftest import reference_normal_form_steps

        slides = splits = 0
        for _ in range(12):
            f = self._block_point(field, rng) if rng.random() < 0.7 else random_point(
                field, rng.randrange(1, 9 if field != QQ else 6), rng)
            units, cert = normal_form_cert(f)
            rounds = reference_normal_form_steps(f)
            assert len(cert.steps) == len(rounds)
            for got, (kind, ref, start, end) in zip(cert.steps, rounds):
                slides, splits = slides + (kind == "slide"), splits + (kind == "split")
                assert verify(Certificate("pointed", field, tuple(ref), start, end))
                for t, want in ((0, start), (1, end)):
                    p = _end_point(got, t)
                    assert (p.A, p.B, p.U, p.V, p.res) == (want.A, want.B, want.U, want.V, want.res)
            assert cert.source == f and cert.target == monomial_sum(field, units)
            assert verify(cert)
            # a chain of one to three moves, each (u_i, u_i+1) -> (c, u_i u_i+1 / c)
            chain, end = [], units
            for _ in range(rng.randrange(1, 4) if len(units) > 1 else 0):
                i = rng.randrange(len(end) - 1)
                x, y = (field.coerce(rng.randrange(0, 4)) for _ in range(2))
                c = field.add(field.mul(end[i], field.mul(x, x)), field.mul(end[i + 1], field.mul(y, y)))
                if not field.is_zero(c):
                    chain.append(DiagMove(i, c, x, y))
                    end = apply_move(field, end, chain[-1])
            lift = lift_chain_to_cert(field, units, tuple(chain))
            assert lift.source == monomial_sum(field, units)
            assert lift.target == monomial_sum(field, end)
            assert verify(lift)
        assert slides >= 12 and splits >= 1

    def test_degree_one_blocks_run_one_kt_sum(self, monkeypatch, rng):
        """k blocks (X + a)/b slide in one step, one k[T] sum of k paths: k - 1
        k[T] oplus calls and no field sums."""
        from p1h import certify, ratmap

        F7 = GF(7)
        calls = {"field": 0, "kt": 0}
        real = ratmap.oplus

        def oplus(f, g):
            calls["kt" if f.is_path else "field"] += 1
            return real(f, g)

        for k in (10, 20, 40):
            f = ratmap.oplus_all(F7, [poly_point(Poly.make(F7, [rng.randrange(1, 7), 1]), rng.randrange(1, 7))
                                      for _ in range(k)])
            assert [P.degree for P, _ in ratmap.cf_expand(f)] == [1] * k
            calls.update(field=0, kt=0)
            with monkeypatch.context() as m:
                m.setattr(ratmap, "oplus", oplus)
                m.setattr(certify, "oplus", oplus)
                certify._normal_form_cert_cached.cache_clear()
                cert = normal_form_cert(f)[1]
                certify._normal_form_cert_cached.cache_clear()
            assert len(cert.steps) == 1 and calls == {"field": 0, "kt": k - 1}
            if k == 10:  # the step's T-degree is k, and its k[T] resultant grows steeply with k
                assert verify(cert)

    def test_connect_builds_no_monomial_sum(self, monkeypatch):
        from p1h import certify

        F5 = GF(5)  # TestGenerationSolvesOnce's pair: 3 + 2 slides, two moves
        f = mk_pointed(Poly.make(F5, [1, 4, 4, 1]), Poly.make(F5, [1, 2, 4]))
        g = mk_pointed(Poly.make(F5, [3, 3, 3, 1]), Poly.make(F5, [4, 3, 1]))
        calls = []
        real = certify.monomial_sum
        monkeypatch.setattr(certify, "monomial_sum", lambda *a: calls.append(a) or real(*a))
        for cache in (certify._normal_form_cert_cached, certify._normal_form_cert_reversed,
                      certify._diag_chain_cached, certify._lift_chain_cached):
            cache.cache_clear()
        cert = connect(f, g)
        assert calls == [] and verify(cert)

    def test_chart_re_proves_nothing(self, monkeypatch):
        from p1h import bezout_hankel

        calls = []
        for name in ("laurent_expand", "pointed_from_pair"):
            monkeypatch.setattr(bezout_hankel, name, lambda *a, name=name: calls.append(name))
        for field in (GF(5), QQ):
            S = SymMatrix.make(field, [[1, 2], [2, 3]])
            f = bezout_hankel.f2_iso_inv(S, 1)
            assert (f.A * f.U + f.B * f.V).coeffs == (field.one,)
        assert calls == []


class TestStepChecksLiveInVerify:
    """Generation checks no k[T] step: a wrong normal-form round (a k[T] sum
    built by oplus_all) or a wrong lift step (a k[T] sum built inside
    _embed) is refused by verify, and the CLI writes nothing."""

    F5 = GF(5)
    F_TEXT, G_TEXT = "(X^3+4*X^2+4*X+1)/(4*X^2+2*X+1)", "(X^3+3*X^2+3*X+3)/(X^2+3*X+4)"
    # equivalent to G_TEXT; blocks (X+1)/3 and X^2/2: slide, split, slide
    H_TEXT = "(X^3+X^2+1)/(3*X^2)"

    @staticmethod
    def _bump(F):
        """F with T(1-T) added to B's constant term: the endpoints stay,
        the resultant does not."""
        field = F.ring.base
        bump = const(F.ring, Poly.make(field, [0, 1, field.neg(field.one)]))
        return PointedRat(F.ring, F.A, F.B + bump, F.res, _pair=F._pair)

    @staticmethod
    def _clear_caches():
        from p1h import certify

        for cache in (certify._normal_form_cert_cached, certify._normal_form_cert_reversed,
                      certify._diag_chain_cached, certify._lift_chain_cached):
            cache.cache_clear()

    def _perturb_round(self, monkeypatch, bad_call):
        """Perturb the `bad_call`-th normal-form round, a k[T] oplus_all."""
        from p1h import certify

        real_oplus_all = certify.oplus_all
        seen = {"round": -1}

        def oplus_all(ring, points):
            out = real_oplus_all(ring, points)
            if not isinstance(ring, PolyRing):
                return out
            seen["round"] += 1
            return self._bump(out) if seen["round"] == bad_call else out

        monkeypatch.setattr(certify, "oplus_all", oplus_all)
        self._clear_caches()

    def _perturb_embed(self, monkeypatch, bad_call):
        """Perturb every k[T] sum of the `bad_call`-th _embed call."""
        from p1h import certify

        real_embed, real_oplus = certify._embed, certify.oplus
        seen = {"embed": -1}

        def embed(*args):
            seen["embed"] += 1
            return real_embed(*args)

        def oplus(f, g):
            out = real_oplus(f, g)
            return self._bump(out) if out.is_path and seen["embed"] == bad_call else out

        monkeypatch.setattr(certify, "_embed", embed)
        monkeypatch.setattr(certify, "oplus", oplus)
        self._clear_caches()

    def teardown_method(self):
        self._clear_caches()

    def test_verify_names_the_perturbed_step(self, monkeypatch):
        from p1h.expr import parse_ratfun

        f = parse_ratfun(self.H_TEXT, self.F5)
        assert len(normal_form_cert(f)[1].steps) >= 2
        for bad in (0, 1):
            self._perturb_round(monkeypatch, bad)
            cert = normal_form_cert(f)[1]
            res = verify(cert)
            assert not res and res.step == bad
            assert res.reason == f"non-constant resultant at step {bad}"

    def test_verify_names_the_perturbed_lift_step(self, monkeypatch):
        from p1h.expr import parse_ratfun

        f, g = parse_ratfun(self.F_TEXT, self.F5), parse_ratfun(self.G_TEXT, self.F5)
        first = len(normal_form_cert(f)[1].steps)  # f's blocks all have degree 1: no split
        self._perturb_embed(monkeypatch, 0)
        res = verify(connect(f, g))
        assert not res and res.step == first
        assert res.reason == f"non-constant resultant at step {first}"

    def test_cli_refuses_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        from p1h.cli import main

        out = tmp_path / "cert.json"
        argv = ["certify", "--field", "F5", self.H_TEXT, self.G_TEXT, "--out", str(out)]
        self._perturb_round(monkeypatch, 1)
        assert main(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: generated certificate fails verification: " \
                      "non-constant resultant at step 1\n"
        monkeypatch.undo()
        self.teardown_method()
        assert main(argv) == 0 and out.exists()


def _random_pd_point(field, d, rng):
    """A unimodular point whose A is a product of random monic factors
    and whose B_j are often zero; also whether two factors of A share a
    divisor (then A has a repeated irreducible factor)."""
    while True:
        n = rng.randrange(1, 6)
        A, repeated = const(field, 1), False
        while A.degree < n:
            k = rng.randrange(1, n - A.degree + 1)
            f = Poly.make(field, [rng.randrange(field.p) for _ in range(k)] + [1])
            repeated |= poly_gcd(A, f).degree > 0
            A = A * f
        Bs = [
            zero(field)
            if rng.random() < 0.25
            else Poly.make(field, [rng.randrange(field.p) for _ in range(A.degree)])
            for _ in range(d)
        ]
        try:
            return mk_pd(A, Bs), repeated
        except FieldError:
            continue


class TestCoprimeSplit:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_random_points(self, p, d, rng):
        F = GF(p)
        one = const(F, 1)
        repeats = zero_slots = 0
        for _ in range(80):
            pt, repeated = _random_pd_point(F, d, rng)
            repeats += repeated
            zero_slots += any(B.is_zero() for B in pt.Bs)
            pieces = _coprime_split(pt.A, pt.Bs)
            product = one
            for Q, j in pieces:
                assert Q.is_monic() and Q.degree > 0
                # B_j is a unit mod Q, and every irreducible of Q divides
                # each earlier B_i: j is the first slot that is a unit there
                assert poly_gcd(pt.Bs[j], Q) == one
                for B in pt.Bs[:j]:
                    assert poly_divmod(_power(B, Q.degree), Q)[1].is_zero()
                product = product * Q
            assert product == pt.A
            for (Q1, _), (Q2, _) in itertools.combinations(pieces, 2):
                assert poly_gcd(Q1, Q2) == one
        assert repeats and zero_slots

    def test_repeated_factor_split(self):
        F3 = GF(3)
        x, one = X(F3), const(F3, 1)
        # A = X^3 (X+1)^2: B_0 = X vanishes on X, B_1 = 1 takes it
        A = x * x * x * (x + one) * (x + one)
        assert _coprime_split(A, (x, one)) == [((x + one) * (x + one), 0), (x * x * x, 1)]


def _power(B, k):
    out = const(B.ring, 1)
    for _ in range(k):
        out = out * B
    return out


class TestPdCert:
    def test_base_point(self):
        F3 = GF(3)
        p = mk_pd(X(F3).shift(1), (const(F3, 1), const(F3, 1)))
        cert = pd_cert(p)
        assert verify(cert)
        assert cert.steps == ()

    def test_interpolation_route(self):
        F3 = GF(3)
        p = mk_pd(X(F3).shift(1), (X(F3), const(F3, 1)))
        cert = pd_cert(p)
        assert verify(cert)
        assert cert.target.A == X(F3).shift(1)
        assert all(B == const(F3, 1) for B in cert.target.Bs)

    def test_crt_route(self):
        # A = P^2 with B_1 a non-unit modulo P and B_2 a unit: the global
        # unit has to be assembled through the remainder decomposition
        F3 = GF(3)
        P = X(F3) + const(F3, 1)
        p = mk_pd(P * P, (P.scale(2), const(F3, 2)))
        cert = pd_cert(p)
        assert verify(cert)

    def test_multi_factor(self):
        F5 = GF(5)
        A = X(F5) * (X(F5) + const(F5, 1))
        p = mk_pd(A, (X(F5), X(F5) + const(F5, 1)))
        cert = pd_cert(p)
        assert verify(cert)

    def test_hand_built_point(self):
        # PdPoint built directly, bypassing mk_pd's unimodularity check
        F3 = GF(3)
        x, one = X(F3), const(F3, 1)
        # X^2 * 1 + (X + 1)(1 - X) = 1
        good = PdPoint(F3, 2, x * x, (x + one, zero(F3)), (one, one - x, zero(F3)))
        assert verify(pd_cert(good))
        bad = PdPoint(F3, 2, x * x, (x, zero(F3)), (zero(F3),) * 3)
        with pytest.raises(FieldError, match="unit ideal"):
            pd_cert(bad)

    def test_rationals_unsupported(self):
        p = mk_pd(X(QQ), (const(QQ, 1), const(QQ, 1)))
        with pytest.raises(Exception, match="unsupported|prime"):
            pd_cert(p)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("p", [3, 5])
    def test_seeded_points_verify(self, p, d, rng):
        F = GF(p)
        one = const(F, 1)
        split = 0
        def monic(k):
            return Poly.make(F, [rng.randrange(p) for _ in range(k)] + [1])

        for i in range(40):
            while True:
                n = rng.randrange(1, 4) if i % 2 else 3
                A = monic(n)
                Bs = [Poly.make(F, [rng.randrange(p) for _ in range(n)]) for _ in range(d)]
                if i % 2 == 0:
                    # A = P Q with P dividing B_1: W is assembled from pieces
                    P = monic(rng.randrange(1, 3))
                    A = P * monic(n - P.degree)
                    Bs[0] = P * Poly.make(F, [rng.randrange(p) for _ in range(n - P.degree)])
                try:
                    pt = mk_pd(A, Bs)
                    break
                except FieldError:
                    continue
            cert = pd_cert(pt)
            assert verify(cert), verify(cert).reason
            assert cert.target.A == X(F).shift(n - 1) and cert.target.Bs == (one,) * d
            if any(B != one for B in Bs):
                split += len(_coprime_split(A, tuple(Bs))) > 1
        assert split >= 3  # points whose unit W needs the CRT pieces

    def test_every_step_is_one_slide(self, monkeypatch, rng):
        """pd_cert validates only the target with mk_pd (each step's
        identity is the zero remainder inside slide), and each step
        interpolates A and every B_j through _interp_poly."""
        import p1h.certify as certify

        calls = {"mk_pd": 0, "_interp_poly": 0}

        def spy(name):
            real = getattr(certify, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(certify, name, wrapped)

        spy("mk_pd")
        spy("_interp_poly")
        F5 = GF(5)
        seen = set()
        for _ in range(60):
            pt, _ = _random_pd_point(F5, rng.choice([2, 3]), rng)
            calls.update(mk_pd=0, _interp_poly=0)
            cert = pd_cert(pt)
            assert calls["mk_pd"] == 1
            assert calls["_interp_poly"] == len(cert.steps) * (pt.d + 1)
            seen.add(len(cert.steps))
        assert seen >= {3, 4}

    def test_every_enumerated_point_f2(self):
        from p1h import oracle as oc

        spec = oc.EnumSpec(q=2, n=2, D=1, target="pd", d=2)
        for enc in oc.enumerate_points(spec):
            p = oc.point_object(spec, enc)
            cert = pd_cert(p)
            assert verify(cert)
