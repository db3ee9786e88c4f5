"""Quadratic form machinery: diagonalization with replayable det-1 logs,
Hilbert symbols, stable invariants, tensor products, and the constructive
reduction over k[T]."""
import itertools
import random
from fractions import Fraction

import pytest

import p1h.linalg as la
from p1h.bezout_hankel import SymMatrix
from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly, PolyRing, X, const
from p1h.quadform import (
    REAL_PLACE,
    BlockNormalForm,
    DiagForm,
    complete_unimodular,
    diagonalize,
    hermite_reduce,
    hilbert_symbol,
    is_isotropic,
    kt_short_vector,
    oplog_to_path,
    replay_oplog,
    stable_equal,
    stable_invariant,
    _hasse,
    _is_local_square,
    _sqrt_exact,
    tensor_diag,
    witt_sum,
    witt_tensor,
)
from p1h.ratmap import elementary_path

from conftest import (
    block_sum,
    perm_det,
    ref_hasse,
    ref_hilbert_symbol,
    ref_is_local_square,
    run_optimized,
)


def oplog_matrix(field, n, ops):
    """The det-1 matrix P with P^T S P = (result of replaying ops on S): the
    reference that the op log and elementary_path are checked against."""
    P = la.mat_identity(field, n)
    for _, i, j, lam in ops:
        E = la.mat_identity(field, n)
        E[i][j] = lam
        P = la.mat_mul(field, P, E)
    return P


def _sym(field, rows):
    return SymMatrix.make(field, rows)


def _rand_sym(field, n, rng):
    while True:
        M = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = (
                    Fraction(rng.randint(-4, 4))
                    if field is QQ
                    else rng.randrange(field.p)
                )
                M[i][j] = M[j][i] = v
        S = SymMatrix.make(field, M)
        if S.is_nondegenerate():
            return S


class TestDiagonalize:
    def test_hyperbolic_over_q(self):
        form, ops = diagonalize(_sym(QQ, [[0, 1], [1, 0]]))
        assert form.units == (Fraction(2), Fraction(-1, 2))
        assert {QQ.square_class(u) for u in form.units} == {2, -2}

    def test_f2_nonalternating(self):
        form, _ = diagonalize(_sym(GF(2), [[0, 1], [1, 1]]))
        assert isinstance(form, BlockNormalForm)
        assert form.diag == (1, 1) and form.hblocks == 0
        # cross-check by exhaustive GL_2(F_2) congruence search
        targets = _congruence_orbit(2, ((0, 1), (1, 1)))
        assert ((1, 0), (0, 1)) in targets

    def test_f2_alternating(self):
        form, _ = diagonalize(_sym(GF(2), [[0, 1], [1, 0]]))
        assert form.diag == () and form.hblocks == 1

    def test_diagonal_input_fixed(self):
        form, ops = diagonalize(_sym(QQ, [[2, 0], [0, 3]]))
        assert ops == ()
        assert form.units == (2, 3)

    def test_replay_and_det_one(self, rng):
        for field in (QQ, GF(3), GF(5), GF(2)):
            for _ in range(40):
                n = rng.randrange(1, 5)
                S = _rand_sym(field, n, rng)
                form, ops = diagonalize(S)
                R = replay_oplog(S, ops)
                P = oplog_matrix(field, n, ops)
                assert la.det(field, P) == field.one
                M = la.mat_mul(
                    field,
                    la.mat_transpose(P),
                    la.mat_mul(field, [list(r) for r in S.rows], P),
                )
                assert la.mat_eq(field, M, [list(r) for r in R.rows])
                if isinstance(form, DiagForm):
                    assert la.mat_eq(
                        field,
                        M,
                        [list(r) for r in SymMatrix.diagonal(field, form.units).rows],
                    )
                    # every op has determinant 1: the diagonal multiplies to det S
                    assert form.det() == perm_det(field, [list(r) for r in S.rows])

    def test_oplog_path_is_matrix_homotopy(self, rng):
        for field in (QQ, GF(3)):
            for _ in range(15):
                S = _rand_sym(field, rng.randrange(1, 4), rng)
                _, ops = diagonalize(S)
                path = oplog_to_path(S, ops)
                d = path.det()
                assert d.is_constant()
                assert path.eval(0).rows == S.rows
                assert path.eval(1).rows == replay_oplog(S, ops).rows

    def test_degenerate_rejected(self):
        with pytest.raises(FieldError):
            diagonalize(_sym(QQ, [[1, 1], [1, 1]]))

    def test_elimination_finds_degeneracy(self, rng, monkeypatch):
        """The elimination itself raises FieldError on a singular matrix, with
        no determinant taken, also where the zero row only appears partway."""
        calls = []
        monkeypatch.setattr(la, "det", lambda ring, M: calls.append(len(M)))
        F2 = GF(2)
        partway = [
            _sym(QQ, [[1, 2, 3], [2, 4, 6], [3, 6, 1]]),  # row 1 dies at k = 1
            _sym(QQ, [[0, 1, 1], [1, 0, 0], [1, 0, 0]]),  # pivot made by an add
            _sym(GF(3), [[0, 1, 1], [1, 0, 1], [1, 1, 2]]),
            _sym(F2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),  # after an alternating block
            _sym(F2, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
        ]
        for S in partway:
            assert S.rows[0] != (S.ring.zero,) * S.n
            with pytest.raises(FieldError):
                diagonalize(S)
        for field in (QQ, F2, GF(3), GF(5)):
            for _ in range(40):
                n = rng.randrange(2, 6)
                # P^T diag(d_1, .., 0, .., d_n) P for a random P has rank < n
                d = [field.coerce(rng.randint(1, 4)) for _ in range(n)]
                d[rng.randrange(n)] = field.zero
                P = [[field.coerce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
                M = [
                    [
                        sum((field.mul(field.mul(P[k][i], d[k]), P[k][j]) for k in range(n)),
                            field.zero)
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                with pytest.raises(FieldError):
                    diagonalize(_sym(field, M))
        assert calls == []


class TestElementaryPath:
    def test_endpoints_against_oplog_matrix(self, rng):
        for field in (GF(5), QQ):
            for _ in range(40):
                n = rng.randrange(2, 5)
                ops = []
                for _ in range(rng.randrange(0, 7)):
                    i, j = rng.sample(range(n), 2)
                    v = field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    ops.append(("add", i, j, v))
                PT = elementary_path(field, n, ops)
                at = lambda t: [[c.eval(field.coerce(t)) for c in row] for row in PT]
                assert at(0) == la.mat_identity(field, n)
                assert at(1) == oplog_matrix(field, n, ops)
                kt = PolyRing(field)
                assert perm_det(kt, PT) == kt.one


class TestSqrtExact:
    def test_big_squares(self):
        r = 10**17 + 3
        assert _sqrt_exact(QQ, Fraction(r * r)) == r
        assert _sqrt_exact(QQ, Fraction(10**400)) == 10**200
        assert _sqrt_exact(QQ, Fraction(r * r, 4 * 10**400)) == Fraction(r, 2 * 10**200)

    def test_non_squares(self):
        r = 10**17 + 3
        assert _sqrt_exact(QQ, Fraction(r * r + 1)) is None
        assert _sqrt_exact(QQ, Fraction(10**401)) is None
        assert _sqrt_exact(QQ, Fraction(-4)) is None


class TestHilbert:
    def test_classics(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(2, 3, REAL_PLACE) == 1
        assert hilbert_symbol(2, 5, 5) == -1  # 2 is a non-residue mod 5

    def test_a_minus_a(self, rng):
        for _ in range(60):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if a == 0:
                continue
            for place in (2, 3, 5, 7, REAL_PLACE):
                assert hilbert_symbol(a, -a, place) == 1

    def test_bilinearity(self, rng):
        for _ in range(100):
            a = Fraction(rng.randint(-9, 9))
            b1 = Fraction(rng.randint(-9, 9))
            b2 = Fraction(rng.randint(-9, 9))
            if 0 in (a, b1, b2):
                continue
            for place in (2, 3, 5, REAL_PLACE):
                assert hilbert_symbol(a, b1 * b2, place) == hilbert_symbol(
                    a, b1, place
                ) * hilbert_symbol(a, b2, place)

    def test_product_formula(self, rng):
        # product over all places is +1 (Hilbert reciprocity): a strong
        # independent consistency check of the implementation
        from p1h.fields import factorize

        for _ in range(60):
            a = Fraction(rng.randint(-20, 20))
            b = Fraction(rng.randint(-20, 20))
            if a == 0 or b == 0:
                continue
            places = {2, REAL_PLACE}
            places |= set(factorize(abs(a.numerator)))
            places |= set(factorize(abs(b.numerator)))
            prod = 1
            for v in places:
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1


class TestIsotropy:
    def test_rank_three_agrees_with_conic_solver(self, rng):
        # a x^2 + b y^2 = c is solvable iff <a, b, -c> is isotropic; the exact
        # conic solver (Legendre descent) is the independent oracle
        from p1h.certify import _represent

        for _ in range(1000):
            a, b, c = (
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12))
                for _ in range(3)
            )
            assert is_isotropic((a, b, -c)) == (_represent(QQ, a, b, c) is not None), (a, b, c)

    @pytest.mark.parametrize("form", [
        (1, 1, 1, 1),  # definite
        (1, 1, 1, -7),  # fails at 2: 7 is not a sum of three rational squares
        (1, 1, -3, -3),  # fails at 3: x^2 + y^2 = 0 mod 3 forces 3 | x, y; descend
    ])
    def test_rank_four_anisotropic(self, form):
        assert not is_isotropic(form)

    @pytest.mark.parametrize("form, zero", [
        ((1, 1, 1, -3), (1, 1, 1, 1)),
        ((1, 1, -2, 5), (1, 1, 1, 0)),
        ((3, 5, 7, -15), (1, 1, 1, 1)),
        ((5, -3, 13, -2), (1, 1, 0, 1)),
        ((1, 2, -3, -6), (2, 1, 0, 1)),
        ((Fraction(1, 2), 7, -Fraction(15, 2), 1), (1, 1, 1, 0)),
    ])
    def test_rank_four_isotropic_with_explicit_zero(self, form, zero):
        assert sum(a * x * x for a, x in zip(form, zero)) == 0
        assert is_isotropic(form)

    def test_rank_two_and_one(self):
        assert is_isotropic((1, -4)) and is_isotropic((Fraction(-2, 3), Fraction(3, 2)))
        assert not is_isotropic((1, -2)) and not is_isotropic((1, 4))
        assert not is_isotropic((-5,))

    def test_rank_five_and_up_is_indefiniteness(self, rng):
        for _ in range(200):
            n = rng.randint(5, 8)
            form = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 5))
                    for _ in range(n)]
            assert is_isotropic(form) == (min(form) < 0 < max(form)), form
        assert is_isotropic((1, 1, 1, 1, -7)) and is_isotropic((1, 1, -3, -3, 1))
        assert not is_isotropic((1, 1, 1, 1, 1)) and not is_isotropic((-1, -2, -3, -5, -7, -11))

    def test_degenerate_form_is_refused(self):
        with pytest.raises(FieldError):
            is_isotropic((1, 0, -1))


class TestHasseCocycle:
    def test_cocycle_equals_pairwise_product(self, rng):
        """_hasse takes prod_j (a_1 ... a_{j-1}, a_j)_p; the definition is
        the product of (a_i, a_j)_p over all pairs i < j."""
        for _ in range(3000):
            n = rng.randrange(1, 8)
            values = [
                Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 30))
                for _ in range(n)
            ]
            for p in (2, 3, 5, 7, 11, 13):
                pairwise = 1
                for a, b in itertools.combinations(values, 2):
                    pairwise *= hilbert_symbol(a, b, p)
                assert _hasse(values, p) == pairwise


_KERNEL_PRIMES = (2, 3, 5, 7, 1009, 10**9 + 7)


def _local_rational(rng, p):
    """+-p^v u/w with v in -3..3 and u, w of 1 to 40 digits, which may
    carry further powers of p; now and then a square, so that every branch
    of the square test is reached."""
    def part():
        x = rng.randrange(1, 10 ** rng.randint(1, 40))
        return x * p ** rng.choice((0, 0, 0, 1, 2)) if rng.random() < 0.3 else x

    v = rng.randint(-3, 3)
    a = Fraction(part() * p ** max(v, 0), part() * p ** max(-v, 0))
    if rng.random() < 0.15:
        a *= a
    return a if rng.random() < 0.5 else -a


class TestLocalKernel:
    """The integer kernel against the Fraction-based symbols it replaced
    (conftest.ref_*), on the primes and sizes decisions meet."""

    @pytest.mark.parametrize("p", _KERNEL_PRIMES)
    def test_symbols_match_the_fraction_reference(self, p):
        rng = random.Random(2500 + p % 1000)
        seen = {"hilbert -1": 0, "hasse -1": 0, "square": 0}
        for _ in range(400):
            a, b = _local_rational(rng, p), _local_rational(rng, p)
            assert hilbert_symbol(a, b, REAL_PLACE) == ref_hilbert_symbol(a, b, REAL_PLACE)
            h = hilbert_symbol(a, b, p)
            assert h == ref_hilbert_symbol(a, b, p), (a, b, p)
            seen["hilbert -1"] += h == -1
            sq = _is_local_square(a, p)
            assert sq == ref_is_local_square(a, p), (a, p)
            seen["square"] += sq
            values = [_local_rational(rng, p) for _ in range(rng.randint(1, 7))]
            hs = _hasse(values, p)
            assert hs == ref_hasse(values, p), (values, p)
            seen["hasse -1"] += hs == -1
        # each outcome of each symbol occurs
        assert all(0 < k < 400 for k in seen.values()), seen

    def test_small_integers_at_two_cover_every_unit_residue(self):
        # every pair of classes v mod 2 and u mod 8 at p = 2, as ints
        values = [s * 2**v * u for s in (1, -1) for v in range(4) for u in (1, 3, 5, 7)]
        for a in values:
            assert _is_local_square(a, 2) == ref_is_local_square(Fraction(a), 2), a
            for b in values:
                assert hilbert_symbol(a, b, 2) == ref_hilbert_symbol(a, b, 2), (a, b)

    def test_zero_is_refused(self):
        for p in (2, 5):
            with pytest.raises(FieldError):
                _hasse([Fraction(1), Fraction(0)], p)
            with pytest.raises(FieldError):
                _is_local_square(Fraction(0), p)
            with pytest.raises(FieldError):
                hilbert_symbol(0, 3, p)


class TestStableInvariant:
    def test_identity_q(self):
        inv = stable_invariant(SymMatrix.diagonal(QQ, [Fraction(1)] * 3))
        assert inv.rank == 3 and inv.disc == 1 and inv.signature == (3, 0)
        assert all(v == 1 for _, v in inv.hasse)

    def test_hyperbolic_vs_diag(self):
        i1 = stable_invariant(_sym(QQ, [[0, 1], [1, 0]]))
        i2 = stable_invariant(SymMatrix.diagonal(QQ, [Fraction(1), Fraction(-1)]))
        assert stable_equal(i1, i2)
        assert i1.disc == -1 and i1.signature == (1, 1)

    def test_q_degenerate_rejected(self):
        with pytest.raises(FieldError):
            stable_invariant(_sym(QQ, [[1, 2], [2, 4]]))

    def test_takes_no_determinant(self, monkeypatch):
        """The diagonal multiplies to det S exactly, so no field computes one."""
        calls = []
        monkeypatch.setattr(la, "det", lambda ring, M: calls.append(len(M)))
        inv = stable_invariant(_sym(QQ, [[2, 1, 0], [1, 3, 1], [0, 1, 5]]))
        assert inv.rank == 3 and inv.disc == 23  # det 23
        inv = stable_invariant(_sym(GF(3), [[0, 1, 0], [1, 0, 1], [0, 1, 1]]))
        assert inv.rank == 3 and inv.disc == 2  # det -1, a non-square mod 3
        inv = stable_invariant(_sym(GF(2), [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
        assert inv.rank == 3
        assert calls == []

    def test_f5_squares(self):
        F5 = GF(5)
        i1 = stable_invariant(SymMatrix.diagonal(F5, [1, 1]))
        i2 = stable_invariant(SymMatrix.diagonal(F5, [2, 2]))
        assert stable_equal(i1, i2)  # disc 4 is a square mod 5

    def test_f2_rank_only(self):
        F2 = GF(2)
        i1 = stable_invariant(SymMatrix.diagonal(F2, [1, 1, 1]))
        i2 = stable_invariant(
            _sym(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        )
        assert stable_equal(i1, i2)

    def test_q_vs_real_signature(self):
        i1 = stable_invariant(SymMatrix.diagonal(QQ, [Fraction(1)]))
        i2 = stable_invariant(SymMatrix.diagonal(QQ, [Fraction(-1)]))
        assert not stable_equal(i1, i2)

    def test_reflexive_random(self, rng):
        for field in (QQ, GF(3), GF(2)):
            for _ in range(34):
                S = _rand_sym(field, rng.randrange(1, 4), rng)
                assert stable_equal(stable_invariant(S), stable_invariant(S))

    def test_hasse_cocycle_on_sums(self, rng):
        # h(b1 + b2) = h(b1) h(b2) (disc b1, disc b2)_v, checked against the
        # direct invariant of the block-sum matrix
        for _ in range(200):
            S1 = _rand_sym(QQ, rng.randrange(1, 4), rng)
            S2 = _rand_sym(QQ, rng.randrange(1, 4), rng)
            i1, i2 = stable_invariant(S1), stable_invariant(S2)
            direct = stable_invariant(block_sum(S1, S2))
            summed = witt_sum(i1, i2)
            assert stable_equal(direct, summed)
            h1 = dict(i1.hasse)
            h2 = dict(i2.hasse)
            for p, v in direct.hasse:
                expected = (
                    h1.get(p, 1) * h2.get(p, 1) * hilbert_symbol(i1.disc, i2.disc, p)
                )
                assert v == expected


def _congruence_orbit(q, rows):
    """Exhaustive GL-congruence orbit over F_q (test-side oracle:
    breadth-first over elementary and scaling generators, raw int math)."""
    n = len(rows)
    gens = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for lam in range(1, q):
                    E = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                    E[i][j] = lam
                    gens.append(E)
        for lam in range(2, q):
            E = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
            E[i][i] = lam
            gens.append(E)

    def congr(M, E):
        # E^T M E over F_q with plain ints
        ME = [
            [sum(M[a][t] * E[t][b] for t in range(n)) % q for b in range(n)]
            for a in range(n)
        ]
        return tuple(
            tuple(sum(E[t][a] * ME[t][b] for t in range(n)) % q for b in range(n))
            for a in range(n)
        )

    start = tuple(tuple(int(x) % q for x in r) for r in rows)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for E in gens:
            key = congr(cur, E)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


class TestStableEqualVsExhaustiveSearch:
    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_agreement(self, q, n):
        field = GF(q)
        idx = [(i, j) for i in range(n) for j in range(i, n)]
        mats = []
        for vals in itertools.product(range(q), repeat=len(idx)):
            M = [[0] * n for _ in range(n)]
            for (i, j), v in zip(idx, vals):
                M[i][j] = M[j][i] = v
            S = SymMatrix.make(field, M)
            if S.is_nondegenerate():
                mats.append(S)
        pad = 2 if q == 2 else 0  # stabilize char 2 by two <1> summands
        orbits = []  # shared: each orbit computed once

        def pad_rows(S):
            padded = S
            for _ in range(pad):
                padded = block_sum(padded, SymMatrix.diagonal(field, [1]))
            return tuple(tuple(int(x) for x in r) for r in padded.rows)

        def orbit_of(key):
            for orb in orbits:
                if key in orb:
                    return orb
            orb = _congruence_orbit(q, key)
            orbits.append(orb)
            return orb

        rng = random.Random(q * 100 + n)
        sample = mats if len(mats) <= 14 else rng.sample(mats, 14)
        for S1 in sample:
            orb = orbit_of(pad_rows(S1))
            for S2 in sample:
                inv_equal = stable_equal(stable_invariant(S1), stable_invariant(S2))
                search_equal = pad_rows(S2) in orb
                assert inv_equal == search_equal


class TestTensor:
    def test_zero_unit_raises(self):
        with pytest.raises(FieldError):
            DiagForm(QQ, (Fraction(3), Fraction(0)))

    def test_scalar(self):
        d = tensor_diag(DiagForm(QQ, (Fraction(3),)), DiagForm(QQ, (1, -1, 2)))
        assert d.units == (3, -3, 6)

    def test_hyperbolic_square(self):
        d = tensor_diag(DiagForm(QQ, (1, -1)), DiagForm(QQ, (1, -1)))
        assert d.units == (1, -1, -1, 1)

    def test_det_identity(self, rng):
        for _ in range(50):
            u1 = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randrange(1, 4)))
            u2 = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randrange(1, 4)))
            d1, d2 = DiagForm(QQ, u1), DiagForm(QQ, u2)
            t = tensor_diag(d1, d2)
            assert t.det() == d1.det() ** d2.rank * d2.det() ** d1.rank
            assert t.rank == d1.rank * d2.rank


def _witt_reference(field, rank, disc, sig, hasse):
    """(rank, disc class, signature, Hasse map) for comparing invariants."""
    if field is QQ:
        return rank, QQ.square_class(disc), sig, hasse
    return rank, (None if field.p == 2 else field.square_class(disc)), None, None


def _sum_reference(i1, i2):
    """Closed formulas for an orthogonal sum, independent of the library's
    construction: ranks and signatures add, discriminants multiply, and the
    Hasse symbols follow the cocycle h(b1 + b2) = h1 h2 (d1, d2)_p."""
    field = i1.field
    hasse = sig = None
    if field is QQ:
        h1, h2 = dict(i1.hasse), dict(i2.hasse)
        hasse = {p: h1.get(p, 1) * h2.get(p, 1) * hilbert_symbol(i1.disc, i2.disc, p)
                 for p in set(h1) | set(h2)}
        sig = (i1.signature[0] + i2.signature[0], i1.signature[1] + i2.signature[1])
    disc = field.mul(i1.disc, i2.disc)
    return _witt_reference(field, i1.rank + i2.rank, disc, sig, hasse)


def _tensor_reference(i1, i2):
    """Closed formulas for a tensor product of ranks n and m: the
    discriminant d1^m d2^n, the signature products, and the Hasse symbol
    h1^m h2^n (d1, d2)^(nm-1) (d1, -1)^(m(m-1)/2) (d2, -1)^(n(n-1)/2)
    (expand prod_j b_j q1 with the sum cocycle and (c, c) = (c, -1))."""
    field = i1.field
    n, m = i1.rank, i2.rank
    d1, d2 = i1.disc, i2.disc
    hasse = sig = None
    if field is QQ:
        h1, h2 = dict(i1.hasse), dict(i2.hasse)
        hasse = {
            p: h1.get(p, 1) ** m * h2.get(p, 1) ** n
            * hilbert_symbol(d1, d2, p) ** (n * m - 1)
            * hilbert_symbol(d1, -1, p) ** (m * (m - 1) // 2)
            * hilbert_symbol(d2, -1, p) ** (n * (n - 1) // 2)
            for p in set(h1) | set(h2)
        }
        (p1, q1), (p2, q2) = i1.signature, i2.signature
        sig = (p1 * p2 + q1 * q2, p1 * q2 + q1 * p2)
    disc = field.mul(field.pow(d1, m), field.pow(d2, n))
    return _witt_reference(field, n * m, disc, sig, hasse)


class TestWittAgainstClosedFormulas:
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=["Q", "F2", "F3", "F5"])
    def test_sum_and_tensor(self, field):
        rng = random.Random(31 + (0 if field is QQ else field.p))
        for _ in range(60):
            i1 = stable_invariant(_rand_sym(field, rng.randrange(1, 4), rng))
            i2 = stable_invariant(_rand_sym(field, rng.randrange(1, 4), rng))
            for got, want in ((witt_sum(i1, i2), _sum_reference(i1, i2)),
                              (witt_tensor(i1, i2), _tensor_reference(i1, i2))):
                hasse = dict(got.hasse) if got.hasse is not None else None
                assert _witt_reference(field, got.rank, got.disc, got.signature, hasse) == want


def _kt(field):
    return PolyRing(field)


def _cpoly(field, coeffs):
    return Poly.make(field, coeffs)


def _random_kt_sym(field, n, degT, rng, factors=5):
    """Q(T)^T D Q(T) for random diagonal units D and elementary Q."""
    kt = _kt(field)
    D = [
        [
            _cpoly(field, [rng.choice([u for u in field.units()])])
            if i == j
            else kt.zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    Q = la.mat_identity(kt, n)
    for _ in range(factors):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = la.mat_identity(kt, n)
        E[i][j] = _cpoly(field, [rng.randrange(field.p) for _ in range(degT + 1)])
        Q = la.mat_mul(kt, Q, E)
    return SymMatrix.make(
        kt, la.mat_mul(kt, la.mat_transpose(Q), la.mat_mul(kt, D, Q))
    )


class TestKtShortVector:
    def test_constant_diagonal(self):
        F3 = GF(3)
        kt = _kt(F3)
        S = SymMatrix.make(
            kt, [[_cpoly(F3, [2]), kt.zero], [kt.zero, _cpoly(F3, [1])]]
        )
        x = kt_short_vector(S)
        val = _form_val(kt, S, x)
        assert val.degree <= 0

    def test_t_block(self):
        F3 = GF(3)
        kt = _kt(F3)
        S = SymMatrix.make(
            kt, [[_cpoly(F3, [0, 1]), _cpoly(F3, [1])], [_cpoly(F3, [1]), kt.zero]]
        )
        x = kt_short_vector(S)
        assert _form_val(kt, S, x).degree <= 0

    def test_degree_bound_random(self, rng):
        F3 = GF(3)
        kt = _kt(F3)
        for _ in range(100):
            n = rng.randrange(1, 5)
            S = _random_kt_sym(F3, n, rng.randrange(0, 4), rng)
            x = kt_short_vector(S)
            assert any(not c.is_zero() for c in x)
            assert _form_val(kt, S, x).degree <= 0
            # primitive: content is a unit
            from p1h.quadform import _content

            g = _content(kt, x)
            assert g.degree == 0

    def test_nonconstant_det_rejected(self):
        F3 = GF(3)
        kt = _kt(F3)
        S = SymMatrix.make(
            kt, [[_cpoly(F3, [0, 1]), kt.zero], [kt.zero, _cpoly(F3, [1])]]
        )
        with pytest.raises(FieldError, match="not a point"):
            kt_short_vector(S)


def _form_val(kt, S, x):
    acc = kt.zero
    n = S.n
    for i in range(n):
        for j in range(n):
            acc = acc + S.rows[i][j] * x[i] * x[j]
    return acc


def _random_unit_det(ring, n, rng, det_factor=None):
    """diag(det_factor or a unit, units) times six random elementary
    matrices, over a field or over k[T] (entries of T-degree <= 2)."""
    kt = isinstance(ring, PolyRing)
    base = ring.base if kt else ring

    def scalar():
        if base is QQ:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return base.coerce(rng.randrange(base.p))

    def unit():
        while base.is_zero(u := scalar()):
            pass
        return ring.coerce(u)

    M = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = unit()
    if det_factor is not None:
        M[0][0] = det_factor
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            E = la.mat_identity(ring, n)
            E[i][j] = Poly.make(base, [scalar() for _ in range(3)]) if kt else scalar()
            M = la.mat_mul(ring, M, E)
    return M


def _adjugate_by_minors(ring, M):
    """The classical definition adj(M)[i][j] = (-1)^(i+j) det(M minus row j
    and column i): n^2 determinants, the independent oracle for the one
    Gauss-Jordan pass of linalg.adjugate."""
    n = len(M)
    if n == 1:
        return [[ring.one]]
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[x for c, x in enumerate(row) if c != i] for r, row in enumerate(M) if r != j]
            d = la.det(ring, minor)
            out[i][j] = d if (i + j) % 2 == 0 else ring.neg(d)
    return out


class TestInverse:
    RINGS = [_kt(GF(2)), _kt(GF(3)), _kt(GF(5)), _kt(QQ), QQ, GF(7)]

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_inverse_of_unit_determinant(self, ring):
        rng = random.Random(1700)
        for _ in range(25):
            n = rng.randrange(1, 5)
            M = _random_unit_det(ring, n, rng)
            inv = la.inverse(ring, M)
            assert la.mat_eq(ring, la.mat_mul(ring, M, inv), la.mat_identity(ring, n))
            assert la.mat_eq(ring, la.mat_mul(ring, inv, M), la.mat_identity(ring, n))

    @pytest.mark.parametrize("ring", [_kt(GF(5)), _kt(QQ)], ids=str)
    def test_adjugate_matches_minors(self, ring):
        """At n = 2 (a closed form) and n = 5..7 (the Gauss-Jordan pass),
        with and without row swaps (the rows reversed put a zero in the
        first pivot)."""
        rng = random.Random(1702)
        swapped = 0
        for n in (2, 5, 6, 7):
            M = _random_unit_det(ring, n, rng)
            for N in (M, M[::-1]):
                swapped += ring.is_zero(N[0][0])
                assert la.mat_eq(ring, la.adjugate(ring, N), _adjugate_by_minors(ring, N))
        assert swapped

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_non_unit_determinant_raises(self, ring):
        """det M = 0 over every ring, and det M = T times a unit over k[T]."""
        rng = random.Random(1701)
        factors = [ring.zero]
        if isinstance(ring, PolyRing):
            factors.append(Poly.make(ring.base, [0, 1]))
        for n in (1, 2, 3):
            for d in factors:
                M = _random_unit_det(ring, n, rng, det_factor=d)
                for fn in (la.inverse, la.adjugate):
                    with pytest.raises(FieldError):
                        fn(ring, M)


class TestCompleteUnimodular:
    @pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=str)
    def test_first_column_and_determinant_one(self, field, monkeypatch):
        """On seeded primitive vectors at n = 2..5 the completion has first
        column x and determinant exactly 1; the pivot position piv and the
        constant c with E x = c e_piv (E the product of the row operations)
        are read off the captured inverse product, so the sample is seen to
        cover piv != 0 and c != 1."""
        from p1h import quadform
        from p1h.poly import poly_gcd

        kt = _kt(field)
        rng = random.Random(1710)
        products = []
        product = quadform.elementary_product

        def spy(*args):
            M = product(*args)
            products.append(la.mat_copy(M))
            return M

        monkeypatch.setattr(quadform, "elementary_product", spy)
        pivots, scales = set(), set()
        for n in range(2, 6):
            done = 0
            while done < 12:
                x = [
                    Poly.make(field, [rng.randint(-2, 2) for _ in range(rng.randrange(3))])
                    for _ in range(n)
                ]
                g = kt.zero
                for e in x:
                    g = poly_gcd(g, e)
                if g.is_zero() or g.degree > 0:
                    continue
                M = complete_unimodular(kt, x)
                assert [row[0] for row in M] == x
                assert perm_det(kt, M) == kt.one
                w = la.mat_vec(kt, la.inverse(kt, products[-1]), x)
                (piv,) = [i for i, e in enumerate(w) if not e.is_zero()]
                assert w[piv].is_constant()
                pivots.add(piv)
                scales.add(w[piv].constant())
                done += 1
        assert pivots - {0} and scales - {field.one}

    def test_bad_vectors_raise(self):
        F3 = GF(3)
        kt = _kt(F3)
        T = _cpoly(F3, [0, 1])
        for x in ([kt.zero, kt.zero], [T, T * T], [T]):
            with pytest.raises(FieldError):
                complete_unimodular(kt, x)


class TestHermiteReduce:
    def test_constant_matrix(self):
        F3 = GF(3)
        kt = _kt(F3)
        S = SymMatrix.make(
            kt,
            [
                [_cpoly(F3, [1]), _cpoly(F3, [2])],
                [_cpoly(F3, [2]), _cpoly(F3, [2])],
            ],
        )
        P, N = hermite_reduce(S)
        # N constant
        assert all(e.is_constant() for row in N.rows for e in row)

    def test_t_block_f3(self):
        F3 = GF(3)
        kt = _kt(F3)
        S = SymMatrix.make(
            kt, [[_cpoly(F3, [0, 1]), _cpoly(F3, [1])], [_cpoly(F3, [1]), kt.zero]]
        )
        P, N = hermite_reduce(S)
        assert stable_equal(
            stable_invariant(N.eval(0)), stable_invariant(N.eval(1))
        )

    def test_blocks_f2(self):
        F2 = GF(2)
        kt = _kt(F2)
        S = SymMatrix.make(
            kt, [[_cpoly(F2, [0, 1]), _cpoly(F2, [1])], [_cpoly(F2, [1]), kt.zero]]
        )
        P, N = hermite_reduce(S)
        # block normal shape: [[0,1],[1,alpha(T)]]
        assert N.rows[0][0].is_zero()
        assert N.rows[0][1] == kt.one

    def test_construct_then_reduce_roundtrip(self, rng):
        F5 = GF(5)
        kt = _kt(F5)
        for _ in range(30):
            n = rng.randrange(1, 4)
            S = _random_kt_sym(F5, n, 2, rng)
            P, N = hermite_reduce(S)
            # P^T S P = N exactly with det P = 1 (asserted internally too)
            M = la.mat_mul(
                kt, la.mat_transpose(P), la.mat_mul(kt, [list(r) for r in S.rows], P)
            )
            assert la.mat_eq(kt, M, [list(r) for r in N.rows])
            d = la.det(kt, P)
            assert d == kt.one
            assert stable_equal(
                stable_invariant(S.eval(0)), stable_invariant(S.eval(1))
            )

    def test_block_shape(self, rng):
        # N is block diagonal: constant units and [[0,1],[1,alpha(T)]] blocks
        for field in (GF(3), GF(2)):
            kt = _kt(field)
            for _ in range(20):
                n = rng.randrange(1, 5)
                S = _random_kt_sym(field, n, rng.randrange(0, 3), rng)
                P, N = hermite_reduce(S)
                i = 0
                while i < n:
                    if not N.rows[i][i].is_zero():
                        assert N.rows[i][i].is_constant()
                        assert all(
                            N.rows[i][j].is_zero() for j in range(n) if j != i
                        )
                        i += 1
                    else:
                        assert N.rows[i][i + 1] == kt.one
                        assert all(
                            N.rows[i][j].is_zero()
                            for j in range(n)
                            if j not in (i, i + 1)
                        )
                        i += 2


def _kt_matrix(field, text):
    """A k[T] matrix in the `reduce-kt` syntax: rows ';', entries ','."""
    from p1h.expr import parse_poly

    rows = [[parse_poly(e, field, var="T") for e in r.split(",")] for r in text.split(";")]
    return SymMatrix.make(_kt(field), rows)


def _random_kt_form(field, n, degT, rng):
    """Q(T)^T D Q(T) with Q a product of five random elementary matrices and
    D a block sum of constant units and [[0,u],[u,a(T)]] blocks, so that
    isotropic short vectors occur at every size."""
    kt = _kt(field)

    def coef():
        return Fraction(rng.randint(-2, 2)) if field is QQ else rng.randrange(field.p)

    def unit():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) if field is QQ else rng.randrange(1, field.p)

    D = la.mat_identity(kt, n)
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.4:
            D[i][i + 1] = D[i + 1][i] = _cpoly(field, [unit()])
            D[i][i] = kt.zero
            D[i + 1][i + 1] = _cpoly(field, [coef() for _ in range(degT + 1)])
            i += 2
        else:
            D[i][i] = _cpoly(field, [unit()])
            i += 1
    Q = la.mat_identity(kt, n)
    for _ in range(5):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            E = la.mat_identity(kt, n)
            E[a][b] = _cpoly(field, [coef() for _ in range(degT + 1)])
            Q = la.mat_mul(kt, Q, E)
    return SymMatrix.make(kt, la.mat_mul(kt, la.mat_transpose(Q), la.mat_mul(kt, D, Q)))


def _assert_reduced(S, P, N):
    """P^T S P = N exactly, det P = 1, N in block normal form (constant
    units, plus [[0,1],[1,alpha(T)]] blocks in characteristic 2 only), and
    N has equal stable invariants at T = 0 and T = 1."""
    kt, n = S.ring, S.n
    lhs = la.mat_mul(kt, la.mat_transpose(P), la.mat_mul(kt, [list(r) for r in S.rows], P))
    assert la.mat_eq(kt, lhs, [list(r) for r in N.rows])
    assert perm_det(kt, P) == kt.one
    i = 0
    while i < n:
        width = 1 if not N.rows[i][i].is_zero() else 2
        if width == 1:
            assert kt.is_unit(N.rows[i][i])
        else:
            assert kt.base.char == 2 and N.rows[i][i + 1] == kt.one
        block = range(i, i + width)
        assert all(N.rows[r][c].is_zero() for r in block for c in range(n) if c not in block)
        i += width
    assert stable_equal(stable_invariant(N.eval(0)), stable_invariant(N.eval(1)))


class TestReductionProperties:
    @pytest.mark.parametrize("field,nmax,count", [
        (GF(2), 5, 150), (GF(3), 5, 150), (GF(5), 5, 150), (GF(7), 5, 150), (QQ, 4, 100),
    ], ids=["F2", "F3", "F5", "F7", "Q"])
    def test_random_forms(self, field, nmax, count):
        rng = random.Random(1300 + (field.p if field is not QQ else 0))
        for _ in range(count):
            S = _random_kt_form(field, rng.randrange(1, nmax + 1), rng.randrange(0, 3), rng)
            _assert_reduced(S, *hermite_reduce(S))

    def test_isotropic_pairing_unit_not_one(self):
        # x = e_1 is isotropic and pairs with e_0 by 2: the completion of the
        # one-entry row (2) has det 2, and the split unit is b(v, v) = 2
        F5 = GF(5)
        S = _kt_matrix(F5, "T,2;2,0")
        P, N = hermite_reduce(S)
        _assert_reduced(S, P, N)
        assert N == _kt_matrix(F5, "2,0;0,3")

    def test_f2_block_at_n3(self):
        F2 = GF(2)
        S = _kt_matrix(F2, "T,1,0;1,0,0;0,0,1")
        P, N = hermite_reduce(S)
        _assert_reduced(S, P, N)
        assert N == _kt_matrix(F2, "0,1,0;1,T,0;0,0,1")

    def test_one_entry_completion_at_n2(self):
        # the short vector (1, 2T) is isotropic and not a coordinate vector,
        # so both completions (of x, then of its one-entry pairing row) act
        F3 = GF(3)
        S = _kt_matrix(F3, "T^3+2*T,T^2+1;T^2+1,T")
        kt = S.ring
        x = kt_short_vector(S)
        assert x == [kt.one, _cpoly(F3, [0, 2])] and _form_val(kt, S, x).is_zero()
        P, N = hermite_reduce(S)
        _assert_reduced(S, P, N)
        assert N == _kt_matrix(F3, "2,0;0,1")

    def test_self_checks_survive_optimize(self):
        # python -O strips asserts; the reduction's self-checks must still
        # raise, as FieldError like every self-check in p1h
        script = (
            "from p1h import linalg, quadform\n"
            "from p1h.bezout_hankel import SymMatrix\n"
            "from p1h.fields import GF, FieldError\n"
            "from p1h.poly import PolyRing, X\n"
            "kt = PolyRing(GF(3))\n"
            "T = X(GF(3))\n"
            "S = SymMatrix.make(kt, [[T, kt.one], [kt.one, kt.zero]])\n"
            "def run(f):\n"
            "    try:\n"
            "        f()\n"
            "    except FieldError as exc:\n"
            "        print('raised:', exc)\n"
            "    else:\n"
            "        print('passed')\n"
            "run(lambda: quadform._split(S, linalg.mat_identity(kt, 2), 1))\n"
            "linalg.mat_eq = lambda ring, A, B: False\n"
            "run(lambda: quadform.hermite_reduce(S))\n"
        )
        out = run_optimized(script).splitlines()
        assert out == ["raised: split block does not have unit determinant",
                       "raised: block reduction: P^T S P differs from N"]
