"""The exhaustive finite-field oracle: point counts, components,
cross-checks, and the raw arithmetic layer it runs on."""
import itertools
import os
import subprocess
import sys

import pytest

from p1h import certify, oracle as oc, serial
from p1h.bezout_hankel import SymMatrix
from p1h.fields import GF, FieldError
from p1h.linalg import det
from p1h.poly import Poly, PolyRing, poly_divmod, poly_gcd
from p1h.ratmap import mk_pointed

from conftest import p1h_env, run_optimized


class TestRawLayer:
    """The int-tuple kernel is the only copy of its arithmetic in the edge
    kernels: every raw op is pinned to the library here."""

    def test_raw_ops_match_poly(self, rng):
        for q in (2, 3, 5):
            field = GF(q)
            for _ in range(100):
                a = tuple(rng.randrange(q) for _ in range(rng.randrange(0, 5)))
                b = tuple(rng.randrange(q) for _ in range(rng.randrange(0, 5)))
                a = oc._rtrim(a)
                b = oc._rtrim(b)
                pa, pb = Poly.make(field, a), Poly.make(field, b)
                assert oc._radd(a, b, q) == (pa + pb).coeffs
                assert oc._rsub(a, b, q) == (pa - pb).coeffs
                assert oc._rneg(a, q) == (-pa).coeffs
                assert oc._rmul(a, b, q) == (pa * pb).coeffs
                c = rng.randrange(-q, 2 * q)
                assert oc._rscale(a, c, q) == pa.scale(field.coerce(c)).coeffs
                t = rng.randrange(q)
                assert oc._reval(a, t, q) == pa.eval(t)
                if b:
                    quo, rem = oc._rdivmod(a, b, q)
                    q2, r2 = poly_divmod(pa, pb)
                    assert quo == q2.coeffs and rem == r2.coeffs
                    assert oc._rgcd(a, b, q) == poly_gcd(pa, pb).coeffs

    def test_rdet_matches_linalg(self, rng):
        for q in (2, 3, 5):
            field = GF(q)
            kt = PolyRing(field)
            for n in (1, 2, 3):
                for _ in range(30):
                    M = [
                        [oc._rtrim(tuple(rng.randrange(q) for _ in range(rng.randrange(0, 4))))
                         for _ in range(n)]
                        for _ in range(n)
                    ]
                    P = [[Poly.make(field, e) for e in row] for row in M]
                    assert oc._rdet(M, q) == det(kt, P).coeffs


class TestEnumeration:
    def test_f2_degree_one_points(self):
        spec = oc.EnumSpec(q=2, n=1, D=1)
        pts = oc.enumerate_points(spec)
        assert len(pts) == 2  # X/1 and (X+1)/1

    def test_f3_degree_one_points(self):
        assert len(oc.enumerate_points(oc.EnumSpec(q=3, n=1, D=1))) == 6

    def test_symmat_counts(self):
        # independent double loop over all symmetric 2x2 matrices
        for q in (2, 3):
            expected = 0
            for a, b, d in itertools.product(range(q), repeat=3):
                if (a * d - b * b) % q != 0:
                    expected += 1
            spec = oc.EnumSpec(q=q, n=2, D=1, target="symmat")
            assert len(oc.enumerate_points(spec)) == expected

    def test_pd_counts_f2(self):
        spec = oc.EnumSpec(q=2, n=1, D=1, target="pd", d=2)
        # A = X + a0; (B1, B2) constants not both zero: 2 * 3 = 6
        assert len(oc.enumerate_points(spec)) == 6

    def test_oversize_rejected(self):
        with pytest.raises(FieldError, match="oversize"):
            oc.enumerate_edges(oc.EnumSpec(q=5, n=3, D=3))

    @pytest.mark.parametrize(
        "kw",
        [dict(n=-1), dict(n=2, D=-1), dict(n=-1, D=1), dict(n=2, target="pd", d=-1),
         dict(n=2, d=0), dict(n=2, target="pd", d=1)],
    )
    def test_invalid_parameters_rejected(self, kw):
        with pytest.raises(FieldError, match=">= "):
            oc.EnumSpec(q=3, **kw)

    def test_pd_estimate_counts_d(self):
        # d = 3 at q = 3, n = 2, D = 1 walks 9^8 = 4.3e7 candidates: over the cap
        with pytest.raises(FieldError, match="oversize"):
            oc.enumerate_edges(oc.EnumSpec(q=3, n=2, D=1, target="pd", d=3))
        assert oc.EnumSpec(q=3, n=2, D=1, target="pd", d=2).work_estimate() == 9.0**6

    @pytest.mark.parametrize("q,n,D", [(2, 1, 1), (2, 2, 1), (3, 1, 2)])
    def test_pd_estimate_is_the_edge_enumeration_total(self, q, n, D, monkeypatch):
        totals = []
        monkeypatch.setattr(oc, "_chunks", lambda total, workers: totals.append(total) or [])
        for d in (2, 3, 4):
            spec = oc.EnumSpec(q=q, n=n, D=D, target="pd", d=d)
            assert oc.enumerate_edges(spec) == set()
            assert totals[-1] == spec.work_estimate()
        assert len(totals) == 3

    def test_construction_enumerates_nothing(self, monkeypatch):
        def boom(*args):
            raise AssertionError("enumeration started")

        enumerate_edges = oc.enumerate_edges
        for name in ("_rpolys", "enumerate_points", "enumerate_edges", "_chunks"):
            monkeypatch.setattr(oc, name, boom)
        for target in ("ratfun", "symmat", "pd"):
            oc.EnumSpec(q=3, n=2, D=1, target=target)
        spec = oc.EnumSpec(q=3, n=10**9, target="pd")
        with pytest.raises(FieldError, match="oversize"):
            enumerate_edges(spec)

    def test_points_are_capped_by_their_own_count(self, monkeypatch):
        # 512 point candidates, 1.34e8 edge candidates
        spec = oc.EnumSpec(q=2, n=3, D=2, target="pd")
        assert spec.point_estimate() == 512
        with pytest.raises(FieldError, match="oversize"):
            oc.enumerate_edges(spec)
        F2 = GF(2)
        expected = 0
        for a, b1, b2 in itertools.product(itertools.product(range(2), repeat=3), repeat=3):
            A, B1, B2 = Poly.make(F2, a + (1,)), Poly.make(F2, b1), Poly.make(F2, b2)
            expected += poly_gcd(poly_gcd(A, B1), B2).degree == 0
        assert len(oc.enumerate_points(spec)) == expected
        monkeypatch.setattr(oc, "point_object", lambda *args: pytest.fail("enumeration started"))
        with pytest.raises(FieldError, match="oversize"):
            oc.enumerate_points(oc.EnumSpec(q=3, n=10**9, target="pd"))
        with pytest.raises(FieldError, match="oversize"):
            oc.enumerate_points(oc.EnumSpec(q=2, n=12, D=0, target="symmat"))

    @pytest.mark.parametrize(
        "q,n,target", [(3, 3, "ratfun"), (2, 4, "ratfun"), (2, 4, "symmat"), (2, 4, "pd")]
    )
    def test_unsupported_cell_refused_before_enumeration(self, q, n, target, monkeypatch):
        spec = oc.EnumSpec(q=q, n=n, D=1, target=target)
        for name in ("enumerate_points", "_chunks", "_rdet"):
            monkeypatch.setattr(oc, name, lambda *args: pytest.fail("enumeration started"))
        with pytest.raises(FieldError, match="unsupported oracle cell"):
            oc.components(spec)
        # D = 0 cells have no edges, and a degree-0 scheme has one point
        assert oc.enumerate_edges(oc.EnumSpec(q=q, n=n, D=0, target=target)) == set()
        assert oc.enumerate_edges(oc.EnumSpec(q=q, n=0, D=1, target=target)) == set()

    def test_symmat_degree_zero_with_depth(self):
        cc = oc.cross_check(oc.EnumSpec(q=3, n=0, D=1, target="symmat"))
        assert cc.agreement and cc.report.points == 1

    def test_points_are_valid_objects(self):
        spec = oc.EnumSpec(q=3, n=2, D=1)
        for enc in oc.enumerate_points(spec):
            obj = oc.point_object(spec, enc)
            assert obj.n == 2

    @pytest.mark.parametrize(
        "spec", [oc.EnumSpec(q=3, n=2, D=1), oc.EnumSpec(q=3, n=2, D=1, target="symmat"),
                 oc.EnumSpec(q=2, n=2, D=1, target="pd")],
    )
    def test_points_map_encodings_to_their_objects(self, spec):
        pts = oc.enumerate_points(spec)
        for enc, obj in pts.items():
            assert obj == oc.point_object(spec, enc)
        rep = oc.components(spec)
        assert rep.objects == list(pts.values())


class TestComponents:
    def test_f2_n1_single_component(self):
        rep = oc.components(oc.EnumSpec(q=2, n=1, D=1))
        assert rep.points == 2
        assert len(rep.components) == 1  # the edge (X+T)/1 joins both points

    def test_f3_n1_two_components(self):
        rep = oc.components(oc.EnumSpec(q=3, n=1, D=1))
        assert len(rep.components) == 2
        # split exactly by the resultant value
        assert rep.agreement

    def test_f2_single_component_per_degree(self):
        for n, D in ((1, 2), (2, 2), (3, 2)):
            rep = oc.components(oc.EnumSpec(q=2, n=n, D=D))
            assert len(rep.components) == 1

    def test_component_sizes_sum(self):
        rep = oc.components(oc.EnumSpec(q=3, n=2, D=2))
        assert sum(c["size"] for c in rep.components) == rep.points

    def test_monotone_in_depth(self):
        c1 = len(oc.components(oc.EnumSpec(q=3, n=2, D=1)).components)
        c2 = len(oc.components(oc.EnumSpec(q=3, n=2, D=2)).components)
        assert c2 <= c1

    def test_edges_respect_invariants(self):
        rep = oc.components(oc.EnumSpec(q=5, n=1, D=1))
        assert rep.agreement

    def test_workers_agree(self):
        # each chunk of a screened kernel builds its own tables; one pool of
        # two processes at a time
        for kw in (dict(q=3, n=2, D=2), dict(q=2, n=2, D=1, target="pd"),
                   dict(q=2, n=3, D=1)):
            seq = oc.enumerate_edges(oc.EnumSpec(**kw, workers=1))
            par = oc.enumerate_edges(oc.EnumSpec(**kw, workers=2))
            assert seq == par, kw
        seq = oc.components(oc.EnumSpec(q=3, n=2, D=2, workers=1))
        par = oc.components(oc.EnumSpec(q=3, n=2, D=2, workers=2))
        assert seq.edges == par.edges
        assert len(seq.components) == len(par.components)

    def test_import_loads_no_process_pool(self):
        # only workers > 1 starts a pool, so only that path imports it
        script = (
            "import sys, p1h, p1h.oracle; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=p1h_env(), check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"

    def test_worker_count_capped(self, monkeypatch):
        # the clamp alone: no process is started here
        cpus = os.cpu_count() or 1
        assert oc._worker_count(10**9) == cpus
        assert oc._worker_count(0) == 1 and oc._worker_count(-7) == 1
        assert len(oc._chunks(10**6, oc._worker_count(10**9))) <= cpus
        monkeypatch.setattr(oc.os, "cpu_count", lambda: None)
        assert oc._worker_count(8) == 1
        monkeypatch.setattr(oc.os, "cpu_count", lambda: 4)
        assert oc._worker_count(3) == 3 and oc._worker_count(64) == 4


def _naive_edges(spec):
    """Every candidate through its kernel's exact test, with no screen."""
    q, n, D, d = spec.q, spec.n, spec.depth, spec.d
    if spec.target == "ratfun":  # n = 3 over F_2, on bit-packed polynomials
        m = 6

        def exact(c):
            return oc._f2_n3_det(*(sum(b << i for i, b in enumerate(p)) for p in c)) == 1

        def shape(v):
            return v[:3], v[3:]
    elif spec.target == "symmat":
        idx = [(i, j) for i in range(n) for j in range(i, n)]
        m, shape = len(idx), tuple

        def exact(c):
            M = [[()] * n for _ in range(n)]
            for (i, j), v in zip(idx, c):
                M[i][j] = M[j][i] = v
            return len(oc._rdet(M, q)) == 1
    else:
        m = n * (1 + d)

        def shape(c):
            return c[:n], tuple(c[n * (1 + k) : n * (2 + k)] for k in range(d))

        def exact(c):
            return oc._pd_unimodular_kt(q, n, *shape(c))
    edges = set()
    for coords in itertools.product(oc._rpolys(q, D), repeat=m):
        if exact(coords):
            p0, p1 = (shape(tuple(oc._reval(p, t, q) for p in coords)) for t in (0, 1))
            if p0 != p1:
                edges.add((min(p0, p1), max(p0, p1)))
    return edges


def _naive_ratfun_n2_edges(q, D):
    """Every (a0, a1, b0, b1) of T-degree <= D whose Sylvester determinant
    of (X^2 + a1 X + a0, b1 X + b0) is a nonzero constant, with no solver."""
    one = (1,)
    edges = set()
    for a0, a1, b0, b1 in itertools.product(oc._rpolys(q, D), repeat=4):
        sylvester = [[one, a1, a0], [b1, b0, ()], [(), b1, b0]]
        if len(oc._rdet(sylvester, q)) == 1:
            p0, p1 = (
                tuple(tuple(oc._reval(p, t, q) for p in pair) for pair in ((a0, a1), (b0, b1)))
                for t in (0, 1)
            )
            if p0 != p1:
                edges.add((min(p0, p1), max(p0, p1)))
    return edges


class TestRatfunN2Solver:
    """The n = 2 kernel solves the resultant equation instead of walking
    candidates; its edge set is the one every candidate gives."""

    @pytest.mark.parametrize("q,D", [(2, 1), (3, 1), (2, 2)])
    def test_solver_matches_naive_loop(self, q, D):
        edges = oc.enumerate_edges(oc.EnumSpec(q=q, n=2, D=D))
        assert edges and edges == _naive_ratfun_n2_edges(q, D)

    @pytest.mark.parametrize("q,D", [(3, 2), (5, 1), (2, 3)])
    def test_chunks_carry_no_state(self, q, D):
        # each chunk builds its own tables: any split gives the same union
        total = (q ** (D + 1)) ** 2
        whole = oc._edges_ratfun_n2_chunk((q, D, 0, total))
        for cuts in ((1,), (total // 3, total // 2), (7, total - 7), tuple(range(1, total, 97))):
            bounds = (0,) + cuts + (total,)
            union = set()
            for lo, hi in zip(bounds, bounds[1:]):
                union |= oc._edges_ratfun_n2_chunk((q, D, lo, hi))
            assert union == whole, cuts


class TestScreenedKernels:
    """The brute-force kernels skip the exact test on candidates that cannot
    add an edge; the edge set is the one every candidate gives."""

    @pytest.mark.parametrize(
        "kw",
        [dict(q=2, n=3, D=1), dict(q=3, n=2, D=1, target="symmat"),
         dict(q=2, n=2, D=2, target="symmat"), dict(q=2, n=1, D=1, target="pd"),
         dict(q=3, n=1, D=1, target="pd"), dict(q=2, n=2, D=1, target="pd")],
        ids=["ratfun-2-3-1", "symmat-3-2-1", "symmat-2-2-2", "pd-2-1-1", "pd-3-1-1",
             "pd-2-2-1"],
    )
    def test_screen_matches_naive_loop(self, kw):
        spec = oc.EnumSpec(**kw)
        assert spec.work_estimate() <= 4096
        edges = oc.enumerate_edges(spec)
        assert edges and edges == _naive_edges(spec)

    def test_chunks_cover_every_candidate(self):
        # three bit-packed F_2 coordinates of T-degree <= 1, where the only
        # valid non-constant candidate is the one with code `code`: a chunk
        # finds its edge exactly when it holds that code
        polys = range(4)
        vals = [(x & 1, x.bit_count() & 1) for x in polys]
        for code in range(64):
            coords = (code % 4, code // 4 % 4, code // 16)
            ends = tuple(tuple(vals[r][t] for r in coords) for t in (0, 1))
            edge = {(min(ends), max(ends))} if ends[0] != ends[1] else set()

            def exact(c):
                return c == coords or max(c) < 2

            for lo, hi in ((0, 64), (0, code), (code, code + 1), (code + 1, 64), (1, 63)):
                got = oc._screened_edges(2, 3, polys, vals, (0, 1), exact, tuple, lo, hi)
                assert got == (edge if lo <= code < hi else set()), (code, lo, hi)

    @pytest.mark.parametrize(
        "target,q,n,D,count",
        [("ratfun", 7, 1, 2, 126), ("ratfun", 7, 2, 1, 23814), ("ratfun", 2, 3, 2, 366),
         ("ratfun", 5, 2, 1, 3800), ("ratfun", 3, 2, 2, 549),
         ("symmat", 5, 2, 1, 240), ("pd", 3, 1, 2, 276), ("pd", 2, 2, 1, 1062)],
    )
    def test_benchmark_grid_edge_counts(self, target, q, n, D, count):
        # the edge counts of the benchmark's grid cells, and of two more n = 2
        # cells, as the unscreened kernels and the earlier n = 2 solver gave them
        assert len(oc.enumerate_edges(oc.EnumSpec(q=q, n=n, D=D, target=target))) == count


class TestCrossCheck:
    def test_ratfun_f3_n2(self):
        cc = oc.cross_check(oc.EnumSpec(q=3, n=2, D=2))
        assert cc.agreement
        # predicted class count: one fiber per resultant value
        assert cc.fibers == 2

    def test_symmat_f3_n2(self):
        cc = oc.cross_check(oc.EnumSpec(q=3, n=2, D=2, target="symmat"))
        assert cc.agreement and cc.fibers == 2

    def test_symmat_f2_n2(self):
        cc = oc.cross_check(oc.EnumSpec(q=2, n=2, D=2, target="symmat"))
        assert cc.agreement and cc.fibers == 1

    def test_pd_f2(self):
        cc = oc.cross_check(oc.EnumSpec(q=2, n=2, D=1, target="pd", d=2))
        assert cc.agreement and cc.components == 1

    def test_bridging_when_depth_too_small(self):
        # D = 1 leaves degree-2 fibers split over F_3; bridging must close
        # them with verified certificates
        cc = oc.cross_check(oc.EnumSpec(q=3, n=2, D=1))
        assert cc.agreement
        if cc.components > cc.fibers:
            assert cc.bridges > 0


    def test_pd_bridge_verifies_once(self, monkeypatch):
        spec = oc.EnumSpec(q=3, n=2, D=1, target="pd")
        a, b = list(oc.enumerate_points(spec).values())[:2]
        calls = []
        verify = certify.verify
        monkeypatch.setattr(certify, "verify", lambda cert: calls.append(cert) or verify(cert))
        cert = oc._bridge(spec, a, b)
        assert cert is not None and len(calls) == 1
        assert (cert.source, cert.target) == (a, b) and cert.steps


class TestDegenerateCases:
    def test_pd_degree_zero(self):
        spec = oc.EnumSpec(q=3, n=0, target="pd")
        p = oc.point_object(spec, ((), ((), ())))
        assert p.n == 0 and p.A.coeffs == (1,)
        cc = oc.cross_check(spec)
        assert cc.agreement and cc.report.points == 1

    def test_f2_matrix_bridge_hyperbolic_to_identity(self):
        F2 = GF(2)
        Sa = SymMatrix.make(F2, [[0, 1], [1, 0]])
        Sb = SymMatrix.make(F2, [[1, 0], [0, 1]])
        cert = oc._matrix_bridge(Sa, Sb)
        assert cert.kind == "symmat" and cert.steps
        assert certify.verify(cert)


class TestMatrixBridge:
    """Matrix bridges are symmat certificates that certify.verify re-checks."""

    @staticmethod
    def _pairs(q, n, count):
        spec = oc.EnumSpec(q=q, n=n, D=1, target="symmat")
        fibers = {}
        for S in oc.enumerate_points(spec).values():
            fibers.setdefault(oc.point_invariant_key(spec, S), []).append(S)
        pairs = [(m[0], m[k]) for m in fibers.values() for k in range(1, len(m))]
        return pairs[:: max(1, len(pairs) // count)]

    def test_bridges_verify_over_f2_f3_f5(self):
        F2 = GF(2)
        alternating = SymMatrix.make(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        diagonal = SymMatrix.diagonal(F2, [1, 1, 1])
        pairs = [(alternating, diagonal), (diagonal, alternating)]
        pairs += self._pairs(2, 3, 6) + self._pairs(3, 2, 6) + self._pairs(5, 2, 6)
        pairs += self._pairs(3, 3, 4)
        for Sa, Sb in pairs:
            cert = oc._matrix_bridge(Sa, Sb)
            assert isinstance(cert, certify.Certificate) and cert.kind == "symmat"
            assert (cert.source, cert.target) == (Sa, Sb)
            assert certify.verify(cert), (Sa, Sb)
            assert certify.verify(certify.reverse_certificate(cert)), (Sa, Sb)
        # symmat certificates live in memory only: JSON refuses them
        with pytest.raises(FieldError):
            serial.certificate_to_json(cert)

    def test_bad_steps_rejected_with_their_index(self):
        Sa, Sb = self._pairs(5, 2, 1)[0]
        cert = oc._matrix_bridge(Sa, Sb)
        field, steps = cert.field, list(cert.steps)
        kt = PolyRing(field)
        k = len(steps) // 2
        # scale row and column 0 of step k by 1 + T: the T = 0 end is kept,
        # but the determinant picks up (1 + T)^2
        grow = Poly.make(field, [1, 1])
        rows = [list(r) for r in steps[k].rows]
        for j in range(len(rows)):
            rows[0][j] = rows[0][j] * grow
            rows[j][0] = rows[j][0] * grow
        bad = certify.Certificate(
            "symmat", field, tuple(steps[:k] + [SymMatrix.make(kt, rows)] + steps[k + 1:]),
            Sa, Sb,
        )
        res = certify.verify(bad)
        assert not res and res.step == k and "determinant" in res.reason
        # a constant step at another point is valid but does not chain
        assert steps[k].eval(0) != Sb
        shifted = SymMatrix.make(kt, [[Poly.make(field, [x]) for x in row] for row in Sb.rows])
        bad = certify.Certificate(
            "symmat", field, tuple(steps[:k] + [shifted] + steps[k:]), Sa, Sb
        )
        res = certify.verify(bad)
        assert not res and res.step == k and "endpoint" in res.reason
        res = certify.verify(certify.Certificate("symmat", field, cert.steps, Sb, Sb))
        assert not res and res.step == 0 and "endpoint" in res.reason


class TestUnpointedOracle:
    def test_f3_n1(self):
        rep = oc.unpointed_components(3, 1)
        assert rep.agreement and rep.components == 2

    def test_f5_n1(self):
        rep = oc.unpointed_components(5, 1)
        assert rep.agreement and rep.components == 2

    def test_edge_endpoints_are_not_rebuilt(self, monkeypatch):
        calls = []
        point_object = oc.point_object
        monkeypatch.setattr(
            oc, "point_object", lambda *args: calls.append(args) or point_object(*args)
        )
        rep = oc.unpointed_components(3, 2)
        assert rep.agreement and (rep.points, rep.components) == (216, 2)
        assert calls == []

    def test_rejected_edge_breaks_agreement_under_optimize(self):
        script = (
            "import p1h.certify\n"
            "from p1h import oracle\n"
            "p1h.certify.verify = lambda cert: False\n"
            "rep = oracle.unpointed_components(3, 1)\n"
            "print(rep.agreement, rep.edges_verified)\n"
        )
        assert run_optimized(script).split() == ["False", "0"]
