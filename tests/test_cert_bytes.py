"""Pinned certificate bytes: a fixed, seeded list of certificates must
serialize to exactly the same JSON text, so that refactors of certificate
generation keep the format and the paths they produce."""
import hashlib
import random
from fractions import Fraction

from p1h.certify import _represent, connect, normal_form_cert, pd_cert, unpointed_connect, verify
from p1h.classify import mk_pd, pointed_invariant, unpointed_invariant
from p1h.fields import GF, QQ, FieldError
from p1h.poly import Poly
from p1h.ratmap import RejectedPoint, ga_act, mk_unpointed, monomial_sum
from p1h.serial import certificate_to_json, dumps

from conftest import random_point

# sha256 of the newline-joined `dumps(certificate_to_json(c))` texts below
PINNED_SHA256 = "dafb1f99c456ca3019d0964ab8a80c198b952aa5991573bc4fed2ecd81dc1e48"
PINNED_COUNT = 15
# sha256 of the same texts for PLACEMENT_PAIRS, Q pairs whose first sweep
# move does not exist, so their chains go through a placement step
PLACEMENT_SHA256 = "b5f2c9b93e57ca863540a72650c3d79aa5e2202d304d410cbd3dbe87a9423561"
PLACEMENT_PAIRS = [
    ((1, 1, 1), (3, 2, "1/6")),
    ((-7, "1/2", -1, 13), (5, -1, 2, "-91/20")),
    ((5, -6, 3, -5, 10), (10, -11, 2, -3, "75/11")),
]


def _equivalent_pairs(points, key, k):
    """The first k pairs (earlier, later) of distinct points with equal key."""
    seen, out = {}, []
    for p in points:
        kp = key(p)
        for q in seen.get(kp, ()):
            if len(out) < k:
                out.append((q, p))
        seen.setdefault(kp, []).append(p)
    return out


def pinned_certificates():
    rng = random.Random(20261018)
    certs = []
    F5, F3 = GF(5), GF(3)
    # F5 n = 3 pointed: equivalent pairs found by sampling
    pts = [random_point(F5, 3, rng) for _ in range(30)]
    pts = list({f.key(): f for f in pts}.values())
    certs += [connect(f, g) for f, g in _equivalent_pairs(pts, pointed_invariant, 5)]
    # Q n = 2 pointed: a translate of a one-move partner of the normal form
    while len(certs) < 9:
        f = random_point(QQ, 2, rng)
        (u1, u2), _ = normal_form_cert(f)
        c = u1 * rng.randint(1, 3) ** 2 + u2 * rng.randint(0, 2) ** 2
        if c == 0:
            continue
        g = ga_act(Fraction(rng.randint(-2, 2)), monomial_sum(QQ, (c, u1 * u2 / c)))
        certs.append(connect(f, g))
    # F3 unpointed, degree 2
    ups = []
    while len(ups) < 12:
        vec = [rng.randrange(3) for _ in range(6)]
        try:
            ups.append(mk_unpointed(F3, vec[:3], vec[3:]))
        except (FieldError, RejectedPoint):
            continue
    ups = list({(u.avec, u.bvec): u for u in ups}.values())
    certs += [unpointed_connect(u, v) for u, v in _equivalent_pairs(ups, unpointed_invariant, 3)]
    # F3 maps to P^2 of degree 2
    while len(certs) < PINNED_COUNT:
        A = Poly.make(F3, [rng.randrange(3), rng.randrange(3), 1])
        Bs = [Poly.make(F3, [rng.randrange(3), rng.randrange(3)]) for _ in range(2)]
        try:
            p = mk_pd(A, Bs)
        except FieldError:
            continue
        certs.append(pd_cert(p))
    return certs


def test_pinned_certificate_bytes():
    certs = pinned_certificates()
    assert len(certs) == PINNED_COUNT
    assert sorted({c.kind for c in certs}) == ["pd", "pointed", "unpointed"]
    assert all(verify(c) for c in certs)
    assert sum(len(c.steps) for c in certs) > 2 * PINNED_COUNT
    text = "\n".join(dumps(certificate_to_json(c)) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


def test_pinned_placement_certificate_bytes():
    certs = []
    for us, vs in PLACEMENT_PAIRS:
        us, vs = tuple(map(Fraction, us)), tuple(map(Fraction, vs))
        assert _represent(QQ, us[0], us[1], vs[0]) is None
        certs.append(connect(monomial_sum(QQ, us), monomial_sum(QQ, vs)))
    assert all(verify(c) for c in certs)
    text = "\n".join(dumps(certificate_to_json(c)) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == PLACEMENT_SHA256
