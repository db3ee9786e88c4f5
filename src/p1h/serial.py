"""JSON encoding and decoding of points, invariants, and certificates.

Output is deterministic: scalar encodings are canonical (Q integers print
as ints, other rationals as "num/den"; F_p residues as ints), coefficient
lists run lowest degree first, and dictionaries are dumped with sorted
keys byte-stably.
"""
from __future__ import annotations

import json

from .classify import PdPoint, PointedInvariant, UnpointedInvariant, mk_pd
from .fields import FieldError, Rationals, field_from_name, field_name
from .certify import Certificate, PairStep
from .poly import Poly, PolyRing
from .ratmap import PointedRat, UnpointedRat, mk_pointed, mk_unpointed


def elem_to_json(field, a):
    if isinstance(field, Rationals):
        if a.denominator == 1:
            return int(a.numerator)
        return f"{a.numerator}/{a.denominator}"
    return int(a)


def elem_from_json(field, v):
    if isinstance(v, str):
        return field.parse(v)
    if type(v) is not int:
        raise FieldError(f"a coefficient is an integer or a string, not {v!r}")
    return field.from_int(v)


def poly_to_json(p: Poly):
    ring = p.ring
    if isinstance(ring, PolyRing):
        return [[elem_to_json(ring.base, c) for c in coeff.coeffs] for coeff in p.coeffs]
    return [elem_to_json(ring, c) for c in p.coeffs]


def poly_from_json(ring, data) -> Poly:
    """elem_from_json validates each coefficient and returns it canonical,
    so the lists are only trimmed, not coerced again."""
    if isinstance(ring, PolyRing):
        base = ring.base
        return Poly.trimmed(
            ring,
            [Poly.trimmed(base, [elem_from_json(base, c) for c in cs]) for cs in data],
        )
    return Poly.trimmed(ring, [elem_from_json(ring, c) for c in data])


def point_to_json(p):
    if isinstance(p, PointedRat):
        return {"A": poly_to_json(p.A), "B": poly_to_json(p.B)}
    if isinstance(p, UnpointedRat):
        f = p.field
        return {
            "A": [elem_to_json(f, a) for a in p.avec],
            "B": [elem_to_json(f, b) for b in p.bvec],
            "unpointed": True,
        }
    if isinstance(p, PdPoint):
        return {
            "A": poly_to_json(p.A),
            "Bs": [poly_to_json(B) for B in p.Bs],
        }
    raise FieldError(f"cannot serialize {p!r}")


def witt_to_json(field, witt):
    if witt is None:
        return {"rank": 0}
    if isinstance(field, Rationals):
        return {
            "rank": witt.rank,
            "disc": elem_to_json(field, witt.disc),
            "signature": list(witt.signature),
            "hasse": {str(p): v for p, v in witt.hasse},
        }
    if field.p == 2:
        return {"rank": witt.rank}
    return {
        "rank": witt.rank,
        "disc": "residue" if witt.disc == 1 else "nonresidue",
    }


def invariant_to_json(inv):
    field = inv.field
    if isinstance(inv, PointedInvariant):
        return {
            "degree": inv.n,
            "resultant": elem_to_json(field, inv.res),
            "witt": witt_to_json(field, inv.witt),
            "coherent": True,
        }
    if isinstance(inv, UnpointedInvariant):
        return {
            "degree": inv.n,
            "resultant_class": elem_to_json(field, inv.res_class)
            if inv.n
            else 1,
            "witt": witt_to_json(field, inv.witt),
        }
    raise FieldError(f"cannot serialize {inv!r}")


def step_to_json(kind, step):
    if kind == "pointed":
        return {"A": poly_to_json(step.A), "B": poly_to_json(step.B)}
    if kind == "unpointed":
        return {"A": poly_to_json(step.A), "B": poly_to_json(step.B), "n": step.n}
    return {
        "A": poly_to_json(step.A),
        "Bs": [poly_to_json(B) for B in step.Bs],
        "cofactors": [poly_to_json(c) for c in step.cofactors],
    }


SCHEMA = "p1h.certificate/1"


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": cert.kind,
        "field": field_name(cert.field),
        "source": point_to_json(cert.source),
        "target": point_to_json(cert.target),
        "steps": [step_to_json(cert.kind, s) for s in cert.steps],
    }


def point_from_json(kind, field, data):
    """A validated field point: the inverse of `point_to_json`."""
    if kind == "pointed":
        return mk_pointed(
            poly_from_json(field, data["A"]), poly_from_json(field, data["B"])
        )
    if kind == "unpointed":
        return mk_unpointed(
            field,
            [elem_from_json(field, a) for a in data["A"]],
            [elem_from_json(field, b) for b in data["B"]],
        )
    if kind == "pd":
        return mk_pd(
            poly_from_json(field, data["A"]),
            [poly_from_json(field, B) for B in data["Bs"]],
        )
    raise FieldError(f"unknown certificate kind {kind!r}")


def step_from_json(kind, kt, data, n):
    """A step as bare coefficient data, checked by `certify.verify` alone;
    an unpointed step must declare the source degree n."""
    if kind == "pd":
        return PdPoint(
            kt,
            len(data["Bs"]),
            poly_from_json(kt, data["A"]),
            tuple(poly_from_json(kt, B) for B in data["Bs"]),
            tuple(poly_from_json(kt, c) for c in data["cofactors"]),
        )
    A, B = poly_from_json(kt, data["A"]), poly_from_json(kt, data["B"])
    if kind == "pointed":
        return PairStep(kt, A.degree, A, B)
    if type(data["n"]) is not int or data["n"] != n:
        raise FieldError(f"unpointed step degree must be the source degree {n}")
    return PairStep(kt, n, A, B)


def certificate_from_json(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise FieldError("a certificate is a JSON object")
    if data.get("schema") != SCHEMA:
        raise FieldError(f"schema must be {SCHEMA!r}")
    if not isinstance(data["field"], str):
        raise FieldError("field must be a string")
    field = field_from_name(data["field"])
    kind = data["kind"]
    src = point_from_json(kind, field, data["source"])
    tgt = point_from_json(kind, field, data["target"])
    kt = PolyRing(field)
    steps = tuple(step_from_json(kind, kt, s, src.n) for s in data["steps"])
    return Certificate(kind, field, steps, src, tgt)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
