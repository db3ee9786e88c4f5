"""JSON encoding and decoding of points, invariants, and certificates.

Output is deterministic: scalar encodings are canonical (Q integers print
as ints, other rationals as "num/den"; F_p residues as ints), coefficient
lists run lowest degree first, and dictionaries are dumped with sorted
keys byte-stably.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .classify import PdPoint, PointedInvariant, UnpointedInvariant, mk_pd
from .fields import FieldError, Rationals, field_from_name, field_name
from .certify import Certificate, UnpointedStep
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
    return field.from_int(v) if not isinstance(field, Rationals) else Fraction(v)


def poly_to_json(p: Poly):
    ring = p.ring
    if isinstance(ring, PolyRing):
        return [[elem_to_json(ring.base, c) for c in coeff.coeffs] for coeff in p.coeffs]
    return [elem_to_json(ring, c) for c in p.coeffs]


def poly_from_json(ring, data) -> Poly:
    if isinstance(ring, PolyRing):
        return Poly.make(
            ring,
            [Poly.make(ring.base, [elem_from_json(ring.base, c) for c in cs]) for cs in data],
        )
    return Poly.make(ring, [elem_from_json(ring, c) for c in data])


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


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": "p1h.certificate/1",
        "kind": cert.kind,
        "field": field_name(cert.field),
        "source": point_to_json(cert.source),
        "target": point_to_json(cert.target),
        "steps": [step_to_json(cert.kind, s) for s in cert.steps],
    }


def certificate_from_json(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise FieldError("a certificate is a JSON object")
    field = field_from_name(data["field"])
    kind = data["kind"]
    kt = PolyRing(field)
    if kind == "pointed":
        src = mk_pointed(
            poly_from_json(field, data["source"]["A"]),
            poly_from_json(field, data["source"]["B"]),
        )
        tgt = mk_pointed(
            poly_from_json(field, data["target"]["A"]),
            poly_from_json(field, data["target"]["B"]),
        )
        steps = tuple(
            mk_pointed(poly_from_json(kt, s["A"]), poly_from_json(kt, s["B"]))
            for s in data["steps"]
        )
    elif kind == "unpointed":
        src = mk_unpointed(
            field,
            [elem_from_json(field, a) for a in data["source"]["A"]],
            [elem_from_json(field, b) for b in data["source"]["B"]],
        )
        tgt = mk_unpointed(
            field,
            [elem_from_json(field, a) for a in data["target"]["A"]],
            [elem_from_json(field, b) for b in data["target"]["B"]],
        )
        steps = tuple(
            UnpointedStep(
                kt, s["n"], poly_from_json(kt, s["A"]), poly_from_json(kt, s["B"])
            )
            for s in data["steps"]
        )
    elif kind == "pd":
        src = mk_pd(
            poly_from_json(field, data["source"]["A"]),
            [poly_from_json(field, B) for B in data["source"]["Bs"]],
        )
        tgt = mk_pd(
            poly_from_json(field, data["target"]["A"]),
            [poly_from_json(field, B) for B in data["target"]["Bs"]],
        )
        steps = tuple(
            PdPoint(
                kt,
                len(s["Bs"]),
                poly_from_json(kt, s["A"]),
                tuple(poly_from_json(kt, B) for B in s["Bs"]),
                tuple(poly_from_json(kt, c) for c in s["cofactors"]),
            )
            for s in data["steps"]
        )
    else:
        raise FieldError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, field, steps, src, tgt)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
