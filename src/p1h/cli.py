"""Command-line interface.

Exit codes: 0 on success (and "equivalent"/"verified"), 1 for a negative
decision (not equivalent, verification failed) or a generated certificate
that fails its own verification, 2 for malformed input or a failed
self-check.  `--json` emits deterministic JSON on stdout.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import certify, classify, oracle, quadform, serial
from .bezout_hankel import SymMatrix, bezout_form, hankel_of
from .expr import ParseError, format_ratfun, parse_poly, parse_ratfun, parse_ratfun_sum
from .fields import FieldError, field_from_name
from .poly import PolyRing, poly_str
from .ratmap import PointedRat, RejectedPoint, UnpointedRat, cf_expand, compose, oplus
from .serial import dumps


# Caps on the size of what a command builds from one expression, each chosen
# so that the largest accepted input finishes in about 2 s on a 2-core
# machine over Q, the slower field: compose's output degree m*n (m*n = 1000
# takes about 1 s over Q, most of it in the output's remainder sequence;
# m*n = 2000 took 12 s), and the degree n of bezout and hankel, whose forms
# have n^2 entries (n = 64 takes about 2 s over Q, in the O(n^3) determinant
# and product check; n = 100 took 6 s).
MAX_COMPOSE_DEGREE = 1000
MAX_FORM_DEGREE = 64


class CliError(Exception):
    pass


def _field(args):
    try:
        return field_from_name(args.field)
    except FieldError as exc:
        raise CliError(str(exc))


def _quote(text: str) -> str:
    """The expression as an error message quotes it: whole up to 80
    characters, else its first 80 and its length (a parse error's
    position locates the fault in the rest)."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}... ({len(text)} characters)"


def _parse_fn(args, text, allow_sum=False, want_unpointed=False):
    field = _field(args)
    try:
        if want_unpointed and ";" in text:
            return _parse_unpointed_vectors(field, text)
        f = parse_ratfun_sum(text, field) if allow_sum else parse_ratfun(text, field)
    except (ParseError, RejectedPoint, FieldError) as exc:
        raise CliError(f"cannot parse {_quote(text)}: {exc}")
    if want_unpointed and isinstance(f, PointedRat):
        from .ratmap import unpointed_of_pointed

        return unpointed_of_pointed(f)
    if not want_unpointed and isinstance(f, UnpointedRat):
        raise CliError(
            f"{_quote(text)} is not pointed (numerator must be monic of larger degree)"
        )
    return f


def _parse_unpointed_vectors(field, text):
    try:
        apart, bpart = text.split(";")
        avec = [field.parse(tok) for tok in apart.split()]
        bvec = [field.parse(tok) for tok in bpart.split()]
        from .ratmap import mk_unpointed

        # input is written highest degree first
        return mk_unpointed(field, avec[::-1], bvec[::-1])
    except (ValueError, FieldError, RejectedPoint) as exc:
        raise CliError(f"bad unpointed vector {_quote(text)}: {exc}")


def _parse_pd(args, text):
    field = _field(args)
    parts = [p.strip() for p in text.split(";")]
    if len(parts) < 3:
        raise CliError("a P^d point needs 'A ; B1 ; B2 [; ...]'")
    try:
        A = parse_poly(parts[0], field)
        Bs = [parse_poly(p, field) for p in parts[1:]]
        return classify.mk_pd(A, Bs)
    except (ParseError, FieldError) as exc:
        raise CliError(f"bad P^d point {_quote(text)}: {exc}")


def _parse_kt_matrix(args, text):
    field = _field(args)
    kt = PolyRing(field)
    try:
        rows = [
            [parse_poly(e.strip(), field, var="T") for e in rowtxt.split(",")]
            for rowtxt in text.split(";")
        ]
        return SymMatrix.make(kt, rows)
    except (ParseError, FieldError) as exc:
        raise CliError(f"bad matrix {_quote(text)}: {exc}")


def _emit(args, payload, text):
    if getattr(args, "json", False):
        sys.stdout.write(dumps(payload))
    else:
        print(text)


def cmd_classify(args):
    if args.unpointed:
        u = _parse_fn(args, args.fn, want_unpointed=True)
        inv = classify.unpointed_invariant(u)
    else:
        f = _parse_fn(args, args.fn, allow_sum=True)
        inv = classify.pointed_invariant(f)
    payload = serial.invariant_to_json(inv)
    _emit(args, payload, json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_equiv(args):
    if args.unpointed:
        u1 = _parse_fn(args, args.f, want_unpointed=True)
        u2 = _parse_fn(args, args.g, want_unpointed=True)
        same = classify.unpointed_equiv(u1, u2)
    else:
        f = _parse_fn(args, args.f, allow_sum=True)
        g = _parse_fn(args, args.g, allow_sum=True)
        same = classify.pointed_equiv(f, g)
    _emit(args, {"equivalent": same}, "equivalent" if same else "not equivalent")
    return 0 if same else 1


def _write_certificate(args, cert) -> int:
    """Verify a freshly built certificate, then write it to --out or stdout;
    on a failed verification report the reason on stderr, write nothing and
    return 1."""
    res = certify.verify(cert)
    if not res:
        print(f"error: generated certificate fails verification: {res.reason}",
              file=sys.stderr)
        return 1
    payload = serial.certificate_to_json(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload))
        _emit(args, {"result": "ok", "steps": len(cert.steps)},
              f"certificate with {len(cert.steps)} steps written to {args.out}")
    else:
        _emit(args, payload, json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_certify(args):
    if args.unpointed:
        u1 = _parse_fn(args, args.f, want_unpointed=True)
        u2 = _parse_fn(args, args.g, want_unpointed=True)
        out = certify.unpointed_connect(u1, u2)
    else:
        f = _parse_fn(args, args.f, allow_sum=True)
        g = _parse_fn(args, args.g, allow_sum=True)
        out = certify.connect(f, g)
    if isinstance(out, certify.NotEquivalent):
        _emit(args, {"result": "not-equivalent", "reason": out.reason},
              f"not equivalent: {out.reason}")
        return 1
    return _write_certificate(args, out)


def cmd_verify(args):
    try:
        with open(args.certfile, encoding="utf-8") as fh:
            data = json.load(fh)
        cert = serial.certificate_from_json(data)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot load certificate: {exc}")
    res = certify.verify(cert)
    payload = {"verified": bool(res), "reason": res.reason}
    if res.step is not None:
        payload["step"] = res.step
    _emit(args, payload, f"{'OK' if res else 'FAIL'}: {res.reason}")
    return 0 if res else 1


def _form_degree_capped(f):
    if f.n > MAX_FORM_DEGREE:
        raise CliError(f"degree {f.n} exceeds the form cap MAX_FORM_DEGREE = {MAX_FORM_DEGREE}")
    return f


def cmd_bezout(args):
    f = _form_degree_capped(_parse_fn(args, args.fn, allow_sum=True))
    S = bezout_form(f)
    field = f.ring
    payload = {
        "matrix": [[serial.elem_to_json(field, x) for x in row] for row in S.rows],
        "det": serial.elem_to_json(field, S.det()),
        "resultant": serial.elem_to_json(field, f.res),
    }
    rows_txt = "\n".join(
        "[" + ", ".join(field.format(x) for x in row) + "]" for row in S.rows
    )
    _emit(args, payload, rows_txt)
    return 0


def cmd_hankel(args):
    f = _form_degree_capped(_parse_fn(args, args.fn, allow_sum=True))
    H = hankel_of(f)
    field = f.ring
    payload = {"s": [serial.elem_to_json(field, x) for x in H.s]}
    _emit(args, payload, "s = (" + ", ".join(field.format(x) for x in H.s) + ")")
    return 0


def cmd_oplus(args):
    f = _parse_fn(args, args.f, allow_sum=True)
    g = _parse_fn(args, args.g, allow_sum=True)
    h = oplus(f, g)
    _emit(args, serial.point_to_json(h), format_ratfun(h))
    return 0


def cmd_compose(args):
    f = _parse_fn(args, args.f, allow_sum=True)
    g = _parse_fn(args, args.g, allow_sum=True)
    if f.n * g.n > MAX_COMPOSE_DEGREE:
        raise CliError(f"output degree {f.n}*{g.n} = {f.n * g.n} exceeds the compose cap "
                       f"MAX_COMPOSE_DEGREE = {MAX_COMPOSE_DEGREE}")
    h = compose(f, g)
    _emit(args, serial.point_to_json(h), format_ratfun(h))
    return 0


def cmd_cfrac(args):
    f = _parse_fn(args, args.fn, allow_sum=True)
    exp = cf_expand(f)
    field = f.ring
    payload = {
        "terms": [
            {"P": serial.poly_to_json(P), "b": serial.elem_to_json(field, b)}
            for P, b in exp.terms
        ]
    }
    txt = "  ".join(f"({poly_str(P)})/{field.format(b)}" for P, b in exp.terms)
    _emit(args, payload, txt)
    return 0


def cmd_reduce_kt(args):
    S = _parse_kt_matrix(args, args.matrix)
    P, N = quadform.hermite_reduce(S)
    payload = {
        "P": [[serial.poly_to_json(e) for e in row] for row in P],
        "N": [[serial.poly_to_json(e) for e in row] for row in N.rows],
    }
    txt = "N =\n" + "\n".join(
        "[" + ", ".join(poly_str(e, "T") for e in row) + "]" for row in N.rows
    )
    _emit(args, payload, txt)
    return 0


def cmd_oracle(args):
    field = _field(args)
    if not hasattr(field, "p"):
        raise CliError("the oracle enumerates prime fields only")
    spec = oracle.EnumSpec(
        q=field.p,
        n=args.n,
        D=args.D,
        target=args.target,
        d=args.d,
        workers=args.workers,
    )
    # an unsupported or oversize cell is refused before any enumeration
    cc = oracle.cross_check(spec)
    payload = {
        "points": cc.report.points,
        "edges": cc.report.edges,
        "components": cc.components,
        "fibers": cc.fibers,
        "bridges": cc.bridges,
        "agreement": cc.agreement,
        "detail": cc.detail,
        "component_sizes": sorted(c["size"] for c in cc.report.components),
    }
    txt = (
        f"points={cc.report.points} edges={cc.report.edges} "
        f"components={cc.components} fibers={cc.fibers} "
        f"agreement={cc.agreement} ({cc.detail})"
    )
    _emit(args, payload, txt)
    return 0 if cc.agreement else 1


def cmd_pd_equiv(args):
    p1 = _parse_pd(args, args.p)
    p2 = _parse_pd(args, args.q_)
    same = classify.pd_equiv(p1, p2)
    _emit(args, {"equivalent": same}, "equivalent" if same else "not equivalent")
    return 0 if same else 1


def cmd_pd_certify(args):
    return _write_certificate(args, certify.pd_cert(_parse_pd(args, args.p)))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="p1h",
        description=(
            "Exact classification and certification of naive homotopy classes "
            "of rational functions"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, json_flag=True):
        p.add_argument("--field", default="Q", help="Q | F2 | F3 | F5 | Fp=101")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("classify", help="invariants of a rational function")
    common(p)
    p.add_argument("--unpointed", action="store_true")
    p.add_argument("fn")
    p.set_defaults(fn_=cmd_classify)

    p = sub.add_parser("equiv", help="decide naive homotopy equivalence")
    common(p)
    p.add_argument("--unpointed", action="store_true")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn_=cmd_equiv)

    p = sub.add_parser("certify", help="produce a homotopy certificate")
    common(p)
    p.add_argument("--unpointed", action="store_true")
    p.add_argument("--out", help="write the certificate JSON to a file")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn_=cmd_certify)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--json", action="store_true")
    p.add_argument("certfile")
    p.set_defaults(fn_=cmd_verify)

    p = sub.add_parser("bezout", help="Bezout form of a rational function")
    common(p)
    p.add_argument("fn")
    p.set_defaults(fn_=cmd_bezout)

    p = sub.add_parser("hankel", help="Hankel inverse data of the Bezout form")
    common(p)
    p.add_argument("fn")
    p.set_defaults(fn_=cmd_hankel)

    p = sub.add_parser("oplus", help="monoid sum of two functions")
    common(p)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn_=cmd_oplus)

    p = sub.add_parser("compose", help="composition of two functions")
    common(p)
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(fn_=cmd_compose)

    p = sub.add_parser("cfrac", help="twisted continued fraction expansion")
    common(p)
    p.add_argument("fn")
    p.set_defaults(fn_=cmd_cfrac)

    p = sub.add_parser(
        "reduce-kt", help="block-reduce a symmetric matrix over k[T]"
    )
    common(p)
    p.add_argument("matrix", help="rows ';'-separated, entries ','-separated polynomials in T")
    p.set_defaults(fn_=cmd_reduce_kt)

    p = sub.add_parser("oracle", help="exhaustive finite-field cross-check")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--target", choices=["ratfun", "symmat", "pd"], default="ratfun")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn_=cmd_oracle)

    p = sub.add_parser("pd-equiv", help="equivalence of maps to P^d")
    common(p)
    p.add_argument("p")
    p.add_argument("q_", metavar="q")
    p.set_defaults(fn_=cmd_pd_equiv)

    p = sub.add_parser("pd-certify", help="certificate for a map to P^d")
    common(p)
    p.add_argument("--out")
    p.add_argument("p")
    p.set_defaults(fn_=cmd_pd_certify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn_(args)
    except (CliError, FieldError) as exc:
        # a FieldError that reaches here is a refusal of the input (a degree
        # a command does not take, mismatched targets, an unsupported cell)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RejectedPoint as exc:
        print(f"error: rejected input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
