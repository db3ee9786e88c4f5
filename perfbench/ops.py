"""One benchmark operation per input kind, driven through the public p1h
API, with every output checked.

An operation fails when it raises, decides wrongly against the constructed
truth, returns EXHAUSTED or NotEquivalent on an equivalent pair, produces a
certificate that `verify` rejects or whose endpoints are not exactly the
inputs, or when the oracle disagrees or reports unexpected counts.  All but
the first two kinds of reason (exceptions and EXHAUSTED) are wrong answers.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from types import SimpleNamespace

from gen import GRID_CELLS

# Failure reasons that are not wrong answers: the program gave up or broke,
# but asserted nothing false.
NOT_WRONG = ("exception", "exhausted")

# Memoized functions whose cache_info() the benchmark reads after a run,
# keyed by the public name they serve.
CACHES = {
    "classify.pointed_invariant": ("classify", "_pointed_invariant_cached"),
    "certify.normal_form_cert": ("certify", "_normal_form_cert_cached"),
    "certify.diag_chain": ("certify", "_diag_chain_cached"),
    "certify.lift_chain_to_cert": ("certify", "_lift_chain_cached"),
}


def _cache(name):
    """The lru_cache-wrapped function, or None if missing, renamed or no
    longer an lru_cache -- later versions of p1h may bound or drop caches."""
    mod, attr = CACHES[name]
    fn = getattr(sys.modules.get("p1h." + mod), attr, None)
    return fn if hasattr(fn, "cache_info") and hasattr(fn, "cache_clear") else None


def _enc(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Runner:
    """Runs operations of one input set.  Layers are looked up on the module
    objects at call time, so spans installed by the tracer are seen."""

    def __init__(self, inputs: dict, tamper=None):
        import p1h.certify
        import p1h.classify
        import p1h.expr
        import p1h.fields
        import p1h.oracle
        import p1h.serial

        self.p1h = SimpleNamespace(
            certify=p1h.certify, classify=p1h.classify, expr=p1h.expr,
            fields=p1h.fields, oracle=p1h.oracle, serial=p1h.serial,
        )
        self.points = inputs["points"]
        self.tamper = tamper  # test hook: edits certificate JSON in flight
        self.stats = Counter()  # certificates, cert_bytes, cert_steps
        self.cleared = Counter()  # cache hits and misses before each clear

    def cache_readout(self):
        """{public name: (hits, misses, entries)} over the whole run, or
        None for a cache that is absent."""
        out = {}
        for name in CACHES:
            fn = _cache(name)
            if fn is None:
                out[name] = None
                continue
            info = fn.cache_info()
            out[name] = (info.hits + self.cleared[name, "hits"],
                         info.misses + self.cleared[name, "misses"], info.currsize)
        return out

    def _clear_caches(self):
        for name in CACHES:
            fn = _cache(name)
            if fn is not None:
                info = fn.cache_info()
                self.cleared.update({(name, "hits"): info.hits, (name, "misses"): info.misses})
                fn.cache_clear()

    def run(self, op):
        """(failure reason or None, indices of the points the operation used)."""
        try:
            return getattr(self, "_" + op[0])(*op[1:])
        except Exception as exc:  # a crash is a counted failure, not an abort
            return f"exception:{type(exc).__name__}", ()

    def _field(self, point):
        return self.p1h.fields.field_from_name(point["field"])

    def _certificate_round_trip(self, cert, source_enc, target_enc):
        serial, certify = self.p1h.serial, self.p1h.certify
        data = serial.certificate_to_json(cert)
        if self.tamper is not None:
            self.tamper(data)
        text = serial.dumps(data)
        self.stats.update(certificates=1, cert_bytes=len(text.encode()), cert_steps=len(data["steps"]))
        loaded = json.loads(text)
        try:
            cert = serial.certificate_from_json(loaded)
        except (ValueError, KeyError, TypeError):  # refused at load, as `p1h verify` does
            return "rejected"
        if not certify.verify(cert):
            return "rejected"
        if _enc(loaded["source"]) != source_enc or _enc(loaded["target"]) != target_enc:
            return "endpoint-mismatch"
        return None

    def _connect(self, pf, pg, decide, connect):
        certify = self.p1h.certify
        field = self._field(pf)
        f = self.p1h.expr.parse_ratfun(pf["text"], field)
        g = self.p1h.expr.parse_ratfun(pg["text"], field)
        if not decide(f, g):
            return "wrong-decision"
        out = connect(f, g)
        if out is certify.EXHAUSTED:
            return "exhausted"
        if isinstance(out, certify.NotEquivalent):
            return "not-equivalent"
        return self._certificate_round_trip(out, pf["enc"], pg["enc"])

    def _pointed(self, i, j):
        c = self.p1h.classify, self.p1h.certify
        return self._connect(self.points[i], self.points[j], c[0].pointed_equiv, c[1].connect), (i, j)

    def _unpointed(self, i, j):
        c = self.p1h.classify, self.p1h.certify
        return self._connect(self.points[i], self.points[j], c[0].unpointed_equiv,
                             c[1].unpointed_connect), (i, j)

    def _pd(self, i):
        point = self.points[i]
        field = self._field(point)
        A, *Bs = (self.p1h.expr.parse_poly(part, field) for part in point["text"].split(";"))
        cert = self.p1h.certify.pd_cert(self.p1h.classify.mk_pd(A, Bs))
        return self._certificate_round_trip(cert, point["enc"], point["target"]), (i,)

    def _decide(self, i, j, truth, tier):
        pf, pg = self.points[i], self.points[j]
        field = self._field(pf)
        f = self.p1h.expr.parse_ratfun(pf["text"], field)
        g = self.p1h.expr.parse_ratfun(pg["text"], field)
        if self.p1h.classify.pointed_equiv(f, g) != truth:
            return "wrong-decision", (i, j)
        return None, (i, j)

    def _cell(self, i):
        # every cell starts cold, as in a fresh interpreter, whatever ran before
        self._clear_caches()
        cell, oracle = GRID_CELLS[i], self.p1h.oracle
        if cell["target"] == "unpointed":
            rep = oracle.unpointed_components(cell["q"], cell["n"])
            agreement, got = rep.agreement, (rep.points, rep.components, rep.fibers, 0)
        else:
            spec = oracle.EnumSpec(q=cell["q"], n=cell["n"], D=cell["D"], target=cell["target"])
            cc = oracle.cross_check(spec)
            agreement = cc.agreement
            got = (cc.report.points, cc.components, cc.fibers, cc.bridges)
        if not agreement:
            return "oracle-disagreement", ()
        if got != (cell["points"], cell["components"], cell["fibers"], cell["bridges"]):
            return "oracle-count", ()
        return None, ()
