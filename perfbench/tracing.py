"""Spans around the named public functions of each p1h layer.

The tracer rebinds each named function, in every p1h module that holds it
(a name imported with `from .fields import factorize` lives on in
`quadform`, `classify` and `certify` too), to a wrapper that records a
span: operation id, name, parent span, start and end.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time covered by its child spans.

Functions called about 10^5 times or more per run (Poly.make, field
operations) are deliberately not wrapped: their spans belong inside the
program, not around it.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

SPANS = {
    "expr": ("parse_ratfun",),
    "serial": ("certificate_to_json", "certificate_from_json"),
    "ratmap": ("mk_pointed", "oplus", "cf_expand", "eval_path"),
    "poly": ("resultant_nn", "bezout_pair"),
    "linalg": ("det", "solve_cramer"),
    "bezout_hankel": ("bezout_form", "f2_iso_inv"),
    "quadform": ("stable_invariant", "diagonalize", "hilbert_symbol"),
    "fields": ("factorize",),
    "classify": ("pointed_invariant", "pointed_equiv"),
    "certify": ("connect", "normal_form_cert", "diag_chain", "lift_chain_to_cert",
                "verify", "unpointed_connect", "pd_cert"),
    "oracle": ("enumerate_points", "enumerate_edges", "components", "cross_check",
               "unpointed_components"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "p1h" or name.startswith("p1h."))]


class Tracer:
    def __init__(self):
        self.op = array("l")
        self.name = array("h")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.open: list[list[int]] = []  # [span index, child ns]
        self.calls = Counter()
        self.self_ns = Counter()
        self.incl_ns = Counter()  # outermost spans of each name only
        self.depth = Counter()
        self.counts = Counter()
        self.op_id = 0
        self.t0 = perf_counter_ns()

    def install(self):
        """Wrap every named function; returns the names that were found."""
        import importlib

        found = []
        for k, qual in enumerate(SPAN_NAMES):
            mod, fn = qual.split(".")
            module = importlib.import_module("p1h." + mod)
            orig = getattr(module, fn, None)
            if orig is None:
                continue
            wrapper = self._wrap(k, qual, orig)
            for m in _modules():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
            found.append(qual)
        return found

    def _wrap(self, k, qual, fn):
        hook = getattr(self, "_on_" + qual.replace(".", "_"), None)

        def span(*args, **kwargs):
            idx = len(self.start)
            self.op.append(self.op_id)
            self.name.append(k)
            self.parent.append(self.open[-1][0] if self.open else -1)
            self.start.append(perf_counter_ns() - self.t0)
            self.end.append(0)
            self.open.append([idx, 0])
            self.depth[qual] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns() - self.t0
                self.end[idx] = end
                _, child = self.open.pop()
                dur = end - self.start[idx]
                self.calls[qual] += 1
                self.self_ns[qual] += dur - child
                self.depth[qual] -= 1
                if not self.depth[qual]:
                    self.incl_ns[qual] += dur
                if self.open:
                    self.open[-1][1] += dur
            if hook is not None:
                hook(args, out)
            return out

        span.__wrapped__ = fn
        return span

    # counts taken where the work happens
    def _on_certify_diag_chain(self, args, out):
        self.counts["certify.diag_chain.exhausted"] += type(out).__name__ == "Exhausted"

    def _on_certify_verify(self, args, out):
        self.counts["certify.verify.rejected"] += not out

    def _on_oracle_enumerate_edges(self, args, out):
        estimate = getattr(args[0], "work_estimate", None)
        self.counts["oracle.candidates"] += int(estimate()) if estimate else 0
        self.counts["oracle.edges"] += len(out)

    def _on_oracle_cross_check(self, args, out):
        self.counts["oracle.bridges"] += getattr(out, "bridges", 0)

    def write(self, path):
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.op[i], SPAN_NAMES[self.name[i]], self.parent[i],
                                     self.start[i], self.end[i]]) + "\n")
