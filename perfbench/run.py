"""The p1h benchmark: one command per workload run.

    python3 perfbench/run.py --workload certify-fresh --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports p1h from ./src, generates the
workload's inputs from the seed as expression text, then drives the public
API in a closed loop (one client, workers=1, default interpreter flags, so
the self-check asserts stay on) until --seconds have passed, checking every
output.  It prints every metric by name with its unit, then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed list of
operations (gen.FIXED_BLOCKS blocks, whatever --seconds says) untraced in a
child interpreter, then replays the same list in this interpreter with spans
around each layer's public functions, and reports per-layer metrics; the
spans are written to perfbench/out/.  Both runs start with cold caches.

Exit codes: 0 when every answer was right, 1 on a wrong answer (the result
line is still printed), 2 when p1h cannot be imported from ./src.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import ceil, gcd
from pathlib import Path
from time import perf_counter

import gen
import tracing
from ops import NOT_WRONG, Runner

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# latency_tail_ms is this percentile of the run's operation latencies,
# chosen per workload so a run at the defining commit has at least ten
# samples beyond it -- except oracle-grid, whose 21-42 cell samples per run
# leave two to four beyond its p90.  decide-q takes p95, not p99: its p99 is
# the middle of the 2 % semiprime tier, about forty operations of 80-650 ms
# each, and spread by up to 0.24 between runs; p95 lies in the plain tier's
# upper tail, with about a hundred samples beyond it.
TAIL_PERCENTILE = {"certify-fresh": 85, "decide-q": 95, "oracle-grid": 90}
# certify-shared takes the latency with this many samples beyond it (its
# p99 at the defining commit, 2500-3300 operations a run).  Its slow
# operations are the first uses of its points, all within the first 2000
# operations, so a percentile fell as a run completed more operations (p99
# from 33 to 30 ms between 2000 and 2800 operations of one run), while a
# count from the top did not move.
TAIL_BEYOND = {"certify-shared": 30}


# setup_s is the median of this many rounds, each timing `import p1h` in a
# fresh interpreter plus one generation of the inputs.
SETUP_REPEATS = 7
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import p1h; print(time.perf_counter() - t)")

# The host's speed drifts by up to a factor of 1.6 over minutes, far more
# than the bounds allow, so every end-to-end timing is rescaled to a
# reference host speed: a fixed kernel of big-integer and Fraction
# arithmetic, independent of p1h, is timed in the same process before each
# setup round and at least every CAL_EVERY_S seconds of the loop, and a time
# t is reported as t * CAL_REF_S / (mean kernel time).  The mean, not the
# median, because slow spells of the host lengthen the loop's total time in
# proportion to how long they last.  The text output keeps the raw values.
CAL_REF_S = 0.004
CAL_EVERY_S = 0.25


def _import_p1h():
    """Import p1h from ./src and nowhere else."""
    if not (SRC / "p1h" / "__init__.py").is_file():
        raise ImportError(f"no p1h package under {SRC}")
    sys.path.insert(0, str(SRC))
    import p1h

    if Path(p1h.__file__).resolve().parent != SRC / "p1h":
        raise ImportError(f"p1h was imported from {p1h.__file__}, not {SRC}")


def _kernel():
    m = (1 << 200) + 235
    x, total = 3, Fraction(0)
    for i in range(300):
        x = pow(x, 65537, m)
        total += Fraction(x % 100003 + 1, (x >> 7) % 1009 + 1)
        gcd(x, m - i)
    return total


class HostSpeed:
    """Samples of the calibration kernel's time over a run."""

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self, force=False):
        """Time the kernel three times if due; returns the seconds spent."""
        start = perf_counter()
        if not force and start - self.last < CAL_EVERY_S:
            return 0.0
        gc.disable()  # a collection of the program's garbage is not the host's speed
        try:
            for _ in range(3):
                t = perf_counter()
                _kernel()
                self.samples.append(perf_counter() - t)
        finally:
            gc.enable()
        self.last = perf_counter()
        return self.last - start

    def scale(self):
        """Factor taking a raw time to the reference host speed."""
        return CAL_REF_S / statistics.fmean(self.samples)


def _setup(workload, seed, host):
    """(inputs, median of setup rounds, median import, median generation)."""
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        host.sample(force=True)
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                               capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(child.stdout))
        t = perf_counter()
        inputs = gen.build(workload, seed)
        gens.append(perf_counter() - t)
    rounds = [a + b for a, b in zip(imports, gens)]
    return inputs, statistics.median(rounds), statistics.median(imports), statistics.median(gens)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _drive(runner, ops, block, seconds=None, limit=None, tracer=None, host=None, rss_after=None):
    """Closed loop over ops; stops at the limit, the end, or the first block
    boundary after the deadline.  Time spent sampling the host's speed
    counts neither towards the deadline nor towards any latency.  The peak
    RSS is read once rss_after operations are done, or at the end."""
    # The inputs are many small objects the garbage collector would rescan
    # on every full collection; freezing them keeps those pauses the
    # program's own.
    gc.collect()
    gc.freeze()
    lat, reasons, seen = [], Counter(), set()
    reused = 0
    paused = 0.0
    rss = None
    start = perf_counter()
    for k, op in enumerate(ops):
        if k == limit:
            break
        if seconds is not None and k % block == 0 and perf_counter() - start - paused >= seconds:
            break
        if host is not None:
            paused += host.sample()
        t = perf_counter()
        reason, used = runner.run(op)
        lat.append(perf_counter() - t)
        if reason:
            reasons[reason] += 1
        reused += any(u in seen for u in used)
        seen.update(used)
        if k + 1 == rss_after:
            rss = _peak_rss_mb()
        if tracer is not None:
            tracer.op_id += 1
    wall = perf_counter() - start - paused
    return {"lat": lat, "wall": wall, "reasons": reasons, "reused": reused,
            "rss_mb": _peak_rss_mb() if rss is None else rss}


def _percentile(values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _tail(workload, values):
    """(latency_tail_ms's sample, samples beyond it, how it was chosen)."""
    if workload in TAIL_BEYOND:
        beyond = min(TAIL_BEYOND[workload], len(values) - 1)
        return sorted(values)[-beyond - 1], beyond, f"rank {beyond + 1} from the top"
    p = TAIL_PERCENTILE[workload]
    return *_percentile(values, p), f"p{p}"


def _wrong(reasons):
    return sum(n for r, n in reasons.items() if not r.startswith(NOT_WRONG))


def _result(attempted, reasons, metrics):
    failed = sum(reasons.values())
    return {"correct": _wrong(reasons) == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_common(args, inputs, out, runner):
    n = len(out["lat"])
    reasons = out["reasons"]
    failed = sum(reasons.values())
    breakdown = ", ".join(f"{r}: {c}" for r, c in sorted(reasons.items())) or "none"
    print(f"failed_frac = {failed / n:.6g} ratio ({failed}/{n} failed; reasons: {breakdown})")
    stats = runner.stats
    if stats["certificates"]:
        print(f"cert_bytes_mean = {stats['cert_bytes'] / stats['certificates']:.6g} B "
              f"({stats['certificates']} certificates, {stats['cert_steps']} steps)")
    else:
        print("cert_bytes_mean = n/a B (this workload makes no certificates)")
    ops = inputs["ops"][:n]
    print(f"shared_point_frac = {out['reused'] / n:.4g} ratio "
          f"(operations with a point seen earlier in the run)")
    if args.workload == "decide-q":
        semi = sum(op[4] == "semiprime" for op in ops)
        print(f"semiprime_frac = {semi / n:.4g} ratio ({semi}/{n} operations)")
    if args.workload == "oracle-grid":
        k = len(gen.GRID_CELLS)
        passes = [sum(out["lat"][i:i + k]) for i in range(0, n, k)]
        print(f"grid_s = {statistics.median(passes):.6g} s (median of {len(passes)} passes over {k} cells)")
    if n == len(inputs["ops"]):
        print(f"note: all {n} generated operations ran before the time was up")
    for name, info in runner.cache_readout().items():
        if info is None:
            print(f"cache {name}: absent")
        else:
            hits, misses, size = info
            print(f"cache {name}: {hits} hits, {misses} misses, hit ratio "
                  f"{hits / max(1, hits + misses):.4g}, {size} entries")


def untraced(args):
    _import_p1h()
    host = HostSpeed()
    inputs, setup_s, import_s, gen_s = _setup(args.workload, args.seed, host)
    runner = Runner(inputs)
    block = gen.BLOCK[args.workload]
    fixed = gen.FIXED_BLOCKS[args.workload] * block
    host.sample(force=True)
    seconds = args.seconds if args.ops is None else None
    out = _drive(runner, inputs["ops"], block, seconds=seconds, limit=args.ops, host=host, rss_after=fixed)
    lat, n = out["lat"], len(out["lat"])
    tail, beyond, rule = _tail(args.workload, lat)
    raw = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / out["wall"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
    }
    scale = host.scale()
    metrics = {name: (v / scale if unit == "1/s" else v * scale, unit) for name, (v, unit) in raw.items()}
    metrics["peak_rss_mb"] = (out["rss_mb"], "MB")
    print(f"workload {args.workload}, seed {args.seed}: {n} operations in {n // block} blocks of {block} "
          f"(closed loop, one client, workers=1)")
    print(f"timed_s = {out['wall']:.6g} s")
    print(f"host_scale = {scale:.6g} ratio (reference kernel {CAL_REF_S * 1e3:g} ms over the mean "
          f"of {len(host.samples)} timings)")
    for name, (value, unit) in metrics.items():
        note = {
            "setup_s": f"median of {SETUP_REPEATS} rounds of import in a fresh interpreter plus input generation",
            "latency_tail_ms": f"{rule} of {n} samples, {beyond} beyond",
            "peak_rss_mb": f"ru_maxrss once {min(n, fixed)} operations were done",
        }.get(name, "")
        print(f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"setup_import_s = {import_s:.6g} s (median)")
    print(f"setup_gen_s = {gen_s:.6g} s (median)")
    for name, (value, unit) in raw.items():
        print(f"{name}.raw = {value:.6g} {unit} (not rescaled)")
    _print_common(args, inputs, out, runner)
    result = _result(n, out["reasons"], metrics)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def traced(args):
    n = gen.FIXED_BLOCKS[args.workload] * gen.BLOCK[args.workload]
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--ops", str(n)],
        capture_output=True, text=True, timeout=170,
    )
    if child.returncode != 0:
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        return child.returncode
    lines = child.stdout.strip().splitlines()
    if json.loads(lines[-1])["attempted"] != n:
        raise RuntimeError(f"the untraced run made {json.loads(lines[-1])['attempted']} operations, not {n}")
    untraced_wall = float(next(line.split()[2] for line in lines if line.startswith("timed_s = ")))

    _import_p1h()

    inputs = gen.build(args.workload, args.seed)
    tracer = tracing.Tracer()
    missing = sorted(set(tracing.SPAN_NAMES) - set(tracer.install()))
    runner = Runner(inputs)
    out = _drive(runner, inputs["ops"], gen.BLOCK[args.workload], limit=n, tracer=tracer)
    overhead = (out["wall"] - untraced_wall) / untraced_wall

    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for name, info in runner.cache_readout().items():
        hits, misses = info[:2] if info else (0, 0)
        metrics[f"{name}.hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    metrics["certify.diag_chain.exhausted_ratio"] = (
        counts["certify.diag_chain.exhausted"] / max(1, calls["certify.diag_chain"]), "ratio")
    metrics["certify.verify.reject_ratio"] = (
        counts["certify.verify.rejected"] / max(1, calls["certify.verify"]), "ratio")
    stats = runner.stats
    metrics["certify.steps"] = (stats["cert_steps"], "count")
    metrics["serial.json_bytes"] = (stats["cert_bytes"], "B")
    metrics["cert_bytes_mean"] = (stats["cert_bytes"] / max(1, stats["certificates"]), "B")
    for name in ("oracle.candidates", "oracle.edges", "oracle.bridges"):
        metrics[name] = (counts[name], "count")
    metrics["oracle.edge_yield"] = (counts["oracle.edges"] / max(1, counts["oracle.candidates"]), "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    total_self = sum(self_ns.values()) or 1
    incl = tracer.incl_ns
    print(f"workload {args.workload}, seed {args.seed}: {n} operations traced in {out['wall']:.3f} s, "
          f"untraced {untraced_wall:.3f} s in a fresh interpreter; trace.overhead_frac = {overhead:.4g}")
    if missing:
        print(f"spans absent from p1h: {', '.join(missing)}")
    print(f"{'span':40s} {'calls':>9s} {'self_s':>10s} {'share':>7s} {'incl_s':>10s}")
    for name in sorted(tracing.SPAN_NAMES, key=lambda s: -self_ns[s]):
        print(f"{name:40s} {calls[name]:9d} {self_ns[name] / 1e9:10.4f} "
              f"{self_ns[name] / total_self:7.1%} {incl[name] / 1e9:10.4f}")
    print(f"(share: of all self time in spans; incl_s: outermost spans of the name, children "
          f"included; operation wall time {out['wall']:.4f} s)")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")):
            print(f"{name} = {value:.6g} {unit}")
    _print_common(args, inputs, out, runner)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"spans: {len(tracer.start)} written to {path.relative_to(HERE.parent)}")
    result = _result(n, out["reasons"], metrics)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, help="with --trace 0, run exactly this many operations "
                    "instead of for --seconds (the traced run's untraced reference)")
    args = ap.parse_args(argv)
    try:
        return traced(args) if args.trace else untraced(args)
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
