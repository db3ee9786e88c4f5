"""Repeat benchmark runs and summarize them.

    python3 perfbench/baseline.py --runs 10 --out perfbench/results/baseline.json

Run from the repository root.  For each workload it makes --runs untraced
runs with seeds first-seed, first-seed+1, ..., one after another, then one
traced run with the first seed, and writes the median, quartiles and
spread ((q3 - q1) / median, as statistics.quantiles(values, n=4) gives
them) of every end-to-end metric, the same for the loop timings before
their rescaling to the reference host speed (`end_to_end_raw`), the
measured shares each workload isolates, and the traced per-layer table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^([a-z_][\w.]*) = (\S+) (\S+)")


def run_once(workload, seed, seconds, trace):
    """(result object, {name: value} from the text lines) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    text = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m and m.group(2) != "n/a":
            text[m.group(1)] = float(m.group(2))
    return json.loads(lines[-1]), text


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=list(gen.WORKLOADS))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    out = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for w in args.workloads:
        results, texts = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, text = run_once(w, seed, bench["run_seconds"], 0)
            results.append(res)
            texts.append(text)
            print(w, seed, json.dumps(res["metrics"]), flush=True)
        entry = {
            "why": whys.get(w),
            "mix": gen.MIX[w],
            "left_out": gen.LEFT_OUT.get(w, []),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results])
                | {"unit": results[0]["metrics"][name]["unit"], "bound": bounds.get(name)}
                for name in results[0]["metrics"]
            },
            "end_to_end_raw": {
                name: summary([t[f"{name}.raw"] for t in texts])
                for name in results[0]["metrics"] if f"{name}.raw" in texts[0]
            },
            "measured": {
                name: summary([t[name] for t in texts])
                for name in sorted(set.intersection(*(set(t) for t in texts)))
                if name not in results[0]["metrics"] and not name.endswith(".raw")
            },
        }
        if w == "oracle-grid":
            entry["cells"] = [dict(c) for c in gen.GRID_CELLS]
        for name, s in entry["end_to_end"].items():
            raw = entry["end_to_end_raw"].get(name)
            print(f"  {name}: median {s['median']:.6g} spread {s['spread']:.3f} (bound {s['bound']})"
                  + (f", raw spread {raw['spread']:.3f}" if raw else ""), flush=True)
        res, text = run_once(w, args.first_seed, bench["run_seconds"], 1)
        entry["traced"] = {"seed": args.first_seed, "attempted": res["attempted"],
                           "failed": res["failed"],
                           "per_layer": {k: v["value"] for k, v in res["metrics"].items()}}
        out["workloads"][w] = entry
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
