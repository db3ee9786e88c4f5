"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    assert gen.dumps(gen.build(workload, 7)) == gen.dumps(gen.build(workload, 7))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_gives_other_inputs_without_failures(workload):
    inputs = gen.build(workload, 8)
    assert gen.dumps(inputs) != gen.dumps(gen.build(workload, 7))
    runner = ops.Runner(inputs)
    blocks = 1 if workload in ("certify-fresh", "oracle-grid") else 3
    out = run._drive(runner, inputs["ops"], gen.BLOCK[workload], limit=blocks * gen.BLOCK[workload])
    assert len(out["lat"]) == blocks * gen.BLOCK[workload]
    assert not out["reasons"], out["reasons"]


def _tamper(data):
    """Change one coefficient after certificate_to_json."""
    coeffs = next(c for c in data["steps"][0]["A"] if c)
    coeffs[0] += 1


def test_tampered_certificate_counts_as_failed():
    inputs = gen.build("certify-shared", 1)
    first = next(op for op in inputs["ops"] if op[0] == "pointed")
    assert ops.Runner(inputs).run(first)[0] is None
    runner = ops.Runner(inputs, tamper=_tamper)
    out = run._drive(runner, [first], 1)
    assert out["reasons"] == {"rejected": 1}
    result = run._result(1, out["reasons"], {})
    assert result["failed"] == 1 and result["correct"] is False


def test_wrong_decision_counts_as_failed():
    inputs = gen.build("decide-q", 1)
    op = list(inputs["ops"][0])
    op[3] = not op[3]  # claim the opposite truth
    assert ops.Runner(inputs).run(op)[0] == "wrong-decision"


def test_missing_cache_is_reported_absent(monkeypatch):
    import p1h.certify

    monkeypatch.setattr(p1h.certify, "_diag_chain_cached", lambda *a: ())
    readout = ops.Runner(gen.build("oracle-grid", 1)).cache_readout()
    assert readout["certify.diag_chain"] is None
    assert readout["classify.pointed_invariant"] is not None


def test_fibers_match_the_program_invariant():
    import p1h

    F3 = p1h.GF(3)
    for k, fiber in enumerate(gen.fibers_n2(3)):
        invariants = {p1h.pointed_invariant(p1h.mk_pointed(p1h.poly(F3, A), p1h.poly(F3, B)))
                      for A, B in fiber}
        assert len(invariants) == 1, k


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
