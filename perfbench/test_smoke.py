"""Smoke test of the benchmark harness at reduced order; takes seconds.

    python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_traced_and_untraced_paths_agree():
    plain, traced = _bench(0), _bench(1)
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0, result
    # Untraced runs are checked against the frozen counts and digest inside
    # run.py; the traced passes must report those same counts.
    for name, w in run.SMOKE.items():
        m = traced["metrics"]
        assert m[name + ".enumeration.emitted"]["value"] == w.instances
        assert m[name + ".varieties.checks"]["value"] == w.checks
        assert m[name + ".enumeration.labelled_count"]["value"] == w.labelled_top
        assert m[name + ".structure.malcev_calls"]["value"] == 6 * w.instances
        assert plain["metrics"][name + ".ok_frac"]["value"] == 1.0
    assert plain["attempted"] >= run.MIN_RUNS * len(run.SMOKE)


def test_frozen_output_check_rejects_a_wrong_report():
    w = run.SMOKE["enumerate-iso4"]
    assert run.check_output(w, 0, b"81\n") == ""
    assert "counts" in run.check_output(w, 0, b"80\n")
    assert "exit code" in run.check_output(w, 5, b"81\n")
    assert "sha256" in run.check_output(w, 0, b"81")
