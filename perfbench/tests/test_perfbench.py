"""The benchmark's own tests: tiny-size smoke runs and the failure paths.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    if trace and workload != "federation-2r":
        assert out["metrics"]["trace.attributed_share"]["value"] >= 0.95


def _rep(digest: str, completed: int = 100, failed: int = 0) -> dict:
    return {"score": {"digest": digest, "completed": completed, "failed": failed,
                      "events": 10 * completed, "epochs_short": []}}


def test_perturbed_digest_is_a_failure():
    correct, attempted, failed, problems = run.judge(
        "ramp-managed", [_rep("a"), _rep("a"), _rep("b")], "tiny")
    assert not correct
    assert (attempted, failed) == (300, 100)
    assert any("digests differ" in p for p in problems)


def test_traced_digest_must_match_untraced():
    correct, attempted, failed, _ = run.judge(
        "ramp-static", [_rep("untraced"), _rep("traced")], "tiny")
    assert not correct
    assert (attempted, failed) == (200, 200)


def test_raising_repetition_fails_a_whole_repetition_of_requests():
    correct, attempted, failed, _ = run.judge(
        "ramp-static", [_rep("a"), {"error": "exited 1"}], "tiny")
    assert not correct
    assert (attempted, failed) == (200, 100)


def test_shape_checks():
    score = {"completed": 10, "failed": 0, "latency_p95_s": 0.3,
             "app_max": 2, "db_max": 3}
    assert workloads.check("ramp-managed", score, "full") == []
    assert workloads.check("ramp-managed", {**score, "db_max": 2}, "full")
    assert workloads.check("ramp-managed", {**score, "latency_p95_s": 2.0}, "full")
    assert workloads.check("ramp-static", score, "full")
    assert workloads.check("ramp-static", {**score, "latency_p95_s": 20.0}, "full") == []


def test_p95_is_taken_over_merged_samples():
    assert workloads.p95(range(1, 101)) == 95.0
    # two regions: averaging their p95s would give 0.55 s
    assert workloads.p95([0.1] * 10 + [1.0] * 10) == 1.0
    with pytest.raises(ValueError):
        workloads.p95([])


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ramp-managed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
