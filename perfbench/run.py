"""Benchmark of the Jade reproduction: host cost and simulated fidelity.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs in a fresh
interpreter (``rep.py``) after one discarded warm-up, so set-up time is
measured from ``import repro`` with bytecode already compiled.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least :data:`MIN_REPS` times) and reports the medians of the end-to-end
metrics.  ``--trace 1`` runs it once untraced and once traced, and
reports the per-layer metrics.  Every repetition with one seed must give
the same scorecard digest, traced or not; a repetition that raises, fails
a check or disagrees counts all its simulated requests as failed.

Host times are reported at reference host speed (:func:`at_ref_speed`):
each timed piece of the work is scaled by a fixed reference loop timed
beside it, because the host's speed swings within a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits
non-zero without printing it when the program cannot be set up at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

#: repetitions measured per untraced run, whatever ``--seconds`` says
MIN_REPS = 3
#: wall-clock budget of one invocation, inside the 180 s one may take
BUDGET_S = 165.0

#: reference-loop time that defines the reference host speed (s)
REF_LOOP_NOMINAL_S = 0.007

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "sim_req_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_node_hours": "node-h",
}

PER_LAYER_UNITS = {
    "simulation.events": "count",
    "simulation.events_per_req": "events/req",
    "simulation.us_per_event": "us",
    "simulation.kernel.self_s": "s",
    "simulation.process.self_s": "s",
    "simulation.process.signals": "count",
    "simulation.resources.self_s": "s",
    "simulation.resources.submits": "count",
    "simulation.resources.depth_p99": "jobs",
    "cluster.self_s": "s",
    "cluster.run_jobs": "count",
    "legacy.self_s": "s",
    "legacy.requests": "count",
    "legacy.db_ops_per_req": "ops/req",
    "legacy.replays": "count",
    "workload.self_s": "s",
    "workload.interactions": "count",
    "workload.us_per_interaction": "us",
    "workload.fluid.self_s": "s",
    "workload.fluid.steps": "count",
    "workload.fluid.us_per_step": "us",
    "jade.self_s": "s",
    "jade.readings": "count",
    "jade.probe_samples": "count",
    "jade.reconfigs": "count",
    "jade.actuation_yield": "ratio",
    "metrics.self_s": "s",
    "metrics.samples": "count",
    "other.self_s": "s",
    "federation.coordinator_busy_s": "s",
    "federation.critical_path_s": "s",
    "federation.barrier_wait_s": "s",
    "federation.region_build_s": "s",
    "federation.updates_routed": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_x": "x",
    "trace.attributed_share": "ratio",
    "host.wall_s": "s",
    "host.setup_s": "s",
    "host.ref_loop_s": "s",
    "sim_latency_p95_ms": "ms",
    "sim_slo_violation_s": "s",
}


def run_rep(workload: str, seed: int, mode: str, size: str, deadline: float) -> dict:
    """One repetition in a fresh interpreter; ``{"error": ...}`` if it
    raised or overran the deadline."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--size", size]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the session also holds a federation's region workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} repetition overran the time budget"}
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"error": f"{mode} repetition exited {proc.returncode}: {tail}"}
    return json.loads(out.strip().splitlines()[-1])


def _layer_totals(traces: list[dict]) -> dict:
    """Per-layer self time and per-site counters summed over processes."""
    self_ns = {layer: 0 for layer in (*tracer_mod.LAYERS, "other")}
    calls, true_calls, incl_ns, depths = {}, {}, {}, {}
    for trace in traces:
        for site in trace["sites"]:
            self_ns[site["layer"]] += site["self_ns"]
            name = site["name"]
            calls[name] = calls.get(name, 0) + site["calls"]
            true_calls[name] = true_calls.get(name, 0) + site["true_calls"]
            incl_ns[name] = incl_ns.get(name, 0) + site["incl_ns"]
        for depth, n in trace["depths"].items():
            depths[int(depth)] = depths.get(int(depth), 0) + n
    return {"self_ns": self_ns, "calls": calls, "true_calls": true_calls,
            "incl_ns": incl_ns, "depths": depths}


def _p99(hist: dict[int, int]) -> float:
    total = sum(hist.values())
    if total == 0:
        return 0.0
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= 0.99 * total:
            return float(value)
    raise AssertionError("unreachable")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def at_ref_speed(raw_s: float, pieces: list[list[list[float]]]) -> float:
    """A host time scaled to the reference host.

    ``pieces[p][c]`` is ``[seconds, reference-loop seconds beside them]``
    for the ``c``-th timed piece of process ``p``; pieces with the same
    ``c`` ran side by side (federation workers between barriers), so the
    slowest sets the pace.  A piece scaled counts as long as it would have
    taken had the loop run in :data:`REF_LOOP_NOMINAL_S`; ``raw_s`` is
    scaled by the paced scaled total over the paced raw total."""
    steps = list(zip(*pieces))
    raw = sum(max(dt for dt, _ in step) for step in steps)
    scaled = sum(max(dt * REF_LOOP_NOMINAL_S / ref for dt, ref in step) for step in steps)
    return raw_s * scaled / raw


def per_layer_metrics(workload: str, untraced: dict, traced: dict) -> dict[str, float]:
    traces = traced["worker_traces"] if "worker_traces" in traced else [traced["trace"]]
    t = _layer_totals(traces)
    calls, incl = t["calls"], t["incl_ns"]

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def us_per_call(*names: str) -> float:
        return _ratio(sum(incl.get(name, 0) for name in names) / 1e3, n(*names))

    score = untraced["score"]
    events = score["events"]
    requests = n("PlbBalancer.handle")
    navigators = ("MixNavigator.next_interaction", "MarkovNavigator.next_interaction")
    actuations = ("TierManager.grow", "TierManager.shrink")
    reconfigs = sum(t["true_calls"].get(name, 0) for name in actuations)
    attributed = sum(t["self_ns"][layer] for layer in tracer_mod.LAYERS)
    fed = untraced.get("federation", {})
    metrics = {
        "simulation.events": events,
        "simulation.events_per_req": _ratio(events, score["completed"]),
        "simulation.us_per_event": _ratio(
            at_ref_speed(untraced["wall_s"], untraced["run_pieces"]) * 1e6, events),
        "simulation.process.signals": n("Signal.succeed"),
        "simulation.resources.submits": n("PsCpu.submit", "FifoCpu.submit"),
        "simulation.resources.depth_p99": _p99(t["depths"]),
        "cluster.run_jobs": n("Node.run_job"),
        "legacy.requests": requests,
        "legacy.db_ops_per_req": _ratio(
            n("MySqlServer.execute_read", "MySqlServer.execute_write",
              "MySqlServer.replay_write"), requests),
        "legacy.replays": n("MySqlServer.replay_write"),
        "workload.interactions": n(*navigators),
        "workload.us_per_interaction": us_per_call(*navigators),
        "workload.fluid.steps": n("FluidEngine.step"),
        "workload.fluid.us_per_step": us_per_call("FluidEngine.step"),
        "jade.readings": n("PolicyReactor.on_reading"),
        "jade.probe_samples": n("UtilizationSampler.sample"),
        "jade.reconfigs": reconfigs,
        "jade.actuation_yield": _ratio(reconfigs, n(*actuations)),
        "metrics.samples": n("MetricsCollector.record_latency"),
        "federation.coordinator_busy_s": fed.get("coordinator_busy_s", 0.0),
        "federation.critical_path_s": fed.get("critical_path_s", 0.0),
        "federation.barrier_wait_s": fed.get("barrier_wait_s", 0.0),
        "federation.region_build_s": fed.get("region_build_s", 0.0),
        "federation.updates_routed": fed.get("updates_routed", 0),
        "setup.import_s": untraced["import_s"],
        "setup.build_s": untraced["build_s"],
        "trace.overhead_x": traced["wall_s"] / untraced["wall_s"],
        "trace.attributed_share": _ratio(attributed, sum(tr["root_ns"] for tr in traces)),
        "host.wall_s": untraced["wall_s"],
        "host.setup_s": untraced["setup_s"],
        "host.ref_loop_s": statistics.median(
            ref for piece in untraced["run_pieces"] for _, ref in piece),
        "sim_latency_p95_ms": score["latency_p95_s"] * 1e3,
        "sim_slo_violation_s": score["slo_violation_s"],
    }
    if workload in workloads.NO_LATENCY_METRICS:
        metrics["sim_latency_p95_ms"] = metrics["sim_slo_violation_s"] = 0.0
    for layer, ns in t["self_ns"].items():
        metrics[f"{layer}.self_s"] = ns / 1e9
    return metrics


def end_to_end_metrics(reps: list[dict]) -> dict[str, float]:
    med = statistics.median
    walls = [at_ref_speed(r["wall_s"], r["run_pieces"]) for r in reps]
    return {
        "wall_ref_s": med(walls),
        "setup_s": med([at_ref_speed(r["setup_s"], r["setup_pieces"]) for r in reps]),
        "sim_req_per_ref_s": med([r["score"]["completed"] / w for r, w in zip(reps, walls)]),
        "peak_rss_mb": med([r["rss_mb"] for r in reps]),
        "sim_node_hours": reps[0]["score"]["node_hours"],
    }


def judge(workload: str, reps: list[dict], size: str) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every repetition.

    Simulated requests are the operations.  All repetitions share a seed,
    so their digests must agree; the odd one out (or all of them, with no
    majority) fails."""
    problems = [r["error"] for r in reps if "error" in r]
    ok = [r for r in reps if "error" not in r]
    per_rep = max((r["score"]["completed"] + r["score"]["failed"] for r in ok), default=1)
    digests = [r["score"]["digest"] for r in ok]
    majority = max(set(digests), key=digests.count) if digests else None
    if len(set(digests)) > 1:
        problems.append(f"scorecard digests differ across repetitions: {sorted(set(digests))}")
        if digests.count(majority) * 2 <= len(digests):
            majority = None
    attempted = failed = per_rep * (len(reps) - len(ok))
    for r in ok:
        score = r["score"]
        requests = score["completed"] + score["failed"]
        attempted += requests
        rep_problems = workloads.check(workload, score, size)
        problems.extend(rep_problems)
        if rep_problems or score["digest"] != majority:
            failed += requests
        else:
            failed += score["failed"]
    return not problems, max(attempted, 1), failed, problems


def write_trace(workload: str, seed: int, traced: dict) -> Path:
    """Write the traced run's span aggregates, one file per run."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    traces = {"main": traced["trace"]}
    for i, trace in enumerate(traced.get("worker_traces", [])):
        traces[f"worker{i}"] = trace
    path.write_text(json.dumps(traces, indent=1))
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="'tiny' is for the benchmark's own smoke tests")
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)

    warm = run_rep(args.workload, args.seed, "warmup", args.size, deadline)
    if "error" in warm:
        print(f"perfbench: cannot set up {args.workload}: {warm['error']}", file=sys.stderr)
        return 2

    reps: list[dict] = []
    if args.trace:
        untraced = run_rep(args.workload, args.seed, "untraced", args.size, deadline)
        traced = run_rep(args.workload, args.seed, "traced", args.size, deadline)
        reps = [untraced, traced]
    else:
        t0, longest = time.monotonic(), 0.0
        # start no repetition that could not finish before the deadline
        while deadline - time.monotonic() > 2 * longest and (
            len(reps) < MIN_REPS or time.monotonic() - t0 < args.seconds
        ):
            t = time.monotonic()
            reps.append(run_rep(args.workload, args.seed, "untraced", args.size, deadline))
            longest = max(longest, time.monotonic() - t)
    correct, attempted, failed, problems = judge(args.workload, reps, args.size)
    for problem in problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    ok = [r for r in reps if "error" not in r]
    if args.trace:
        if len(ok) < 2:
            return 1
        metrics = per_layer_metrics(args.workload, untraced, traced)
        units = PER_LAYER_UNITS
        path = write_trace(args.workload, args.seed, traced)
        print(f"perfbench: span aggregates written to {path.relative_to(ROOT)}",
              file=sys.stderr)
    else:
        if not ok:
            return 1
        metrics = end_to_end_metrics(ok)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
