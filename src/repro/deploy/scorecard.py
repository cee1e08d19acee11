"""Deployment scorecard.

Turns finished deploy runs into the numbers a zero-downtime story is
told with: pre/post goodput (did the system come back to steady state?),
rollback latency (bad push detected → stable again), capacity-in-flight
(minimum serving replicas, blackout seconds) and SLO violation time over
the bounce window — per seed, then aggregated across seeds with 95 %
confidence intervals.

Everything here is a pure function of :class:`CompletedRun` plain data
(the deploy manager's event/capacity logs and the collector), so the
scorecard of a cached or pool-worker run is byte-identical to a serial
one — :func:`~repro.metrics.export.scorecard_json` (shared with the
chaos and market scorecards) canonicalizes to make that testable.

The bounce-window SLO accounting is *failure-aware*, unlike
:func:`~repro.capacity.cost.slo_violation_time`: a ``brutal`` bounce's
blackout produces fast failures, not slow completions, so a bucket
counts as violating when its mean latency exceeds the SLO **or** any
request failed in it.  Without that, a total blackout would score as
zero violation seconds.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.metrics.stats import mean_ci


def violation_seconds(
    collector, t0: float, t1: float, slo_latency_s: float, bucket_s: float = 5.0
) -> float:
    """Seconds of [t0, t1) in buckets whose mean latency exceeds the SLO
    or in which at least one request failed (see module docstring)."""
    if t1 <= t0:
        return 0.0
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for t, v in collector.latencies.window(t0, t1):
        b = int((t - t0) // bucket_s)
        sums[b] = sums.get(b, 0.0) + v
        counts[b] = counts.get(b, 0) + 1
    bad = {b for b in sums if sums[b] / counts[b] > slo_latency_s}
    for t, _w in collector.failures.window(t0, t1):
        bad.add(int((t - t0) // bucket_s))
    return len(bad) * bucket_s


def _serving_steps(capacity, t0: float, t1: float) -> list[tuple[float, float, int]]:
    """The capacity timeline as (start, end, serving) steps clipped to
    [t0, t1]."""
    if t1 <= t0:
        return []
    serving = None
    start = t0
    steps: list[tuple[float, float, int]] = []
    for t, s, _total in capacity:
        if t <= t0:
            serving = s
            continue
        if t >= t1:
            break
        if serving is not None:
            steps.append((start, t, serving))
        start = t
        serving = s
    if serving is not None:
        steps.append((start, t1, serving))
    return steps


def score_run(run, slo_latency_s: float = 0.5) -> dict:
    """Per-run scorecard of one deploy execution (a :class:`CompletedRun`
    — or any object exposing ``config``/``collector``/``deploy``)."""
    dep = run.deploy
    if dep is None:
        raise ValueError("run has no deploy scenario attached")
    col = run.collector
    t_start, t_done = dep.started_t, dep.completed_t
    finished = t_start == t_start and t_done == t_done

    # Windows wide enough (90 s / 150 s) that closed-loop client noise
    # stays well inside the 5 % goodput-recovery gate per seed.
    pre_goodput = (
        col.throughput(max(0.0, t_start - 90.0), t_start) if finished else float("nan")
    )
    post_goodput = (
        col.throughput(t_done + 10.0, t_done + 160.0) if finished else float("nan")
    )
    goodput_ratio = (
        post_goodput / pre_goodput
        if finished and pre_goodput > 0.0
        else float("nan")
    )

    steps = _serving_steps(dep.capacity, t_start, t_done) if finished else []
    min_serving = min((s for _a, _b, s in steps), default=float("nan"))
    blackout_s = math.fsum(b - a for a, b, s in steps if s == 0)

    return {
        "seed": run.config.seed,
        "scenario": dep.scenario,
        "strategy": dep.strategy,
        "version": dep.version,
        "verdict": dep.verdict,
        "reason": dep.reason,
        "deploy_duration_s": (t_done - t_start) if finished else float("nan"),
        "rollback_latency_s": (
            (t_done - t_start)
            if finished and dep.verdict == "rolled-back"
            else float("nan")
        ),
        "pre_goodput_rps": pre_goodput,
        "post_goodput_rps": post_goodput,
        "goodput_ratio": goodput_ratio,
        "min_serving": min_serving,
        "blackout_s": blackout_s if finished else float("nan"),
        "bounce_slo_violation_s": (
            violation_seconds(col, t_start, t_done, slo_latency_s)
            if finished
            else float("nan")
        ),
        "canary_error_rate": dep.canary.get("canary_error_rate", float("nan")),
        "stable_error_rate": dep.canary.get("stable_error_rate", float("nan")),
        "completed_requests": col.completed_requests,
        "failed_requests": col.failed_requests,
    }


#: per-seed metrics aggregated with mean/ci95 across seeds
AGGREGATED = (
    "deploy_duration_s",
    "rollback_latency_s",
    "goodput_ratio",
    "pre_goodput_rps",
    "post_goodput_rps",
    "min_serving",
    "blackout_s",
    "bounce_slo_violation_s",
)


def score_scenario(scenario, runs: Sequence, slo_latency_s: float = 0.5) -> dict:
    """Multi-seed scorecard: per-seed rows plus mean/ci95 aggregates."""
    per_seed = [score_run(r, slo_latency_s) for r in runs]
    aggregate = {
        metric: mean_ci([row[metric] for row in per_seed])
        for metric in AGGREGATED
    }
    return {
        "scenario": scenario.name,
        "strategy": scenario.strategy,
        "version": scenario.version.label,
        "canary": scenario.canary,
        "slo_latency_s": slo_latency_s,
        "seeds": [row["seed"] for row in per_seed],
        "verdicts": [row["verdict"] for row in per_seed],
        "per_seed": per_seed,
        "aggregate": aggregate,
    }


def render_scorecard(scorecard: dict) -> list[str]:
    """Human-readable scorecard block for the CLI."""
    agg = scorecard["aggregate"]

    def fmt(metric: str, scale: float = 1.0, unit: str = "") -> str:
        s = agg[metric]
        if s["n"] == 0 or s["mean"] != s["mean"]:
            return "n/a"
        return f"{s['mean'] * scale:.2f} ± {s['ci95'] * scale:.2f}{unit}"

    verdicts = scorecard["verdicts"]
    lines = [
        f"Deploy '{scorecard['scenario']}' -> {scorecard['version']} "
        f"({scorecard['strategy']}"
        + (", canary" if scorecard["canary"] else ", no canary")
        + f"; seeds: {', '.join(str(s) for s in scorecard['seeds'])})",
        "  verdicts            : "
        + ", ".join(str(v) for v in verdicts),
        f"  deploy duration     : {fmt('deploy_duration_s', unit=' s')}",
        f"  rollback latency    : {fmt('rollback_latency_s', unit=' s')}",
        f"  goodput post/pre    : {fmt('goodput_ratio', scale=100.0, unit=' %')}",
        f"  min serving replicas: {fmt('min_serving')}",
        f"  blackout            : {fmt('blackout_s', unit=' s')}",
        f"  SLO violation       : {fmt('bounce_slo_violation_s', unit=' s')} "
        f"(SLO {scorecard['slo_latency_s'] * 1000:.0f} ms, bounce window)",
    ]
    return lines
