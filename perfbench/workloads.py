"""The benchmark's workloads: how each is built, run and scored.

Every function here imports ``repro`` lazily, so ``rep.py`` can start its
set-up clock before the package is imported.

A workload's scorecard is the deterministic simulated outcome of one run
(summary, replica changes, events); its digest must be identical across
every repetition with the same seed, traced or not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: workload name -> one-line reason it is in the benchmark
WORKLOADS = {
    "ramp-managed": "discrete Fig. 9 ramp with Jade on: the per-request path "
    "(navigator, PLB, Tomcat, C-JDBC, MySQL x3, PS CPU, kernel) does the host work",
    "ramp-static": "the same ramp unmanaged (Fig. 8): one thrashing MySQL keeps "
    "PS queues deep and the Jade control plane absent",
    "ramp-fluid-1m": "1M-user fluid ramp: bypasses the per-request path; host "
    "time goes to the fluid engine, kernel and Jade sensors",
    "federation-2r": "two-region global ramp, one worker process per region: "
    "epoch barriers, pipe messaging and the global load balancer",
}

#: per-size knobs: ``scale`` compresses the discrete ramps' time axis,
#: ``fluid_stretch`` stretches the 1M-user ramp's, and ``shape_checks``
#: turns on the Fig. 5/8/9 checks, which only hold at full size
SIZES = {
    "full": {"managed_scale": 0.3, "static_scale": 1.0, "fluid_stretch": 4.0,
             "federation_scale": 0.3, "shape_checks": True},
    "tiny": {"managed_scale": 0.02, "static_scale": 0.02, "fluid_stretch": 0.05,
             "federation_scale": 0.02, "shape_checks": False},
}

#: workloads that report no latency percentile or SLO metric: a fluid
#: tick records one mean-latency sample for thousands of requests, so a
#: percentile over samples is not a percentile over requests
NO_LATENCY_METRICS = {"ramp-fluid-1m"}

#: the SLO of ``capacity.cost.slo_violation_time`` (s)
SLO_S = 0.25

#: Fig. 9's managed p95 stays under this (s); Fig. 8's static p95 must be
#: at least ten times it, so together the two checks give static >= 10x
#: managed without either run needing the other
MANAGED_P95_CEILING_S = 1.0


def _ramp_config(seed: int, scale: float, managed: bool):
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=managed,
    )


def _fluid_config(seed: int, stretch: float):
    from repro.workload.fluid_bench import million_config
    from repro.workload.profiles import RampProfile

    cfg = million_config(seed)
    p = cfg.profile
    return dataclasses.replace(
        cfg,
        profile=RampProfile(
            base=p.base,
            peak=p.peak_clients,
            step_clients=p.step_clients,
            warmup_s=p.warmup_s * stretch,
            step_period_s=p.step_period_s * stretch,
            cooldown_s=p.cooldown_s * stretch,
        ),
    )


def build(workload: str, seed: int, size: str):
    """The system config (single cluster) or federation spec to run."""
    knobs = SIZES[size]
    if workload == "ramp-managed":
        return _ramp_config(seed, knobs["managed_scale"], managed=True)
    if workload == "ramp-static":
        return _ramp_config(seed, knobs["static_scale"], managed=False)
    if workload == "ramp-fluid-1m":
        return _fluid_config(seed, knobs["fluid_stretch"])
    if workload == "federation-2r":
        from repro.federation.spec import global_ramp

        return global_ramp(regions=2, scale=knobs["federation_scale"], seed=seed)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def p95(values) -> float:
    """Nearest-rank p95 of per-request latency samples."""
    import numpy as np

    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("no latency samples")
    return float(v[int(np.ceil(0.95 * v.size)) - 1])


def _collector_outcome(collector, config) -> dict[str, Any]:
    """Simulated outcome of one cluster, from its metrics collector."""
    from repro.capacity.cost import slo_violation_time

    end = config.profile.duration_s + config.tail_s
    replicas = collector.tier_replicas
    return {
        "completed": collector.completed_requests,
        "failed": collector.failed_requests,
        "values": collector.latencies.values,
        "slo_violation_s": slo_violation_time(collector.latencies, 0.0, end, SLO_S),
        "node_hours": sum(s.integral(0.0, end) for s in replicas.values()) / 3600.0,
        "app_max": replicas["application"].max() if "application" in replicas else 1,
        "db_max": replicas["database"].max() if "database" in replicas else 1,
    }


def _digest(scorecard: Any) -> str:
    text = json.dumps(scorecard, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def score_system(system) -> dict[str, Any]:
    """Scorecard digest and simulated metrics of a finished cluster."""
    col = system.collector
    scorecard = {
        "summary": system.summary(),
        "replica_changes": {t: col.replica_changes(t) for t in sorted(col.tier_replicas)},
        "events": system.kernel.events_processed,
    }
    return _score([_collector_outcome(col, system.config)], scorecard,
                  system.kernel.events_processed)


def score_federation(result) -> dict[str, Any]:
    """Scorecard digest and simulated metrics of a finished federation;
    latency samples of all regions are merged before the percentile."""
    regions = [result.regions[name] for name in sorted(result.regions)]
    scorecard = {
        "regions": result.scorecards_json(),
        "events": result.events_processed,
    }
    out = _score(
        [_collector_outcome(r.run.collector, r.run.config) for r in regions],
        scorecard,
        result.events_processed,
    )
    epochs = result.config.epochs
    out["epochs_short"] = [
        r.name for r in regions
        if len(r.epoch_busy_s) != epochs or len(r.reports) != epochs
    ]
    return out


def _score(outcomes: list[dict], scorecard: dict, events: int) -> dict[str, Any]:
    import numpy as np

    values = np.concatenate([o["values"] for o in outcomes])
    return {
        "digest": _digest(scorecard),
        "events": events,
        "completed": sum(o["completed"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "latency_p95_s": p95(values),
        "slo_violation_s": sum(o["slo_violation_s"] for o in outcomes),
        "node_hours": sum(o["node_hours"] for o in outcomes),
        "app_max": max(o["app_max"] for o in outcomes),
        "db_max": max(o["db_max"] for o in outcomes),
    }


def check(workload: str, score: dict[str, Any], size: str) -> list[str]:
    """Problems with one run's simulated outcome (empty when correct)."""
    problems = []
    if score["completed"] <= 0:
        problems.append("no request completed")
    if score.get("epochs_short"):
        problems.append(f"regions {score['epochs_short']} did not finish all epochs")
    if not SIZES[size]["shape_checks"]:
        return problems
    p95 = score["latency_p95_s"]
    if workload in ("ramp-managed", "ramp-fluid-1m"):
        if (score["app_max"], score["db_max"]) != (2, 3):
            problems.append(
                f"peak replicas app x{score['app_max']:g} / db x{score['db_max']:g}, "
                "Fig. 5 peaks at app x2 / db x3"
            )
        if score["failed"]:
            problems.append(f"{score['failed']} failed requests")
    if workload == "ramp-managed" and p95 > MANAGED_P95_CEILING_S:
        problems.append(f"managed p95 {p95:.3f} s above {MANAGED_P95_CEILING_S} s")
    if workload == "ramp-static" and p95 < 10 * MANAGED_P95_CEILING_S:
        problems.append(
            f"static p95 {p95:.3f} s below 10x the managed ceiling "
            f"({10 * MANAGED_P95_CEILING_S} s)"
        )
    return problems
