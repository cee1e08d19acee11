"""Exporting experiment results.

Turns a :class:`~repro.metrics.collector.MetricsCollector` into portable
artifacts: long-format CSV rows (one per series sample — convenient for
pandas/gnuplot) and a JSON document with the summary statistics, replica
staircases and the reconfiguration event log — plus the canonical JSON
every multi-seed scorecard is written in.
"""

from __future__ import annotations

import csv
import json
from typing import Iterator, Optional

from repro.metrics.collector import MetricsCollector


def series_rows(
    collector: MetricsCollector, bucket_s: float = 10.0
) -> Iterator[tuple[str, float, float]]:
    """Yield (series name, time, value) rows for every collected series.

    Continuous series (latency, CPU) are bucketed to ``bucket_s`` to keep
    exports small; step series (replicas, workload) export their change
    points exactly.
    """
    for t, v in collector.latencies.bucket_mean(bucket_s):
        yield "latency_s", t, v
    for tier, series in sorted(collector.tier_cpu.items()):
        for t, v in series.bucket_mean(bucket_s):
            yield f"cpu[{tier}]", t, v
    for tier, series in sorted(collector.tier_cpu_raw.items()):
        for t, v in series.bucket_mean(bucket_s):
            yield f"cpu_raw[{tier}]", t, v
    for tier, series in sorted(collector.tier_replicas.items()):
        for t, v in series.changes:
            yield f"replicas[{tier}]", t, v
    for t, v in collector.workload.changes:
        yield "clients", t, v
    if len(collector.node_cpu):
        for t, v in collector.node_cpu.bucket_mean(bucket_s):
            yield "node_cpu", t, v
        for t, v in collector.node_memory.bucket_mean(bucket_s):
            yield "node_memory", t, v


def write_csv(
    collector: MetricsCollector, path: str, bucket_s: float = 10.0
) -> int:
    """Write the long-format CSV; returns the number of data rows."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "t_s", "value"])
        for name, t, v in series_rows(collector, bucket_s):
            writer.writerow([name, f"{t:.3f}", f"{v:.6g}"])
            count += 1
    return count


def to_json_dict(
    collector: MetricsCollector,
    horizon_s: Optional[float] = None,
    tracer=None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> dict:
    """A JSON-serializable report of the run.  When a decision ``tracer``
    is supplied, its per-run summary (event counts, decisions by reason,
    reconfiguration durations) is included under ``"trace"``; ``seed``
    records the experiment seed so the run can be replayed exactly.
    ``extra`` merges caller-computed top-level sections (e.g. the
    recovery command's MTTR/availability block); a key colliding with a
    core report section raises instead of silently overwriting it."""
    stats = collector.latency_summary()
    report = {
        "requests": {
            "completed": collector.completed_requests,
            "failed": collector.failed_requests,
            "error_rate": collector.error_rate(),
        },
        "latency_s": {k: v for k, v in stats.items()},
        "replicas": {
            tier: [[t, v] for t, v in series.changes]
            for tier, series in sorted(collector.tier_replicas.items())
        },
        "reconfigurations": [[t, d] for t, d in collector.reconfigurations],
    }
    if seed is not None:
        report["seed"] = seed
    if horizon_s is not None and collector.completed_requests:
        report["throughput_rps"] = collector.throughput(0.0, horizon_s)
    if tracer is not None:
        report["trace"] = tracer.summary()
    if extra:
        colliding = sorted(set(extra) & set(report))
        if colliding:
            raise ValueError(
                f"extra section would overwrite core report key(s): "
                f"{', '.join(colliding)}"
            )
        report.update(extra)
    return report


def write_json(
    collector: MetricsCollector,
    path: str,
    horizon_s: Optional[float] = None,
    tracer=None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> None:
    with open(path, "w") as fh:
        json.dump(
            to_json_dict(collector, horizon_s, tracer=tracer, seed=seed, extra=extra),
            fh,
            indent=2,
        )


def _canonical(value):
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        if value != value:
            return None  # NaN is not valid JSON; canonicalize to null
        return round(value, 9)
    return value


def scorecard_json(scorecard: dict) -> str:
    """Canonical JSON: sorted keys, floats rounded to 9 decimals, NaN →
    null.  Two runs of the same scenario + seeds — serial, parallel or
    cache-resolved — must produce byte-identical output."""
    return json.dumps(_canonical(scorecard), indent=2, sort_keys=True) + "\n"
