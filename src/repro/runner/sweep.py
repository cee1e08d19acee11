"""``repro sweep`` — grid fan-out of experiments over the runner.

A sweep is the repo's generic parameter-exploration harness: the cross
product of seeds × time scales × replica policies × client cohort sizes,
each cell one :class:`~repro.jade.system.ExperimentConfig` ramp run,
fanned out through the :class:`~repro.runner.parallel.ExperimentRunner`
(process pool + content-addressed cache, so re-running a sweep with an
overlapping grid only computes the new cells).  Results flatten to one
row per cell — grid coordinates plus the standard run summary — written
as CSV (for plotting) and/or JSON (for programmatic diffing).

Policies:

* ``static``  — fixed one-replica tiers (the paper's unmanaged baseline);
* ``managed`` — the reactive self-sizing managers of §5.2;
* ``proactive`` — reactive managers plus the forecasting capacity planner.

The optional **fleet** axis crosses every cell with a node-market policy
(``--fleet on-demand,spot-heavy``): ``uniform`` is the paper's flat pool;
any other value names a :data:`repro.market.scenario.PRESETS` entry and
runs the cell on a heterogeneous fleet, adding a ``fleet_cost`` column.

The optional **controller** axis crosses every cell with a named
control-loop policy plugin (``--controllers
"default,queue-model,forecast:lead_s=90"``): ``default`` keeps each
cell's loop policy (the paper's threshold rule), any other value is a
:meth:`repro.policy.PolicyConfig.parse` string installed on both tier
loops.  Like the fleet/fluid axes, the label only grows a suffix off the
default, so pre-existing sweep labels (and cache keys) survive.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.runner.parallel import ExperimentRunner

POLICIES = ("static", "managed", "proactive")

#: per-cell summary columns (after the grid coordinates)
SUMMARY_FIELDS = (
    "completed",
    "failed",
    "throughput_rps",
    "latency_mean_ms",
    "latency_p95_ms",
    "app_replicas_max",
    "db_replicas_max",
    "node_cpu_mean",
    "node_mem_mean",
    "wall_time_s",
)


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a (policy, seed, scale, cohort, fleet, regions)
    coordinate.

    ``fluid`` switches the cell's workload onto the hybrid fluid/discrete
    engine (``fluid_threshold`` users and above run as flow updates).
    ``regions > 1`` federates the cell: the same ramp runs in every
    region under the global load balancer (``repro sweep --regions``),
    and the row reports the federation's global rollup."""

    policy: str
    seed: int
    scale: float
    cohort: int
    peak: int = 500
    fleet: str = "uniform"
    fluid: bool = False
    fluid_threshold: int = 0
    regions: int = 1
    controller: str = "default"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {POLICIES})"
            )
        if self.seed < 0 or self.scale <= 0 or self.cohort < 1:
            raise ValueError("need seed >= 0, scale > 0, cohort >= 1")
        if self.regions < 1:
            raise ValueError("need regions >= 1")
        if self.regions > 1 and self.fleet != "uniform":
            raise ValueError("federated cells support the uniform fleet only")
        if self.fleet != "uniform":
            from repro.market.scenario import PRESETS

            if self.fleet not in PRESETS:
                raise ValueError(
                    f"unknown fleet {self.fleet!r} (choose 'uniform' or one "
                    f"of {tuple(sorted(PRESETS))})"
                )
        if self.controller != "default":
            if self.regions > 1:
                raise ValueError(
                    "federated cells support the default controller only"
                )
            if self.policy == "static":
                raise ValueError(
                    "controller policies need managed loops "
                    "(policy 'managed' or 'proactive')"
                )
            from repro.policy import POLICIES as PLUGINS, PolicyConfig

            name = PolicyConfig.parse(self.controller).name
            if name not in PLUGINS:
                raise ValueError(
                    f"unknown controller policy {name!r} "
                    f"(have: {sorted(PLUGINS)})"
                )

    @property
    def label(self) -> str:
        # fleet/fluid suffixes only off the defaults, so pre-existing
        # sweep labels (and their cache keys) are unchanged
        suffix = "" if self.fleet == "uniform" else f"-f{self.fleet}"
        if self.fluid:
            suffix += f"-fluid{self.fluid_threshold}"
        if self.regions > 1:
            suffix += f"-r{self.regions}"
        if self.controller != "default":
            suffix += f"-p{self.controller}"
        return (
            f"{self.policy}-s{self.seed}-x{self.scale:g}-c{self.cohort}"
            f"{suffix}"
        )

    def config(self):
        """The cell's experiment: the §5.2 ramp at this time scale and
        cohort size, under this replica policy (and node market, if the
        fleet axis is off ``uniform``)."""
        from repro.jade.system import ExperimentConfig
        from repro.workload.profiles import RampProfile

        if self.regions > 1:
            from repro.federation.spec import global_ramp

            return global_ramp(
                regions=self.regions,
                scale=self.scale,
                seed=self.seed,
                peak=self.peak,
                managed=self.policy != "static",
                proactive=self.policy == "proactive",
                fluid=self.fluid,
                fluid_threshold=self.fluid_threshold,
                cohort=self.cohort,
            )
        market = None
        recovery = False
        if self.fleet != "uniform":
            from repro.market.scenario import PRESETS

            market = PRESETS[self.fleet]()
            recovery = True  # spot reclaims need the repair path armed
        cfg = ExperimentConfig(
            profile=RampProfile(
                base=80 * self.cohort,
                peak=self.peak * self.cohort,
                step_clients=21 * self.cohort,
                warmup_s=300.0 * self.scale,
                step_period_s=60.0 * self.scale,
                cooldown_s=300.0 * self.scale,
            ),
            seed=self.seed,
            managed=self.policy != "static",
            proactive=self.policy == "proactive",
            cohort=self.cohort,
            hardware_scale=float(self.cohort),
            recovery=recovery,
            market=market,
            fluid=self.fluid,
            fluid_threshold=self.fluid_threshold,
        )
        if self.controller != "default":
            from dataclasses import replace

            from repro.policy import PolicyConfig

            pc = PolicyConfig.parse(self.controller)
            cfg.app_loop = replace(cfg.app_loop, policy=pc)
            cfg.db_loop = replace(cfg.db_loop, policy=pc)
        return cfg


@dataclass(frozen=True)
class SweepSpec:
    """The grid: every combination of the four axes, deterministic order
    (policy-major, then seed, scale, cohort)."""

    seeds: tuple[int, ...] = (1, 2)
    scales: tuple[float, ...] = (0.1,)
    policies: tuple[str, ...] = ("static", "managed")
    cohorts: tuple[int, ...] = (1,)
    peak: int = 500
    fleets: tuple[str, ...] = ("uniform",)
    fluid: bool = False
    fluid_threshold: int = 0
    regions: tuple[int, ...] = (1,)
    controllers: tuple[str, ...] = ("default",)

    def grid(self) -> list[SweepPoint]:
        return [
            SweepPoint(
                policy, seed, scale, cohort, self.peak, fleet,
                self.fluid, self.fluid_threshold, n_regions, controller,
            )
            for policy in self.policies
            for seed in self.seeds
            for scale in self.scales
            for cohort in self.cohorts
            for fleet in self.fleets
            for n_regions in self.regions
            for controller in self.controllers
        ]

    def to_record(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "scales": list(self.scales),
            "policies": list(self.policies),
            "cohorts": list(self.cohorts),
            "peak": self.peak,
            "fleets": list(self.fleets),
            "fluid": self.fluid,
            "fluid_threshold": self.fluid_threshold,
            "regions": list(self.regions),
            "controllers": list(self.controllers),
            "cells": len(self.grid()),
        }


@dataclass
class SweepResult:
    """Rows plus provenance, as written to the JSON output."""

    spec: SweepSpec
    rows: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    cache: Optional[dict] = None

    def to_record(self) -> dict:
        record = {
            "spec": self.spec.to_record(),
            "rows": self.rows,
            "runs": len(self.rows),
            "elapsed_s": self.elapsed_s,
            "rows_per_s": (
                len(self.rows) / self.elapsed_s if self.elapsed_s > 0 else 0.0
            ),
        }
        if self.cache is not None:
            record["cache"] = self.cache
        return record


def run_sweep(
    spec: SweepSpec, runner: Optional[ExperimentRunner] = None
) -> SweepResult:
    """Execute the whole grid through the runner; one row per cell, in
    grid order regardless of scheduling."""
    if runner is None:
        runner = ExperimentRunner()
    points = spec.grid()
    configs = {point.label: point.config() for point in points}
    hits0 = misses0 = 0
    if runner.cache is not None:
        hits0, misses0 = runner.cache.hits, runner.cache.misses
    t0 = time.perf_counter()
    results = runner.run_many(configs)
    elapsed = time.perf_counter() - t0
    rows = []
    for point in points:
        run = results[point.label]
        row = {
            "label": point.label,
            "policy": point.policy,
            "seed": point.seed,
            "scale": point.scale,
            "cohort": point.cohort,
            "peak": point.peak,
            "fleet": point.fleet,
            "regions": point.regions,
            "controller": point.controller,
        }
        summary = run.summary()
        for name in SUMMARY_FIELDS:
            if name == "wall_time_s":
                row[name] = run.wall_time_s
            else:
                row[name] = summary[name]
        # fleet-cost column: the exact integrated cost on a market cell,
        # the flat uniform-pool price everywhere else
        if run.market is not None:
            row["fleet_cost"] = run.market.fleet_cost
        elif point.regions > 1:
            # federated cell: uniform-pool cost summed over regions
            row["fleet_cost"] = run.fleet_cost
        else:
            from repro.market.costs import uniform_fleet_cost

            row["fleet_cost"] = uniform_fleet_cost(run.config)
        rows.append(row)
    cache = None
    if runner.cache is not None:
        cache = {
            "dir": str(runner.cache.root),
            "hits": runner.cache.hits - hits0,
            "misses": runner.cache.misses - misses0,
        }
    return SweepResult(spec=spec, rows=rows, elapsed_s=elapsed, cache=cache)


def write_sweep_csv(rows: Sequence[dict], path: str | Path) -> Path:
    """One row per grid cell, columns in stable order."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return path
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_sweep_json(result: SweepResult, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(result.to_record(), indent=2, default=float) + "\n"
    )
    return path
