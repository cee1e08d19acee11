"""Sweep-driven autotuning of controller/policy parameters.

The paper hand-set its controller constants "experimentally through
specific benchmarks" (§5.2).  This module mechanizes that experiment:
a grid (or random subsample) over policy parameters — thresholds,
moving-average windows, the inhibition period, or any
:class:`~repro.policy.PolicyConfig` plugin — where every cell is the
standard Fig. 9 ramp replicated across seeds, fanned out through the
:class:`~repro.runner.parallel.ExperimentRunner` (process pool +
content-addressed cache: re-tuning an overlapping grid only computes the
new cells).

Each cell is scored on what an operator pays (the same scorecard
currency as :mod:`repro.capacity.cost`):

* **SLO violation seconds** — bucketed client latency above the SLO;
* **node-hours** — replica-count integral over the run;
* **reconfigurations** — each grow/shrink is operational work and risk;
* optionally **MTTR** under a chaos campaign (``chaos="crash"``).

The scalar objective is a weighted sum, cells rank by mean score across
seeds (95 % CIs reported), and the winner can be written out as a tuned
config (``repro tune --out``) that :mod:`repro.policy.bench` then proves
against the paper defaults.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.metrics.stats import mean_ci
from repro.policy.api import PolicyConfig

#: chaos arm constants (match the chaos bench's campaign geometry)
CHAOS_CLIENTS = 60
CHAOS_DURATION_S = 420.0


@dataclass(frozen=True)
class TuneObjective:
    """Weights of the scalar score (lower is better), plus the capacity
    budget: the *winning* cell must keep its node-hours within
    ``node_hours_budget`` × the paper-default reference cell's (an SLO
    win bought with extra machines is not a tuning win)."""

    slo_latency_s: float = 0.25
    slo_weight: float = 1.0        # per SLO-violation second
    node_hour_weight: float = 10.0  # per replica node-hour
    reconfig_weight: float = 0.1   # per grow/shrink
    mttr_weight: float = 0.2       # per second of mean time to repair
    node_hours_budget: float = 1.02  # factor over the reference cell

    def to_record(self) -> dict:
        return {
            "slo_latency_s": self.slo_latency_s,
            "slo_weight": self.slo_weight,
            "node_hour_weight": self.node_hour_weight,
            "reconfig_weight": self.reconfig_weight,
            "mttr_weight": self.mttr_weight,
            "node_hours_budget": self.node_hours_budget,
        }


@dataclass(frozen=True)
class TunePoint:
    """One candidate controller parameterization."""

    app_max: float = 0.80
    app_min: float = 0.38
    db_max: float = 0.75
    db_min: float = 0.40
    window_scale: float = 1.0      # multiplies the 60 s / 90 s windows
    inhibition_s: float = 60.0
    controller: str = "default"    # PolicyConfig string, as on the sweep axis

    def __post_init__(self) -> None:
        if not 0.0 <= self.app_min < self.app_max <= 1.0:
            raise ValueError(f"bad app band ({self.app_min}, {self.app_max})")
        if not 0.0 <= self.db_min < self.db_max <= 1.0:
            raise ValueError(f"bad db band ({self.db_min}, {self.db_max})")
        if self.window_scale <= 0 or self.inhibition_s < 0:
            raise ValueError("need window_scale > 0 and inhibition_s >= 0")
        if self.controller != "default":
            PolicyConfig.parse(self.controller)  # validates the syntax

    @property
    def label(self) -> str:
        bits = (
            f"am{self.app_max:g}-an{self.app_min:g}"
            f"-dm{self.db_max:g}-dn{self.db_min:g}"
            f"-w{self.window_scale:g}-i{self.inhibition_s:g}"
        )
        if self.controller != "default":
            bits += f"-p{self.controller}"
        return bits

    def loop_configs(self):
        """The per-tier :class:`LoopConfig` pair this point encodes."""
        from repro.jade.self_optimization import (
            APP_LOOP_DEFAULTS,
            DB_LOOP_DEFAULTS,
        )

        pc = (
            PolicyConfig.parse(self.controller)
            if self.controller != "default"
            else PolicyConfig()
        )
        app = replace(
            APP_LOOP_DEFAULTS,
            max_threshold=self.app_max,
            min_threshold=self.app_min,
            window_s=APP_LOOP_DEFAULTS.window_s * self.window_scale,
            policy=pc,
        )
        db = replace(
            DB_LOOP_DEFAULTS,
            max_threshold=self.db_max,
            min_threshold=self.db_min,
            window_s=DB_LOOP_DEFAULTS.window_s * self.window_scale,
            policy=pc,
        )
        return app, db

    def config(self, seed: int, scale: float, peak: int = 500):
        """The cell's experiment: the §5.2 ramp under this controller."""
        from repro.jade.system import ExperimentConfig
        from repro.workload.profiles import RampProfile

        app, db = self.loop_configs()
        return ExperimentConfig(
            profile=RampProfile(
                peak=peak,
                warmup_s=300.0 * scale,
                step_period_s=60.0 * scale,
                cooldown_s=300.0 * scale,
            ),
            seed=seed,
            managed=True,
            inhibition_s=self.inhibition_s,
            app_loop=app,
            db_loop=db,
        )

    def chaos_config(self, campaign, seed: int):
        """The optional resilience arm: the chaos campaign's constant-load
        run with this point's controller active (repairs and scaling then
        compete for the same machinery, which is what MTTR should feel)."""
        from repro.chaos import campaign_config

        cfg = campaign_config(
            campaign,
            seed=seed,
            clients=CHAOS_CLIENTS,
            duration_s=CHAOS_DURATION_S,
        )
        cfg.managed = True
        cfg.inhibition_s = self.inhibition_s
        cfg.app_loop, cfg.db_loop = self.loop_configs()
        return cfg

    def to_record(self) -> dict:
        return {
            "app_max": self.app_max,
            "app_min": self.app_min,
            "db_max": self.db_max,
            "db_min": self.db_min,
            "window_scale": self.window_scale,
            "inhibition_s": self.inhibition_s,
            "controller": self.controller,
        }


#: the paper's hand-set controller (the tuner's reference cell)
PAPER_DEFAULT = TunePoint()


@dataclass(frozen=True)
class TuneSpec:
    """The search space: cross product of the parameter axes, optionally
    subsampled (``samples > 0`` → random search without replacement)."""

    app_max: tuple[float, ...] = (0.80,)
    app_min: tuple[float, ...] = (0.38,)
    db_max: tuple[float, ...] = (0.75,)
    db_min: tuple[float, ...] = (0.40,)
    window_scales: tuple[float, ...] = (1.0,)
    inhibitions: tuple[float, ...] = (60.0,)
    controllers: tuple[str, ...] = ("default",)
    seeds: tuple[int, ...] = (1, 2, 3)
    scale: float = 0.15
    peak: int = 500
    #: random-search subsample size (0 = full grid)
    samples: int = 0
    sample_seed: int = 0
    #: chaos preset name for the MTTR arm ("" = skip it)
    chaos: str = ""

    def grid(self) -> list[TunePoint]:
        points = [
            TunePoint(am, an, dm, dn, w, inh, controller)
            for am in self.app_max
            for an in self.app_min
            for dm in self.db_max
            for dn in self.db_min
            for w in self.window_scales
            for inh in self.inhibitions
            for controller in self.controllers
            if an < am and dn < dm
        ]
        if not points:
            raise ValueError("empty tune grid (check the threshold bands)")
        if self.samples and self.samples < len(points):
            points = random.Random(self.sample_seed).sample(
                points, self.samples
            )
        return points

    def to_record(self) -> dict:
        return {
            "app_max": list(self.app_max),
            "app_min": list(self.app_min),
            "db_max": list(self.db_max),
            "db_min": list(self.db_min),
            "window_scales": list(self.window_scales),
            "inhibitions": list(self.inhibitions),
            "controllers": list(self.controllers),
            "seeds": list(self.seeds),
            "scale": self.scale,
            "peak": self.peak,
            "samples": self.samples,
            "chaos": self.chaos,
            "cells": len(self.grid()),
        }


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def score_run(run, objective: TuneObjective) -> dict[str, float]:
    """Scorecard metrics + scalar score for one completed ramp."""
    from repro.capacity.cost import slo_violation_time

    col = run.collector
    t_end = run.config.profile.duration_s + run.config.tail_s
    slo_s = slo_violation_time(
        col.latencies, 0.0, t_end, objective.slo_latency_s
    )
    node_seconds = sum(
        series.integral(0.0, t_end) for series in col.tier_replicas.values()
    )
    reconfigs = (
        run.app_tier.grows_completed
        + run.app_tier.shrinks_completed
        + run.db_tier.grows_completed
        + run.db_tier.shrinks_completed
    )
    node_hours = node_seconds / 3600.0
    return {
        "slo_violation_s": slo_s,
        "node_hours": node_hours,
        "reconfigs": float(reconfigs),
        "score": (
            objective.slo_weight * slo_s
            + objective.node_hour_weight * node_hours
            + objective.reconfig_weight * reconfigs
        ),
    }


def run_tune(
    spec: TuneSpec,
    objective: Optional[TuneObjective] = None,
    runner=None,
) -> dict:
    """Execute the search; returns the report (cells ranked best-first)."""
    from repro.runner.parallel import ExperimentRunner

    objective = objective or TuneObjective()
    if runner is None:
        runner = ExperimentRunner()
    points = spec.grid()

    campaign = None
    if spec.chaos:
        from repro.chaos import PRESETS

        campaign = PRESETS[spec.chaos]()

    # The paper default always runs as the budget reference (a no-op when
    # it is already a grid cell: same label, same config).
    scored_points = list(points)
    if PAPER_DEFAULT.label not in {p.label for p in points}:
        scored_points.append(PAPER_DEFAULT)

    configs = {}
    for point in scored_points:
        for seed in spec.seeds:
            configs[f"{point.label}-s{seed}"] = point.config(
                seed, spec.scale, spec.peak
            )
            if campaign is not None:
                configs[f"{point.label}-chaos-s{seed}"] = point.chaos_config(
                    campaign, seed
                )

    hits0 = misses0 = 0
    if runner.cache is not None:
        hits0, misses0 = runner.cache.hits, runner.cache.misses
    t0 = time.perf_counter()
    results = runner.run_many(configs)
    elapsed = time.perf_counter() - t0

    cells = []
    for point in scored_points:
        per_seed = [
            score_run(results[f"{point.label}-s{seed}"], objective)
            for seed in spec.seeds
        ]
        cell = {
            "point": point.to_record(),
            "label": point.label,
            "slo_violation_s": mean_ci([s["slo_violation_s"] for s in per_seed]),
            "node_hours": mean_ci([s["node_hours"] for s in per_seed]),
            "reconfigs": mean_ci([s["reconfigs"] for s in per_seed]),
            "score": mean_ci([s["score"] for s in per_seed]),
        }
        if campaign is not None:
            from repro.chaos import score_campaign

            card = score_campaign(
                campaign,
                [results[f"{point.label}-chaos-s{seed}"] for seed in spec.seeds],
            )
            mttr = card["aggregate"]["mttr_mean_s"]
            cell["mttr_s"] = mttr
            mean = mttr["mean"]
            if mean == mean:  # not NaN (NaN = no repair observed)
                cell["score"] = mean_ci(
                    [
                        s["score"] + objective.mttr_weight * mean
                        for s in per_seed
                    ]
                )
        cells.append(cell)

    cells.sort(key=lambda c: c["score"]["mean"])
    reference = next(
        c for c in cells if c["label"] == PAPER_DEFAULT.label
    )
    # The winner is the best-scoring cell *inside the budget*: node-hours
    # within the factor of the reference AND no SLO regression.  An
    # unconstrained score minimum that buys its SLO win with capacity is
    # reported in the ranking but never selected.
    nh_cap = reference["node_hours"]["mean"] * objective.node_hours_budget
    eligible = [
        c
        for c in cells
        if c["node_hours"]["mean"] <= nh_cap
        and c["slo_violation_s"]["mean"]
        <= reference["slo_violation_s"]["mean"]
    ]
    best = eligible[0] if eligible else reference
    report = {
        "spec": spec.to_record(),
        "objective": objective.to_record(),
        "cells": cells,
        "reference": reference,
        "best": best,
        "within_budget": len(eligible),
        "elapsed_s": elapsed,
    }
    if runner.cache is not None:
        report["cache"] = {
            "hits": runner.cache.hits - hits0,
            "misses": runner.cache.misses - misses0,
        }
    return report


# ----------------------------------------------------------------------
# Tuned-config artifact
# ----------------------------------------------------------------------
def tuned_config_record(cell: dict, report: dict) -> dict:
    """The committed artifact: the winning parameters + provenance."""
    return {
        "point": cell["point"],
        "metrics": {
            "slo_violation_s": cell["slo_violation_s"],
            "node_hours": cell["node_hours"],
            "reconfigs": cell["reconfigs"],
            "score": cell["score"],
        },
        "objective": report["objective"],
        "spec": report["spec"],
    }


def write_tuned_config(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(tuned_config_record(report["best"], report), indent=2)
        + "\n"
    )
    return path


def load_tuned_point(source: str | Path | dict) -> TunePoint:
    """Rebuild the :class:`TunePoint` from a tuned-config file or dict."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    point = source["point"] if "point" in source else source
    return TunePoint(**point)


def render_report(report: dict, top: int = 10) -> str:
    lines = [
        f"Tuned {report['spec']['cells']} cells x "
        f"{len(report['spec']['seeds'])} seeds in "
        f"{report['elapsed_s']:.1f}s"
        + (
            f" (cache {report['cache']['hits']} hits / "
            f"{report['cache']['misses']} misses)"
            if "cache" in report
            else ""
        ),
        "",
        f"{'#':>3s} {'cell':<44s} {'score':>12s} {'SLO viol (s)':>14s} "
        f"{'node-hrs':>10s} {'reconf':>7s}",
    ]
    for i, cell in enumerate(report["cells"][:top]):
        lines.append(
            f"{i + 1:>3d} {cell['label']:<44s} "
            f"{cell['score']['mean']:>7.2f}±{cell['score']['ci95']:<4.2f} "
            f"{cell['slo_violation_s']['mean']:>8.1f}±"
            f"{cell['slo_violation_s']['ci95']:<5.1f} "
            f"{cell['node_hours']['mean']:>10.3f} "
            f"{cell['reconfigs']['mean']:>7.1f}"
        )
    if len(report["cells"]) > top:
        lines.append(f"    ... {len(report['cells']) - top} more cells")
    ref = report["reference"]
    best = report["best"]["point"]
    budget = report["objective"]["node_hours_budget"]
    lines += [
        "",
        f"reference (paper default): SLO "
        f"{ref['slo_violation_s']['mean']:.1f}s, "
        f"{ref['node_hours']['mean']:.3f} node-hrs "
        f"(budget {budget:g}x -> "
        f"{ref['node_hours']['mean'] * budget:.3f}); "
        f"{report['within_budget']} cell(s) within budget",
        "best within budget: app band "
        f"({best['app_min']:.2f}, {best['app_max']:.2f}), db band "
        f"({best['db_min']:.2f}, {best['db_max']:.2f}), windows x"
        f"{best['window_scale']:g}, inhibition {best['inhibition_s']:.0f}s, "
        f"controller {best['controller']} -> SLO "
        f"{report['best']['slo_violation_s']['mean']:.1f}s, "
        f"{report['best']['node_hours']['mean']:.3f} node-hrs",
    ]
    return "\n".join(lines)
