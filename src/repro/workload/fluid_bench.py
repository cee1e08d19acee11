"""The ``"fluid"`` section of BENCH_engine.json (shared logic).

Three headline claims, asserted by the section gate:

* **accuracy gate** — on the paper's full-scale Fig. 9 ramp (seed 1,
  scale 1.0) the fluid workload engine and the discrete cohort emulator
  produce *identical* replica-count trajectories (same grow/shrink
  sequence in both tiers, change times within
  :data:`TOLERANCES` ``["change_time_skew_s"]``), latency trajectories
  within the stated relative tolerance, tier CPU within an absolute
  tolerance, and total completions within 2 % — with every control loop
  (reactive sizing, proactive planner, chaos detector, deploy canary,
  market engine) running unmodified;
* **speedup** — the fluid run of the same ramp is several times faster
  than the discrete run, and a cache-warm re-run resolves in
  milliseconds with a byte-identical report;
* **million users** — a 1M-peak-user Fig. 9 ramp (cohort 2000, weak
  hardware scaling) completes within
  :data:`MILLION_BUDGET_S` seconds of wall clock.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

#: accuracy-gate tolerances (fluid vs discrete, Fig. 9 ramp at scale 1.0).
#: Measured slack on the reference machine: change-time skew <= 51 s,
#: latency rel diff max 0.25 / mean 0.05, tier CPU mean abs diff < 0.02,
#: completions rel diff < 0.005.
TOLERANCES = {
    # replica sequences must match *exactly*; paired change times may
    # shift by at most one sensing window
    "change_time_skew_s": 60.0,
    # 120 s latency-trajectory buckets over the profile horizon
    "latency_rel_max": 0.30,
    "latency_rel_mean": 0.10,
    # smoothed tier-CPU trajectories, interpolated onto a common grid
    "tier_cpu_mean_abs": 0.03,
    # total completed requests
    "completions_rel": 0.02,
}

#: wall-clock budget (s) for the 1M-user ramp on the reference machine
#: (measured ~1 s)
MILLION_BUDGET_S = 30.0
#: the laxer budget of the ``--smoke`` gate, for slow shared CI runners
SMOKE_BUDGET_S = 45.0

#: latency-trajectory bucket width (s) at scale 1.0
_BUCKET_S = 120.0


def _fig9_config(seed: int, scale: float, fluid: bool):
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=True,
        fluid=fluid,
    )


def million_config(seed: int = 1, peak: int = 1_000_000, cohort: int = 2000):
    """The 1M-user Fig. 9 ramp: every browser replaced by a cohort of
    2000, hardware weak-scaled to match, fluid engine always on."""
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import RampProfile

    return ExperimentConfig(
        profile=RampProfile(
            base=80 * cohort,
            peak=peak,
            step_clients=21 * cohort,
            warmup_s=300.0,
            step_period_s=60.0,
            cooldown_s=300.0,
        ),
        seed=seed,
        managed=True,
        cohort=cohort,
        hardware_scale=float(cohort),
        fluid=True,
    )


def _replica_sequence(run, tier: str) -> list[int]:
    return [int(v) for _, v in run.collector.replica_changes(tier)]


def _change_time_skew(discrete, fluid, tier: str) -> float:
    d = [t for t, _ in discrete.collector.replica_changes(tier)]
    f = [t for t, _ in fluid.collector.replica_changes(tier)]
    if len(d) != len(f):
        return float("inf")
    if not d:
        return 0.0
    return float(max(abs(a - b) for a, b in zip(d, f)))


def _latency_trajectory_diff(discrete, fluid, horizon: float) -> dict:
    """Relative per-bucket differences of the mean-latency trajectories."""
    d = discrete.collector.latency_buckets(_BUCKET_S, t_end=horizon)
    f = fluid.collector.latency_buckets(_BUCKET_S, t_end=horizon)
    # bucket grids share t_end, so align on common bucket times; the
    # overflow bucket past the horizon holds only the post-profile drain
    # tail (a handful of samples on either side) and is excluded
    common = sorted(
        t
        for t in set(np.round(d.times, 6)) & set(np.round(f.times, 6))
        if t <= horizon
    )
    dv = {round(t, 6): v for t, v in zip(d.times, d.values)}
    fv = {round(t, 6): v for t, v in zip(f.times, f.values)}
    rel = [
        abs(fv[t] - dv[t]) / dv[t]
        for t in common
        if dv[t] > 0.0
    ]
    if not rel:
        return {"max": float("inf"), "mean": float("inf"), "buckets": 0}
    return {
        "max": float(max(rel)),
        "mean": float(np.mean(rel)),
        "buckets": len(rel),
    }


def _tier_cpu_diff(discrete, fluid, tier: str) -> float:
    """Mean absolute difference of the smoothed tier-CPU trajectories,
    fluid interpolated onto the discrete sample grid."""
    d = discrete.collector.tier_cpu.get(tier)
    f = fluid.collector.tier_cpu.get(tier)
    if d is None or f is None or len(d.times) == 0 or len(f.times) == 0:
        return float("inf")
    interp = np.interp(d.times, f.times, f.values)
    return float(np.mean(np.abs(interp - d.values)))


def run_accuracy_gate(
    discrete, fluid, tolerances: Optional[dict] = None
) -> dict:
    """Compare a discrete and a fluid :class:`CompletedRun` of the same
    ramp; returns the gate block with per-check pass/fail."""
    tol = dict(TOLERANCES if tolerances is None else tolerances)
    horizon = discrete.config.profile.duration_s

    seqs = {
        tier: {
            "discrete": _replica_sequence(discrete, tier),
            "fluid": _replica_sequence(fluid, tier),
        }
        for tier in ("application", "database")
    }
    sequences_identical = all(
        s["discrete"] == s["fluid"] for s in seqs.values()
    )
    skew = max(
        _change_time_skew(discrete, fluid, tier)
        for tier in ("application", "database")
    )
    latency = _latency_trajectory_diff(discrete, fluid, horizon)
    cpu = {
        tier: _tier_cpu_diff(discrete, fluid, tier)
        for tier in ("application", "database")
    }
    d_completed = discrete.collector.completed_requests
    completions_rel = (
        abs(fluid.collector.completed_requests - d_completed) / d_completed
        if d_completed
        else float("inf")
    )

    checks = {
        "replica_sequences_identical": sequences_identical,
        "change_time_skew_s": skew <= tol["change_time_skew_s"],
        "latency_rel_max": latency["max"] <= tol["latency_rel_max"],
        "latency_rel_mean": latency["mean"] <= tol["latency_rel_mean"],
        "tier_cpu_mean_abs": max(cpu.values()) <= tol["tier_cpu_mean_abs"],
        "completions_rel": completions_rel <= tol["completions_rel"],
    }
    return {
        "replica_sequences": seqs,
        "replica_sequences_identical": sequences_identical,
        "change_time_skew_s": skew,
        "latency_rel_diff": latency,
        "tier_cpu_mean_abs_diff": cpu,
        "completions": {
            "discrete": int(d_completed),
            "fluid": int(fluid.collector.completed_requests),
            "rel_diff": completions_rel,
        },
        "tolerances": tol,
        "checks": checks,
        "passed": all(checks.values()),
    }


def run_fluid_section(
    runner,
    seed: int = 1,
    scale: float = 1.0,
    million_budget_s: float = MILLION_BUDGET_S,
) -> dict:
    """The ``"fluid"`` section of BENCH_engine.json."""
    # -- accuracy gate: the discrete/fluid Fig. 9 pair, one batch --------
    configs = {
        "discrete": _fig9_config(seed, scale, fluid=False),
        "fluid": _fig9_config(seed, scale, fluid=True),
    }
    runs = runner.run_many(configs)
    gate = run_accuracy_gate(runs["discrete"], runs["fluid"])

    # -- speedup: compute walls, plus a cache-warm fluid re-run ----------
    discrete_wall = runs["discrete"].wall_time_s
    fluid_wall = runs["fluid"].wall_time_s
    warm_elapsed = None
    if runner.cache is not None:
        t0 = time.perf_counter()
        runner.run_many({"fluid": configs["fluid"]})
        warm_elapsed = time.perf_counter() - t0

    # -- the million-user ramp -------------------------------------------
    m_config = million_config(seed=seed)
    t0 = time.perf_counter()
    m_run = runner.run_many({"million": m_config})["million"]
    m_elapsed = time.perf_counter() - t0
    m_users = m_config.profile.peak_clients
    m_wall = m_run.wall_time_s
    million = {
        "users": int(m_users),
        "wall_s": m_wall,
        "elapsed_s": m_elapsed,
        "budget_s": million_budget_s,
        "users_per_s": m_users / m_wall if m_wall > 0 else float("inf"),
        "completed": int(m_run.collector.completed_requests),
        "events": int(m_run.events_processed),
        "app_replicas_max": int(m_run.summary()["app_replicas_max"]),
        "db_replicas_max": int(m_run.summary()["db_replicas_max"]),
    }

    section = {
        "seed": seed,
        "scale": scale,
        "accuracy": gate,
        "speedup": {
            "discrete_wall_s": discrete_wall,
            "fluid_wall_s": fluid_wall,
            "speedup": discrete_wall / fluid_wall if fluid_wall > 0 else float("inf"),
            "warm_elapsed_s": warm_elapsed,
        },
        "million": million,
    }
    return section


def render_section(section: dict) -> str:
    g = section["accuracy"]
    s = section["speedup"]
    m = section["million"]
    app = g["replica_sequences"]["application"]["fluid"]
    db = g["replica_sequences"]["database"]["fluid"]
    lines = [
        f"Fluid workload engine: Fig. 9 ramp, seed {section['seed']}, "
        f"scale {section['scale']:g}",
        "",
        "accuracy gate (fluid vs discrete):",
        f"  replica sequences   : app {app}, db {db} "
        f"{'identical' if g['replica_sequences_identical'] else 'DIVERGED'}",
        f"  change-time skew    : {g['change_time_skew_s']:.1f} s "
        f"(tol {g['tolerances']['change_time_skew_s']:.0f} s)",
        f"  latency trajectory  : max rel {g['latency_rel_diff']['max']:.3f} "
        f"(tol {g['tolerances']['latency_rel_max']:.2f}), "
        f"mean rel {g['latency_rel_diff']['mean']:.3f} "
        f"(tol {g['tolerances']['latency_rel_mean']:.2f})",
        f"  tier CPU trajectory : mean abs diff app "
        f"{g['tier_cpu_mean_abs_diff']['application']:.4f}, db "
        f"{g['tier_cpu_mean_abs_diff']['database']:.4f} "
        f"(tol {g['tolerances']['tier_cpu_mean_abs']:.2f})",
        f"  completions         : {g['completions']['fluid']:,} vs "
        f"{g['completions']['discrete']:,} "
        f"(rel {g['completions']['rel_diff']:.4f}, "
        f"tol {g['tolerances']['completions_rel']:.2f})",
        f"  gate                : {'PASS' if g['passed'] else 'FAIL'}",
        "",
        f"speedup: discrete {s['discrete_wall_s']:.2f} s -> fluid "
        f"{s['fluid_wall_s']:.2f} s ({s['speedup']:.1f}x)"
        + (
            f", warm cache {s['warm_elapsed_s'] * 1e3:.0f} ms"
            if s["warm_elapsed_s"] is not None
            else ""
        ),
        f"million users: {m['users']:,} peak in {m['wall_s']:.2f} s wall "
        f"({m['users_per_s']:,.0f} users/s, {m['completed']:,} requests, "
        f"{m['events']:,} events; budget {m['budget_s']:.0f} s)",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The section gate (``repro bench``, its ``--smoke`` and pytest)."""
    g = section["accuracy"]
    assert g["replica_sequences_identical"], (
        f"replica trajectories diverged: {g['replica_sequences']}"
    )
    for name, passed in g["checks"].items():
        assert passed, f"accuracy gate check failed: {name} ({g})"
    assert g["passed"]
    m = section["million"]
    assert m["wall_s"] <= m["budget_s"], (
        f"1M-user ramp took {m['wall_s']:.1f} s "
        f"(budget {m['budget_s']:.0f} s)"
    )
    assert m["app_replicas_max"] >= 2 and m["db_replicas_max"] >= 2, (
        "managers did not scale out under the 1M ramp"
    )
    s = section["speedup"]
    assert s["speedup"] > 1.0, (
        f"fluid slower than discrete ({s['speedup']:.2f}x)"
    )
