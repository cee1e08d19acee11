"""The ``repro bench`` engine benchmark.

Every section of BENCH_engine.json — micro, ramp, whatif, sweep, chaos,
deploy, market, fluid, policy, federation — is one :class:`Section`
record in the :data:`SECTIONS` registry: how to run it, render it and
check it, plus the settings of its fast ``--smoke`` CI gate.
``repro bench`` runs every section (``--skip NAME`` leaves some out,
``--micro-only`` keeps only the micro timings); ``repro bench --section
NAME [--smoke]`` runs the named ones.  Either way each section is
rendered, then checked, and a failed check fails the command.

The **micro** section times the kernel and PS-CPU scenarios
from ``benchmarks/bench_micro_engine.py`` best-of-N against the committed
pre-optimization baselines (events/s, jobs/s, speedups), interleaved with
a fixed pure-Python reference loop.  The CI perf-smoke job runs
``repro bench --check BENCH_engine.json`` and fails if a scenario's time
*relative to that reference loop* drifts more than the tolerance from the
committed ratio, so the gate measures the code rather than the host.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.chaos import bench as chaos_bench
from repro.deploy import bench as deploy_bench
from repro.federation import bench as federation_bench
from repro.market import bench as market_bench
from repro.metrics.stats import mean_ci
from repro.policy import bench as policy_bench
from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner
from repro.workload import fluid_bench

#: wall-clock of the micro scenarios before the engine fast-path work
#: (event freelist, bucketed timers, token-guarded PS wakes), measured
#: best-of-10 on the reference machine.  The ``speedup_vs_baseline``
#: figures in BENCH_engine.json are relative to these.
BASELINES_S = {
    "kernel_10k_events": 0.034357,
    "ps_cpu_5k_jobs": 0.069714,
}


# ----------------------------------------------------------------------
# Micro scenarios (mirror benchmarks/bench_micro_engine.py)
# ----------------------------------------------------------------------
def _scenario_kernel() -> int:
    from repro.simulation import SimKernel

    kernel = SimKernel()
    sink = []
    for i in range(10_000):
        kernel.schedule(float(i % 100) * 0.01, sink.append, i)
    kernel.run()
    return len(sink)


def _scenario_ps(arrivals, demands) -> int:
    from repro.simulation import CpuJob, PsCpu, SimKernel

    kernel = SimKernel()
    cpu = PsCpu(kernel)
    for t, d in zip(arrivals, demands):
        kernel.schedule_at(float(t), cpu.submit, CpuJob(kernel, float(d)))
    kernel.run()
    return cpu.completed


class _RefEvent:
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg) -> None:
        self.fn = fn
        self.arg = arg


def _reference_loop() -> int:
    """A fixed, self-contained event loop (a heapq of 10k slotted events,
    one callback each) shaped like the kernel scenario but sharing no
    code with the simulator, so no change to it can make this loop faster
    or slower.  The micro gate measures each scenario in units of this
    loop, timed on the same host in the same rounds."""
    heap, sink = [], []
    for i in range(10_000):
        heapq.heappush(heap, (float(i % 100) * 0.01, i, _RefEvent(sink.append, i)))
    while heap:
        event = heapq.heappop(heap)[2]
        event.fn(event.arg)
    return len(sink)


def _time_rounds(
    fns: Mapping[str, Callable[[], object]], rounds: int
) -> dict[str, list[float]]:
    """Wall time of every function in every round; the functions are
    interleaved within a round so host load hits them alike, and each
    starts from a freshly collected heap so the garbage collections that
    land inside it do not depend on what ran before."""
    times: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            gc.collect()
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return times


def run_micro(rounds: int = 10) -> dict[str, dict[str, float]]:
    """Time both micro scenarios; returns the BENCH_engine ``micro`` block.
    Besides its best-of time each scenario records the reference loop's
    best-of ``ref_s`` and ``ref_ratio``, the median over rounds of
    scenario time / reference time (what the perf gate compares)."""
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(0.01, size=5000))
    demands = rng.gamma(4.0, 0.01 / 4.0, size=5000)

    times = _time_rounds(
        {
            "ref": _reference_loop,
            "kernel_10k_events": _scenario_kernel,
            "ps_cpu_5k_jobs": lambda: _scenario_ps(arrivals, demands),
        },
        rounds,
    )
    ref = times.pop("ref")
    block = {}
    for name, rate_key, count in (
        ("kernel_10k_events", "events_per_s", 10_000),
        ("ps_cpu_5k_jobs", "jobs_per_s", 5000),
    ):
        best = min(times[name])
        block[name] = {
            "baseline_s": BASELINES_S[name],
            "best_s": best,
            "ref_s": min(ref),
            "ref_ratio": statistics.median(
                t / r for t, r in zip(times[name], ref)
            ),
            rate_key: count / best,
            "speedup_vs_baseline": BASELINES_S[name] / best,
        }
    return block


def render_micro(block: dict) -> str:
    kernel, ps = block["kernel_10k_events"], block["ps_cpu_5k_jobs"]
    return "\n".join([
        "Micro scenarios (best-of timings):",
        f"  kernel 10k events : {kernel['best_s'] * 1e3:.2f} ms  "
        f"({kernel['events_per_s']:,.0f} events/s, "
        f"{kernel['speedup_vs_baseline']:.2f}x baseline)",
        f"  PS-CPU 5k jobs    : {ps['best_s'] * 1e3:.2f} ms  "
        f"({ps['jobs_per_s']:,.0f} jobs/s, "
        f"{ps['speedup_vs_baseline']:.2f}x baseline)",
        f"  reference loop    : {kernel['ref_s'] * 1e3:.2f} ms  "
        f"(kernel {kernel['ref_ratio']:.3f}x, PS-CPU {ps['ref_ratio']:.3f}x "
        f"of it, median per round)",
    ])


# ----------------------------------------------------------------------
# Multi-seed ramp replication
# ----------------------------------------------------------------------


def _ramp_config(
    managed: bool,
    seed: int,
    scale: float,
    fluid: bool = False,
    fluid_threshold: int = 0,
):
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
        fluid=fluid,
        fluid_threshold=fluid_threshold,
    )


def run_ramp_replication(
    seeds: Sequence[int],
    scale: float,
    runner: ExperimentRunner,
    fluid: bool = False,
    fluid_threshold: int = 0,
) -> dict:
    """Run the managed/static ramp pair for every seed and aggregate.

    With a cache attached the batch runs twice — a cold pass that computes
    (or reuses an earlier session's entries) and a warm pass that must
    resolve entirely from the cache — and the report records per-pass
    hit/miss deltas.  The committed BENCH_engine.json therefore always
    shows ``warm.hits > 0``: the warm pass is what a re-run benchmark
    session actually costs.
    """
    configs = {}
    for seed in seeds:
        configs[f"managed-{seed}"] = _ramp_config(
            True, seed, scale, fluid, fluid_threshold
        )
        configs[f"static-{seed}"] = _ramp_config(
            False, seed, scale, fluid, fluid_threshold
        )

    def timed_pass() -> tuple[dict, dict]:
        hits0 = misses0 = 0
        if runner.cache is not None:
            hits0, misses0 = runner.cache.hits, runner.cache.misses
        t0 = time.perf_counter()
        results = runner.run_many(configs)
        stats = {"elapsed_s": time.perf_counter() - t0}
        if runner.cache is not None:
            stats["hits"] = runner.cache.hits - hits0
            stats["misses"] = runner.cache.misses - misses0
        return results, stats

    results, cold = timed_pass()
    warm = None
    if runner.cache is not None:
        warm_results, warm = timed_pass()
        results = warm_results

    arms = {}
    for arm in ("managed", "static"):
        summaries = [results[f"{arm}-{s}"].summary() for s in seeds]
        walls = [results[f"{arm}-{s}"].wall_time_s for s in seeds]
        arms[arm] = {
            "throughput_rps": mean_ci([s["throughput_rps"] for s in summaries]),
            "latency_mean_ms": mean_ci([s["latency_mean_ms"] for s in summaries]),
            "completed": mean_ci([s["completed"] for s in summaries]),
            "wall_time_s": mean_ci(walls),
        }
    serial_estimate = sum(r.wall_time_s for r in results.values())
    block = {
        "scale": scale,
        "fluid": fluid,
        "seeds": list(seeds),
        "arms": arms,
        "runs": len(results),
        "parallel_elapsed_s": cold["elapsed_s"],
        "serial_estimate_s": serial_estimate,
    }
    if runner.cache is not None:
        block["cache"] = {
            "dir": str(runner.cache.root),
            "cold": cold,
            "warm": warm,
            # headline numbers: what a re-run against this cache reports
            "hits": warm["hits"],
            "misses": warm["misses"],
        }
    return block


def render_ramp(ramp: dict) -> str:
    lines = [
        f"Ramp pair x{len(ramp['seeds'])} seeds (scale {ramp['scale']}): "
        f"{ramp['parallel_elapsed_s']:.1f}s elapsed "
        f"(serial estimate {ramp['serial_estimate_s']:.1f}s)"
    ]
    for arm, stats in ramp["arms"].items():
        thr = stats["throughput_rps"]
        lat = stats["latency_mean_ms"]
        lines.append(
            f"  {arm:<8s} throughput {thr['mean']:.2f} +/- {thr['ci95']:.2f} "
            f"req/s, latency {lat['mean']:.1f} +/- {lat['ci95']:.1f} ms"
        )
    if "cache" in ramp:
        c = ramp["cache"]
        lines.append(
            f"  cache: cold {c['cold']['hits']} hits / "
            f"{c['cold']['misses']} misses, warm {c['warm']['hits']} hits "
            f"/ {c['warm']['misses']} misses ({c['dir']})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# What-if decision latency + sweep throughput
# ----------------------------------------------------------------------
def _whatif_fixture():
    """A deterministic mid-ramp fork: (snapshot, forecast)."""
    from repro.capacity.whatif import run_to_fork
    from repro.jade.system import ExperimentConfig, ManagedSystem
    from repro.workload.profiles import RampProfile

    config = ExperimentConfig(
        seed=7,
        profile=RampProfile(
            base=80,
            peak=260,
            step_period_s=15.0,
            warmup_s=60.0,
            cooldown_s=60.0,
        ),
    )
    snapshot = run_to_fork(ManagedSystem(config), 150.0)
    forecast = [(150.0 + 15.0 * i, 200.0 + 5.0 * i) for i in range(4)]
    return snapshot, forecast


def _whatif_candidates(n: int):
    """The first ``n`` of a fixed candidate ladder (deterministic)."""
    from repro.capacity.whatif import Candidate

    ladder = [
        (1, 1), (2, 1), (1, 2), (2, 2),
        (3, 1), (1, 3), (3, 2), (2, 3),
        (3, 3), (4, 1), (1, 4), (4, 2),
    ]
    if n > len(ladder):
        raise ValueError(f"at most {len(ladder)} candidates supported")
    return [Candidate(app, db) for app, db in ladder[:n]]


def run_whatif_bench(candidates: int = 8) -> dict:
    """Time one C-candidate proactive decision three ways — serial (the
    pre-optimization path), parallel against a cold cache, and memoized
    against the warm cache — asserting the reports stay byte-identical.

    Returns the BENCH_engine ``whatif`` block.  The headline
    ``speedup_memoized`` is the decision-latency win of a repeated
    decision under unchanged conditions (the proactive manager re-planning,
    a re-run benchmark session); ``speedup_parallel`` is the cold-cache
    pool fan-out win and degrades to ~1x on single-core runners.
    """
    import shutil
    import tempfile

    from repro.capacity.cost import CostModel
    from repro.capacity.whatif import WhatIfEngine
    from repro.runner.parallel import default_workers

    snapshot, forecast = _whatif_fixture()
    cands = _whatif_candidates(candidates)

    def make_engine(**kwargs) -> WhatIfEngine:
        return WhatIfEngine(
            horizon_s=45.0, warmup_s=40.0, cost_model=CostModel(), **kwargs
        )

    def timed(engine):
        t0 = time.perf_counter()
        outcomes = engine.evaluate(snapshot, forecast, cands)
        elapsed = time.perf_counter() - t0
        return outcomes, elapsed

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-whatif-"))
    try:
        serial_engine = make_engine(parallel=False)
        serial_out, serial_s = timed(serial_engine)
        serial_report = serial_engine.report(serial_out)

        workers = min(8, max(2, default_workers()))
        cold_engine = make_engine(
            parallel=True, max_workers=workers, cache=ResultCache(cache_dir)
        )
        cold_out, parallel_s = timed(cold_engine)

        warm_engine = make_engine(
            parallel=True, max_workers=workers, cache=ResultCache(cache_dir)
        )
        warm_out, memoized_s = timed(warm_engine)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    byte_identical = (
        cold_engine.report(cold_out) == serial_report
        and warm_engine.report(warm_out) == serial_report
    )
    winner = serial_engine.best(serial_out).candidate.label
    same_winner = (
        cold_engine.best(cold_out).candidate.label == winner
        and warm_engine.best(warm_out).candidate.label == winner
    )
    return {
        "candidates": candidates,
        "serial_s": serial_s,
        "parallel_cold_s": parallel_s,
        "memoized_s": memoized_s,
        "speedup_parallel": serial_s / parallel_s,
        "speedup_memoized": serial_s / memoized_s,
        "byte_identical": byte_identical,
        "same_winner": same_winner,
        "winner": winner,
        "workers": workers,
        "memoized_cache_hits": warm_engine.cache_hits,
        "memoized_branches_run": warm_engine.branches_run,
    }


def run_sweep_bench() -> dict:
    """Throughput of a small sweep grid, cold then warm (cache-resolved).

    Returns the BENCH_engine ``sweep`` block."""
    import shutil
    import tempfile

    from repro.runner.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        seeds=(1, 2),
        scales=(0.05,),
        policies=("static", "managed"),
        cohorts=(1,),
    )
    cache_dir = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        runner = ExperimentRunner(cache=ResultCache(cache_dir))
        cold = run_sweep(spec, runner)
        warm = run_sweep(spec, runner)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "spec": spec.to_record(),
        "cold": {
            "elapsed_s": cold.elapsed_s,
            "rows_per_s": len(cold.rows) / cold.elapsed_s,
            "cache": cold.cache,
        },
        "warm": {
            "elapsed_s": warm.elapsed_s,
            "rows_per_s": len(warm.rows) / warm.elapsed_s,
            "cache": warm.cache,
        },
        "rows_identical": cold.rows == warm.rows,
    }


def render_whatif(w: dict) -> str:
    return (
        f"What-if {w['candidates']}-candidate decision: "
        f"serial {w['serial_s']:.2f}s, parallel cold "
        f"{w['parallel_cold_s']:.2f}s ({w['speedup_parallel']:.2f}x), "
        f"memoized {w['memoized_s']:.3f}s ({w['speedup_memoized']:.1f}x); "
        f"byte-identical: {w['byte_identical']}, winner {w['winner']}"
    )


def check_whatif_section(w: dict) -> None:
    assert w["byte_identical"], "parallel/memoized what-if report drifted"
    assert w["same_winner"], "parallel/memoized what-if winner drifted"


def render_sweep(s: dict) -> str:
    return (
        f"Sweep {s['spec']['cells']} cells: cold "
        f"{s['cold']['rows_per_s']:.1f} rows/s, warm "
        f"{s['warm']['rows_per_s']:.0f} rows/s (cache-resolved)"
    )


def check_sweep_section(s: dict) -> None:
    warm = s["warm"]["cache"]
    assert s["rows_identical"], "warm sweep rows drifted from cold"
    assert warm["misses"] == 0 and warm["hits"] > 0, (
        "warm sweep pass did not resolve from the cache"
    )


# ----------------------------------------------------------------------
# Section registry + entry points
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BenchContext:
    """The knobs a section run reads (``repro bench`` flags)."""

    seeds: tuple[int, ...] = (1, 2, 3)
    scale: float = 0.15
    rounds: int = 10
    whatif_candidates: int = 8
    fluid: bool = False
    fluid_threshold: int = 0
    million_budget_s: float = fluid_bench.MILLION_BUDGET_S
    smoke: bool = False


def _unchecked(block: dict) -> None:
    """Sections whose numbers are recorded, not gated."""


@dataclasses.dataclass(frozen=True)
class Section:
    """One BENCH_engine.json section."""

    #: ``run(runner, ctx) -> block``; ``runner`` is shared by every section
    run: Callable[[ExperimentRunner, BenchContext], dict]
    render: Callable[[dict], str]
    #: raises ``AssertionError`` when the block breaks the section's claim
    check: Callable[[dict], None] = _unchecked
    #: :class:`BenchContext` overrides under ``--smoke`` (the CI gate)
    smoke: Mapping[str, object] = dataclasses.field(default_factory=dict)


_ONE_SEED = {"seeds": (1,)}

#: every BENCH_engine.json section, in report order.  ``federation``
#: runs last so its shared-pool snapshot reflects every fan-out the
#: earlier sections made.
SECTIONS: dict[str, Section] = {
    "micro": Section(lambda runner, ctx: run_micro(ctx.rounds), render_micro),
    "ramp": Section(
        lambda runner, ctx: run_ramp_replication(
            ctx.seeds, ctx.scale, runner, ctx.fluid, ctx.fluid_threshold
        ),
        render_ramp,
    ),
    "whatif": Section(
        lambda runner, ctx: run_whatif_bench(ctx.whatif_candidates),
        render_whatif,
        check_whatif_section,
    ),
    "sweep": Section(
        lambda runner, ctx: run_sweep_bench(), render_sweep, check_sweep_section
    ),
    "chaos": Section(
        lambda runner, ctx: chaos_bench.run_chaos_section(runner, ctx.seeds),
        chaos_bench.render_section,
        chaos_bench.check_section,
        smoke=_ONE_SEED,
    ),
    "deploy": Section(
        lambda runner, ctx: deploy_bench.run_deploy_section(runner, ctx.seeds),
        deploy_bench.render_section,
        deploy_bench.check_section,
        smoke=_ONE_SEED,
    ),
    "market": Section(
        lambda runner, ctx: market_bench.run_market_section(runner, ctx.seeds),
        market_bench.render_section,
        market_bench.check_section,
        smoke=_ONE_SEED,
    ),
    "fluid": Section(
        lambda runner, ctx: fluid_bench.run_fluid_section(
            runner, ctx.seeds[0], million_budget_s=ctx.million_budget_s
        ),
        fluid_bench.render_section,
        fluid_bench.check_section,
        smoke={"million_budget_s": fluid_bench.SMOKE_BUDGET_S},
    ),
    "policy": Section(
        lambda runner, ctx: policy_bench.run_policy_section(
            runner, ctx.seeds, ctx.scale, tune_smoke=ctx.smoke
        ),
        policy_bench.render_section,
        policy_bench.check_section,
        smoke=_ONE_SEED,
    ),
    "federation": Section(
        lambda runner, ctx: federation_bench.run_federation_section(
            runner, ctx.seeds[0], smoke=ctx.smoke
        ),
        federation_bench.render_section,
        federation_bench.check_section,
    ),
}


def run_section(
    name: str, runner: ExperimentRunner, ctx: BenchContext = BenchContext()
) -> dict:
    """Compute one section's block (``ctx.smoke`` applies its overrides)."""
    section = SECTIONS[name]
    if ctx.smoke:
        ctx = dataclasses.replace(ctx, **section.smoke)
    return section.run(runner, ctx)


def run_bench(
    names: Sequence[str],
    runner: ExperimentRunner,
    ctx: BenchContext = BenchContext(),
    out_path: str | None = None,
) -> list[str]:
    """Run, render and check each named section in registry order.

    Returns one line per failed section (empty when all pass).  Only an
    all-passing report is merged into ``out_path`` (sections already in
    the file and not run here are kept), so a failing section can never
    reach a committed BENCH_engine.json.
    """
    if not __debug__:
        raise RuntimeError(
            "section checks are assert statements; run without python -O"
        )
    unknown = set(names) - set(SECTIONS)
    if unknown:
        raise ValueError(
            f"unknown bench section(s) {sorted(unknown)}; "
            f"choose from {list(SECTIONS)}"
        )
    report: dict = {}
    failures: list[str] = []
    for name in (n for n in SECTIONS if n in names):
        label = f"{name}-smoke" if ctx.smoke else name
        try:
            block = report[name] = run_section(name, runner, ctx)
            print()
            print(SECTIONS[name].render(block))
            SECTIONS[name].check(block)
        except AssertionError as exc:
            failures.append(f"{label}: FAIL {exc}")
            print(failures[-1])
        else:
            print(f"{label}: PASS")
    if out_path and not failures:
        path = Path(out_path)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.update(report)
        path.write_text(json.dumps(merged, indent=2, default=float) + "\n")
        print(f"\nReport written to {out_path}")
    return failures


def check_against(
    reference_path: str, tolerance: float = 0.25, rounds: int = 10
) -> tuple[bool, list[str]]:
    """Perf-smoke gate: re-time the micro scenarios and compare against a
    committed BENCH_engine.json.  Each scenario is measured in units of
    the reference loop timed beside it (``ref_ratio``), so a faster or
    busier host moves both sides; a scenario fails if its ratio exceeds
    ``(1 + tolerance) ×`` the committed ratio (being *faster* never
    fails).  Returns (ok, report lines)."""
    reference = json.loads(Path(reference_path).read_text())
    fresh = run_micro(rounds)
    ok = True
    lines = []
    for name, block in fresh.items():
        committed = reference["micro"][name]["ref_ratio"]
        measured = block["ref_ratio"]
        limit = committed * (1.0 + tolerance)
        passed = measured <= limit
        ok = ok and passed
        lines.append(
            f"{name}: {measured:.3f}x reference loop "
            f"(best {block['best_s'] * 1e3:.2f} ms, "
            f"loop {block['ref_s'] * 1e3:.2f} ms) vs committed "
            f"{committed:.3f}x (limit {limit:.3f}x) "
            f"{'ok' if passed else 'REGRESSION'}"
        )
    return ok, lines


def _passes(label: str, check: Callable[[dict], None], block: dict,
            lines: list[str]) -> bool:
    try:
        check(block)
    except (AssertionError, KeyError) as exc:
        lines.append(f"{label}: FAIL {exc}")
        return False
    lines.append(f"{label}: ok")
    return True


def check_whatif(
    reference_path: str, min_speedup: float = 3.0
) -> tuple[bool, list[str]]:
    """Perf-smoke gate over the what-if work (``make bench-whatif-check``).

    Validates the *committed* BENCH_engine.json whatif section (present,
    byte-identical, memoized speedup >= ``min_speedup``), then runs two
    live smokes sized for a CI runner: a 2-candidate parallel decision
    that must be byte-identical to serial with the same winner, and a
    2x2 sweep shard whose warm pass must resolve from the cache with
    identical rows.  Returns (ok, report lines).
    """
    reference = json.loads(Path(reference_path).read_text())
    committed = reference.get("whatif")
    if committed is None:
        return False, [f"{reference_path}: no 'whatif' section committed"]

    def committed_check(w: dict) -> None:
        check_whatif_section(w)
        assert w["speedup_memoized"] >= min_speedup, (
            f"speedup_memoized below {min_speedup:g}"
        )

    lines: list[str] = []
    ok = _passes("committed whatif section", committed_check, committed, lines)
    live = run_whatif_bench(candidates=2)
    ok = _passes(
        "live 2-candidate parallel decision", check_whatif_section, live, lines
    ) and ok
    lines.append(render_whatif(live))
    ok = _passes(
        "live 2x2 sweep", check_sweep_section, run_sweep_bench(), lines
    ) and ok
    return ok, lines
