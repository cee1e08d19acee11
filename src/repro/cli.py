"""Command-line interface.

Run the paper's experiments without writing code::

    python -m repro ramp --managed            # Figures 5/6/7/9 run
    python -m repro ramp --static             # Figure 8 baseline
    python -m repro ramp --proactive          # forecast-driven capacity manager
    python -m repro steady --clients 80       # Table 1 operating point
    python -m repro recovery                  # crash + repair scenario
    python -m repro chaos --campaign gray --detector phi   # fault campaign
    python -m repro market --scenario spot-heavy           # heterogeneous fleet
    python -m repro whatif --at 400           # fork mid-ramp, compare candidates
    python -m repro ramp --managed --csv out.csv   # export the series

Every command prints a summary and (optionally) writes the collected time
series as CSV for external plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.chaos.bench import SCENARIO as CHAOS
from repro.deploy.bench import SCENARIO as DEPLOY
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.market.bench import SCENARIO as MARKET
from repro.runner.scenario import add_runner_flags, parse_list, runner_from_args
from repro.workload.profiles import ConstantProfile, RampProfile

#: the seeded scenario subcommands, all run by repro.runner.scenario
SCENARIOS = (CHAOS, DEPLOY, MARKET)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="time compression of the scenario (0.5 = half duration)",
    )
    parser.add_argument(
        "--csv", metavar="FILE", default=None, help="write time series as CSV"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="dump the decision trace as JSONL (render with `repro trace FILE`)",
    )


def _add_scaling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cohort",
        type=int,
        default=1,
        metavar="K",
        help="emulate clients in batches of K (one simulated process stands "
        "for K identical browsers; lets the ramp run at 100k+ users)",
    )
    parser.add_argument(
        "--hardware-scale",
        type=float,
        default=None,
        metavar="H",
        help="scale node speed/memory and the thrashing knee by H "
        "(default: the cohort size, i.e. weak scaling)",
    )
    _add_fluid(parser)


def _add_fluid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fluid",
        action="store_true",
        help="replace per-cohort request events with the fluid flow "
        "engine (mean-field ODE per tick; the control loops see the "
        "same CPU/metrics signals)",
    )
    parser.add_argument(
        "--fluid-threshold",
        type=int,
        default=0,
        metavar="N",
        help="with --fluid, run discrete cohorts below N emulated users "
        "and the fluid engine at or above (0 = always fluid)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jade reproduction: autonomic management experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ramp = sub.add_parser("ramp", help="the §5.2 workload ramp (80→500→80)")
    mode = ramp.add_mutually_exclusive_group()
    mode.add_argument(
        "--managed", action="store_true", default=True, help="Jade active (default)"
    )
    mode.add_argument(
        "--static",
        action="store_true",
        help="no Jade: fixed 1 Tomcat + 1 MySQL (Figure 8)",
    )
    ramp.add_argument("--peak", type=int, default=500, help="peak client count")
    ramp.add_argument(
        "--proactive",
        action="store_true",
        help="run the forecast-driven capacity manager alongside the "
        "reactive loops",
    )
    _add_scaling(ramp)
    _add_common(ramp)

    steady = sub.add_parser("steady", help="constant load (Table 1 protocol)")
    steady.add_argument("--clients", type=int, default=80)
    steady.add_argument("--duration", type=float, default=300.0)
    steady.add_argument(
        "--no-jade", action="store_true", help="run without the managers"
    )
    steady.add_argument(
        "--proactive",
        action="store_true",
        help="run the forecast-driven capacity manager alongside the "
        "reactive loops",
    )
    _add_scaling(steady)
    _add_common(steady)

    recovery = sub.add_parser("recovery", help="DB replica crash + self-repair")
    recovery.add_argument("--clients", type=int, default=120)
    recovery.add_argument("--crash-at", type=float, default=300.0)
    _add_common(recovery)

    for scenario in SCENARIOS:
        scenario.add_parser(sub)

    whatif = sub.add_parser(
        "whatif",
        help="fork the ramp mid-run and compare candidate replica "
        "configurations over a forecast horizon",
    )
    whatif.add_argument(
        "--at", type=float, default=400.0, metavar="T",
        help="simulated time of the fork point (default 400s)",
    )
    whatif.add_argument("--peak", type=int, default=500, help="peak client count")
    whatif.add_argument(
        "--horizon", type=float, default=120.0, help="forecast horizon (s)"
    )
    whatif.add_argument(
        "--warmup", type=float, default=60.0,
        help="branch warmup before the measurement window (s)",
    )
    whatif.add_argument(
        "--model",
        choices=("ewma", "trend", "seasonal"),
        default="trend",
        help="load forecaster (default: trend)",
    )
    whatif.add_argument(
        "--max-delta", type=int, default=1,
        help="how far candidates may stray from the current configuration",
    )
    whatif.add_argument(
        "--slo", type=float, default=0.5, metavar="SEC",
        help="latency SLO priced by the cost model (default 0.5 s)",
    )
    whatif.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the canonical candidate-outcome JSON report",
    )
    whatif.add_argument("--seed", type=int, default=1, help="experiment seed")
    whatif.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="time compression of the scenario (0.5 = half duration)",
    )
    whatif.add_argument(
        "--prune", action="store_true",
        help="dominance pruning: stop branches that provably cannot beat "
        "the incumbent candidate (never changes the winner)",
    )
    add_runner_flags(whatif, unit="candidate")

    sweep = sub.add_parser(
        "sweep",
        help="grid fan-out: seeds x scales x replica policies x cohort "
        "sizes through the parallel cached runner",
    )
    sweep.add_argument(
        "--seeds", default="1,2", metavar="LIST",
        help="comma-separated seeds (default 1,2)",
    )
    sweep.add_argument(
        "--scales", default="0.1", metavar="LIST",
        help="comma-separated time-compression factors (default 0.1)",
    )
    sweep.add_argument(
        "--policies", default="static,managed", metavar="LIST",
        help="comma-separated replica policies out of static, managed, "
        "proactive (default static,managed)",
    )
    sweep.add_argument(
        "--cohorts", default="1", metavar="LIST",
        help="comma-separated client cohort sizes (default 1)",
    )
    sweep.add_argument(
        "--peak", type=int, default=500, help="ramp peak client count"
    )
    sweep.add_argument(
        "--fleet", default="uniform", metavar="LIST",
        help="comma-separated fleet policies: 'uniform' (the paper's flat "
        "pool) and/or market presets such as on-demand, balanced, "
        "spot-heavy (default uniform)",
    )
    _add_fluid(sweep)
    sweep.add_argument(
        "--regions", default="1", metavar="LIST", dest="regions",
        help="comma-separated region counts; cells with more than one "
        "region run as a federation under the global load balancer "
        "(default 1)",
    )
    sweep.add_argument(
        "--controllers", default="default", metavar="LIST",
        help="comma-separated control-loop policy plugins: 'default' "
        "(the paper's threshold policy) and/or PolicyConfig strings "
        "such as queue-model, adaptive-threshold, target-utilization, "
        "'forecast:lead_s=90' (default default)",
    )
    sweep.add_argument(
        "--csv", metavar="FILE", default=None,
        help="write one row per grid cell as CSV",
    )
    sweep.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full sweep result (spec + rows + cache) as JSON",
    )
    add_runner_flags(sweep, unit="cell")

    from repro.federation.spec import PRESETS as FED_PRESETS

    federate = sub.add_parser(
        "federate",
        help="run N regional clusters in lockstep epochs under the "
        "global load balancer (one worker process per region)",
    )
    federate.add_argument(
        "--scenario", default="global-ramp", choices=sorted(FED_PRESETS),
        help="named federation preset (default: global-ramp)",
    )
    federate.add_argument(
        "--regions", type=int, default=None, metavar="N",
        help="region count (default: the scenario's own)",
    )
    federate.add_argument(
        "--scale", type=float, default=0.3,
        help="time-compression factor for every region (default 0.3)",
    )
    federate.add_argument("--seed", type=int, default=1)
    federate.add_argument(
        "--peak", type=int, default=None,
        help="per-region peak client count (default: the scenario's own)",
    )
    federate.add_argument(
        "--epoch", type=float, default=None, metavar="SEC",
        help="override the epoch barrier period (simulated seconds)",
    )
    federate.add_argument(
        "--events", action="store_true",
        help="print the per-epoch routing log (weights, spill, "
        "evacuations)",
    )
    federate.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the canonical federation scorecard JSON "
        "(byte-stable across serial/parallel execution)",
    )
    federate.add_argument(
        "--trace-dir", metavar="DIR", default=None,
        help="write one region-tagged decision trace JSONL per region",
    )
    federate.add_argument(
        "--serial", action="store_true",
        help="run regions in-process (results are byte-identical to "
        "parallel)",
    )
    federate.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )

    tune = sub.add_parser(
        "tune",
        help="autotune controller parameters: grid/random search over "
        "thresholds, windows and inhibition through the cached runner, "
        "scored on SLO violation + node-hours + reconfigurations",
    )
    tune.add_argument(
        "--app-max", default="0.7,0.8", metavar="LIST",
        help="app-tier grow thresholds (default 0.7,0.8)",
    )
    tune.add_argument(
        "--app-min", default="0.38,0.45", metavar="LIST",
        help="app-tier shrink thresholds (default 0.38,0.45)",
    )
    tune.add_argument(
        "--db-max", default="0.65,0.75", metavar="LIST",
        help="db-tier grow thresholds (default 0.65,0.75)",
    )
    tune.add_argument(
        "--db-min", default="0.4,0.45", metavar="LIST",
        help="db-tier shrink thresholds (default 0.4,0.45)",
    )
    tune.add_argument(
        "--windows", default="1.0", metavar="LIST",
        help="moving-average window scales (default 1.0)",
    )
    tune.add_argument(
        "--inhibitions", default="30,60", metavar="LIST",
        help="inhibition periods in seconds (default 30,60)",
    )
    tune.add_argument(
        "--controllers", default="default", metavar="LIST",
        help="comma-separated policy plugins to cross with the grid "
        "(default default)",
    )
    tune.add_argument(
        "--seeds", default="1,2,3", metavar="LIST",
        help="comma-separated seeds per cell (default 1,2,3)",
    )
    tune.add_argument(
        "--scale", type=float, default=0.15,
        help="time compression of the ramp cells (default 0.15)",
    )
    tune.add_argument(
        "--samples", type=int, default=0, metavar="N",
        help="random-search subsample of the grid (0 = full grid)",
    )
    tune.add_argument(
        "--chaos", default="", metavar="CAMPAIGN",
        help="also score MTTR under this chaos preset (e.g. crash)",
    )
    tune.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="ranked cells to print (default 10)",
    )
    tune.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the winning cell as a tuned config "
        "(e.g. configs/tuned_policy.json)",
    )
    tune.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the full ranked report as JSON",
    )
    add_runner_flags(tune, unit="cell")

    cache = sub.add_parser(
        "cache", help="inspect or clean the on-disk result cache"
    )
    cache.add_argument(
        "action", choices=("stats", "clear", "prune"),
        help="stats: entry count and footprint; clear: delete everything; "
        "prune: evict least-recently-used entries down to the size cap",
    )
    cache.add_argument(
        "--dir", default=None, metavar="PATH",
        help="cache directory (default $REPRO_CACHE_DIR or "
        "~/.cache/repro-jade)",
    )

    from repro.runner.bench import SECTIONS

    bench = sub.add_parser(
        "bench",
        help="engine benchmark: every BENCH_engine.json section (micro "
        "scenarios, ramp replication, what-if, sweep and the subsystem "
        "gates), each rendered and checked",
    )
    bench.add_argument(
        "--out", metavar="FILE", default=None,
        help="merge the sections run into this report JSON (e.g. "
        "BENCH_engine.json); written only when every check passes",
    )
    bench.add_argument(
        "--section", action="append", default=[], choices=list(SECTIONS),
        metavar="SECTION",
        help="run only this section (repeatable; choices: "
        f"{', '.join(SECTIONS)})",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="the fast CI gate of each section run (one seed, smoke "
        "budgets), computed without the result cache",
    )
    bench.add_argument(
        "--check", metavar="FILE", default=None,
        help="perf-smoke mode: compare fresh micro timings against a "
        "committed report; exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed slowdown fraction in --check mode (default 0.25)",
    )
    bench.add_argument(
        "--seeds", type=int, default=3, metavar="N",
        help="replicate seeded sections over seeds 1..N (default 3)",
    )
    bench.add_argument(
        "--scale", type=float, default=0.15,
        help="time compression of the ramp runs (default 0.15)",
    )
    bench.add_argument(
        "--rounds", type=int, default=10,
        help="best-of rounds for the micro scenarios (default 10)",
    )
    bench.add_argument(
        "--serial", action="store_true", help="run experiments in-process"
    )
    bench.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    bench.add_argument(
        "--micro-only", action="store_true",
        help="run only the micro scenarios (skip every other section)",
    )
    bench.add_argument(
        "--skip", action="append", default=[], choices=list(SECTIONS),
        metavar="SECTION",
        help="skip one report section (repeatable)",
    )
    _add_fluid(bench)
    bench.add_argument(
        "--check-whatif", metavar="FILE", default=None,
        help="perf-smoke mode: validate the committed whatif section and "
        "run a 2-candidate parallel decision + 2x2 sweep shard live; "
        "exit 1 on failure",
    )
    bench.add_argument(
        "--whatif-candidates", type=int, default=8, metavar="N",
        help="candidate count for the what-if decision benchmark (default 8)",
    )

    trace = sub.add_parser(
        "trace", help="render a JSONL decision trace as a causal timeline"
    )
    trace.add_argument("file", help="trace file written by --trace")
    trace.add_argument(
        "--all",
        action="store_true",
        help="include probe readings (high-frequency; hidden by default)",
    )
    trace.add_argument(
        "--tail", type=int, default=None, metavar="N", help="show only the last N events"
    )

    return parser


def _print_summary(system: ManagedSystem) -> None:
    summary = system.summary()
    col = system.collector
    print("\nSummary")
    print(f"  completed requests : {summary['completed']:.0f}")
    print(f"  failed requests    : {summary['failed']:.0f}")
    print(f"  throughput         : {summary['throughput_rps']:.2f} req/s")
    print(f"  mean latency       : {summary['latency_mean_ms']:.1f} ms")
    print(f"  p95 latency        : {summary['latency_p95_ms']:.1f} ms")
    print(f"  node CPU / memory  : {summary['node_cpu_mean'] * 100:.1f} % / "
          f"{summary['node_mem_mean'] * 100:.1f} %")
    print(
        f"  peak replicas      : app x{int(summary['app_replicas_max'])}, "
        f"db x{int(summary['db_replicas_max'])}"
    )
    if col.reconfigurations:
        print("\nReconfigurations")
        for t, desc in col.reconfigurations:
            print(f"  t={t:8.1f}s  {desc}")
    fluid_stats = getattr(system.emulator, "fluid_stats", None)
    if fluid_stats is not None:
        stats = fluid_stats()
        print(
            f"\nFluid engine: {stats['ticks']} flow ticks, "
            f"{stats['completions']:,.0f} completions, "
            f"{stats['handoffs_to_fluid']} handoffs to fluid / "
            f"{stats['handoffs_to_discrete']} back to discrete "
            f"(threshold {stats['threshold']}, "
            f"peak fluid population {stats['peak_fluid_population']:,})"
        )
    proactive = getattr(system, "proactive", None)
    if proactive is not None:
        print(
            f"\nProactive manager: {proactive.forecasts_issued} forecasts, "
            f"{proactive.evaluations} what-if evaluations, "
            f"{proactive.grows_triggered} grows / "
            f"{proactive.shrinks_triggered} shrinks triggered "
            f"({proactive.decisions_suppressed} suppressed)"
        )


def _write_csv(
    system: ManagedSystem, path: str, extra: Optional[dict] = None
) -> None:
    from repro.metrics.export import write_csv, write_json

    rows = write_csv(system.collector, path)
    print(f"\n{rows} series rows written to {path}")
    if path.endswith(".csv"):
        json_path = path[:-4] + ".json"
        write_json(
            system.collector,
            json_path,
            horizon_s=system.config.profile.duration_s,
            tracer=system.tracer,
            seed=system.config.seed,
            extra=extra,
        )
        print(f"Summary report written to {json_path}")


def _print_trace_note(system: ManagedSystem) -> None:
    tracer = system.tracer
    if tracer is None:
        return
    summary = tracer.summary()
    print(
        f"\nDecision trace: {summary['events']} events "
        f"({summary['decisions_suppressed']} decisions suppressed, "
        f"{summary['reconfigurations']['count']} reconfigurations)"
    )
    if tracer.sink_path:
        print(f"  written to {tracer.sink_path} "
              f"(render with: repro trace {tracer.sink_path})")


def _run(config: ExperimentConfig, csv_path: Optional[str]) -> ManagedSystem:
    system = ManagedSystem(config)
    duration = config.profile.duration_s
    print(
        f"Running {duration:.0f} s of simulated time "
        f"(seed {config.seed}, managed={config.managed}, "
        f"recovery={bool(config.recovery)})..."
    )
    system.run()
    _print_summary(system)
    _print_trace_note(system)
    if csv_path:
        _write_csv(system, csv_path)
    return system


def cmd_ramp(args: argparse.Namespace) -> int:
    # With cohorts the ramp keeps the paper's 3600 s trapezoid: base and
    # step size scale with the cohort factor, so `--peak 100000 --cohort
    # 200` is the 80->500->80 scenario with every client replaced by 200.
    profile = RampProfile(
        base=80 * args.cohort,
        peak=args.peak,
        step_clients=21 * args.cohort,
        warmup_s=300.0 * args.scale,
        step_period_s=60.0 * args.scale,
        cooldown_s=300.0 * args.scale,
    )
    hs = args.hardware_scale if args.hardware_scale is not None else float(args.cohort)
    config = ExperimentConfig(
        profile=profile, seed=args.seed, managed=not args.static,
        proactive=args.proactive, trace_jsonl=args.trace,
        cohort=args.cohort, hardware_scale=hs,
        fluid=args.fluid, fluid_threshold=args.fluid_threshold,
    )
    _run(config, args.csv)
    return 0


def cmd_steady(args: argparse.Namespace) -> int:
    hs = args.hardware_scale if args.hardware_scale is not None else float(args.cohort)
    config = ExperimentConfig(
        profile=ConstantProfile(args.clients, args.duration * args.scale),
        seed=args.seed,
        managed=not args.no_jade,
        proactive=args.proactive,
        trace_jsonl=args.trace,
        cohort=args.cohort,
        hardware_scale=hs,
        fluid=args.fluid,
        fluid_threshold=args.fluid_threshold,
    )
    _run(config, args.csv)
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    from repro.capacity import CostModel, WhatIfEngine, make_forecaster, run_to_fork
    from repro.capacity.whatif import default_candidates

    profile = RampProfile(
        peak=args.peak,
        warmup_s=300.0 * args.scale,
        step_period_s=60.0 * args.scale,
        cooldown_s=300.0 * args.scale,
    )
    config = ExperimentConfig(profile=profile, seed=args.seed, managed=True)
    system = ManagedSystem(config)
    print(
        f"Running the managed ramp to the fork point t={args.at:.0f}s "
        f"(seed {args.seed})..."
    )
    snapshot = run_to_fork(system, args.at)
    print(
        f"Fork: {snapshot.clients} clients, app x{snapshot.app_replicas}, "
        f"db x{snapshot.db_replicas}, {snapshot.free_nodes} free nodes"
    )

    forecaster = make_forecaster(args.model)
    for t, clients in system.collector.workload.changes:
        forecaster.observe(t, clients)
    forecast = forecaster.predict(args.horizon)
    peak = max(v for _, v in forecast)
    print(
        f"Forecast [{args.model}]: load {snapshot.clients} -> "
        f"peak {peak:.0f} over {args.horizon:.0f}s"
    )

    from repro.runner.cache import ResultCache

    engine = WhatIfEngine(
        horizon_s=args.horizon,
        warmup_s=args.warmup,
        cost_model=CostModel(slo_latency_s=args.slo),
        parallel=not args.serial,
        max_workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        prune=args.prune,
    )
    candidates = default_candidates(snapshot, args.max_delta)
    print(f"Evaluating {len(candidates)} candidates "
          f"({args.warmup:.0f}s warmup + {args.horizon:.0f}s horizon each)...")
    outcomes = engine.evaluate(snapshot, forecast, candidates)
    best = engine.best(outcomes)
    if engine.cache is not None or engine.branches_pruned:
        print(
            f"  {engine.branches_run} branches run, "
            f"{engine.cache_hits} cache hits, "
            f"{engine.branches_pruned} pruned"
        )

    print(f"\n{'candidate':<12s} {'p95 (ms)':>9s} {'SLO viol':>9s} "
          f"{'node-h':>7s} {'cost':>8s}")
    for outcome in outcomes:
        if not outcome.feasible:
            print(f"{outcome.candidate.label:<12s} infeasible: {outcome.error}")
            continue
        marker = "  <- best" if outcome is best else ""
        print(
            f"{outcome.candidate.label:<12s} "
            f"{outcome.latency_p95_s * 1000:9.1f} "
            f"{outcome.slo_violation_s:8.0f}s "
            f"{outcome.cost.node_hours:7.3f} "
            f"{outcome.cost.total:8.3f}{marker}"
        )
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(engine.report(outcomes))
        print(f"\nCandidate report written to {args.report}")
    return 0


def _recovery_metrics(system: ManagedSystem, crash_t: float) -> dict:
    """Detection latency, MTTR and availability of a single-crash run,
    extracted from the reconfiguration log (same parse as
    ``benchmarks/bench_recovery.py``)."""
    col = system.collector
    detect_t = repaired_t = None
    for t, desc in col.reconfigurations:
        if detect_t is None and t >= crash_t and "detected failure" in desc:
            detect_t = t
        if repaired_t is None and t > crash_t and "grow:" in desc and "active" in desc:
            repaired_t = t
    completed = col.completed_requests
    attempted = completed + col.failed_requests
    return {
        "crash_at_s": crash_t,
        "detect_latency_s": (
            detect_t - crash_t if detect_t is not None else float("nan")
        ),
        "mttr_s": (
            repaired_t - crash_t if repaired_t is not None else float("nan")
        ),
        # NaN (not 1.0) when no request got through — same convention as
        # the chaos scorecard: a total outage is not perfect availability.
        "availability": completed / attempted if attempted else float("nan"),
    }


def cmd_recovery(args: argparse.Namespace) -> int:
    duration = max(900.0 * args.scale, args.crash_at + 300.0)
    config = ExperimentConfig(
        profile=ConstantProfile(args.clients, duration),
        seed=args.seed,
        managed=False,
        recovery=True,
        trace_jsonl=args.trace,
    )
    system = ManagedSystem(config)
    system.db_tier.grow()
    system.kernel.run(until=60.0)
    victim = system.db_tier.replicas[-1]
    print(
        f"Scheduling crash of {victim.node.name} "
        f"({victim.component.name}) at t={args.crash_at:.0f} s"
    )
    system.kernel.schedule_at(args.crash_at, victim.node.crash)
    system.run()
    _print_summary(system)
    metrics = _recovery_metrics(system, args.crash_at)
    print("\nRecovery")
    print(
        f"  detection latency  : {metrics['detect_latency_s']:.1f} s"
        if metrics["detect_latency_s"] == metrics["detect_latency_s"]
        else "  detection latency  : n/a (failure not detected)"
    )
    print(
        f"  MTTR               : {metrics['mttr_s']:.1f} s"
        if metrics["mttr_s"] == metrics["mttr_s"]
        else "  MTTR               : n/a (replica not repaired)"
    )
    print(
        f"  availability       : {metrics['availability'] * 100:.2f} %"
        if metrics["availability"] == metrics["availability"]
        else "  availability       : n/a (no requests attempted)"
    )
    _print_trace_note(system)
    controller = system.cjdbc.content.controller
    backends = controller.enabled_backends()
    digests = {b.server.state_digest for b in backends}
    print(
        f"\nBackends after repair: {[b.name for b in backends]} "
        f"(digests identical: {len(digests) == 1})"
    )
    if args.csv:
        _write_csv(system, args.csv, extra={"recovery": metrics})
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import (
        SweepSpec,
        run_sweep,
        write_sweep_csv,
        write_sweep_json,
    )

    spec = SweepSpec(
        seeds=parse_list(args.seeds, int),
        scales=parse_list(args.scales, float),
        policies=parse_list(args.policies, str),
        cohorts=parse_list(args.cohorts, int),
        peak=args.peak,
        fleets=parse_list(args.fleet, str),
        fluid=args.fluid,
        fluid_threshold=args.fluid_threshold,
        regions=parse_list(args.regions, int),
        controllers=parse_list(args.controllers, str),
    )
    cells = spec.grid()
    print(
        f"Sweeping {len(cells)} cells: {len(spec.policies)} policies x "
        f"{len(spec.seeds)} seeds x {len(spec.scales)} scales x "
        f"{len(spec.cohorts)} cohorts x {len(spec.fleets)} fleets x "
        f"{len(spec.regions)} region counts x "
        f"{len(spec.controllers)} controllers..."
    )
    result = run_sweep(spec, runner_from_args(args))
    print(
        f"{len(result.rows)} rows in {result.elapsed_s:.1f}s "
        f"({len(result.rows) / max(result.elapsed_s, 1e-9):.1f} rows/s)"
    )
    if result.cache is not None:
        print(
            f"  cache: {result.cache['hits']} hits / "
            f"{result.cache['misses']} misses ({result.cache['dir']})"
        )
    header = (
        f"{'cell':<32s} {'thr (rps)':>9s} {'p95 (ms)':>9s} {'repl':>9s} "
        f"{'cost':>8s}"
    )
    print("\n" + header)
    for row in result.rows:
        print(
            f"{row['label']:<32s} {row['throughput_rps']:9.2f} "
            f"{row['latency_p95_ms']:9.1f} "
            f"{'x' + str(int(row['app_replicas_max'])) + '/' + str(int(row['db_replicas_max'])):>9s} "
            f"{row['fleet_cost']:8.3f}"
        )
    if args.csv:
        write_sweep_csv(result.rows, args.csv)
        print(f"\nSweep rows written to {args.csv}")
    if args.json:
        write_sweep_json(result, args.json)
        print(f"Sweep result written to {args.json}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.policy.tune import (
        TuneSpec,
        render_report,
        run_tune,
        write_tuned_config,
    )
    spec = TuneSpec(
        app_max=parse_list(args.app_max, float),
        app_min=parse_list(args.app_min, float),
        db_max=parse_list(args.db_max, float),
        db_min=parse_list(args.db_min, float),
        window_scales=parse_list(args.windows, float),
        inhibitions=parse_list(args.inhibitions, float),
        controllers=parse_list(args.controllers, str),
        seeds=parse_list(args.seeds, int),
        scale=args.scale,
        samples=args.samples,
        chaos=args.chaos,
    )
    cells = spec.grid()
    runs_per_cell = len(spec.seeds) * (2 if spec.chaos else 1)
    print(
        f"Tuning {len(cells)} cells x {len(spec.seeds)} seeds "
        f"({len(cells) * runs_per_cell} runs)..."
    )
    report = run_tune(spec, runner=runner_from_args(args))
    print(render_report(report, top=args.top))
    if args.out:
        write_tuned_config(report, args.out)
        print(f"\ntuned config written to {args.out}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report, indent=2, default=float) + "\n"
        )
        print(f"full report written to {args.report}")
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    import dataclasses
    import time as _time

    from repro.federation.coordinator import run_federation
    from repro.federation.spec import PRESETS as FED_PRESETS
    from repro.runner import ResultCache

    factory = FED_PRESETS[args.scenario]
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.regions is not None:
        kwargs["regions"] = args.regions
    if args.peak is not None:
        kwargs["peak"] = args.peak
    spec = factory(**kwargs)
    if args.epoch is not None:
        spec = dataclasses.replace(spec, epoch_s=args.epoch)
    print(
        f"Federation '{spec.name}': {len(spec.regions)} regions x "
        f"{spec.epochs} epochs (epoch {spec.epoch_s:g}s, seed {spec.seed})"
    )
    t0 = _time.perf_counter()
    result = run_federation(
        spec,
        parallel=not args.serial,
        cache=None if args.no_cache else ResultCache(),
        trace_dir=args.trace_dir,
    )
    elapsed = _time.perf_counter() - t0
    header = (
        f"{'region':<12s} {'completed':>9s} {'failed':>7s} {'thr':>7s} "
        f"{'p95 ms':>8s} {'repl':>7s} {'weight':>7s} {'spill':>6s}"
    )
    print("\n" + header)
    for name, region in sorted(result.regions.items()):
        summary = region.run.summary()
        final_weight = (
            region.updates_applied[-1].weight
            if region.updates_applied
            else 1.0
        )
        spill_peak = max(
            (u.spill_clients for u in region.updates_applied), default=0
        )
        repl = (
            f"x{int(summary['app_replicas_max'])}"
            f"/{int(summary['db_replicas_max'])}"
        )
        print(
            f"{name:<12s} {summary['completed']:9.0f} "
            f"{summary['failed']:7.0f} {summary['throughput_rps']:7.2f} "
            f"{summary['latency_p95_ms']:8.1f} {repl:>7s} "
            f"{final_weight:7.2f} {spill_peak:6d}"
        )
    rollup = result.summary()
    print(
        f"{'GLOBAL':<12s} {rollup['completed']:9.0f} "
        f"{rollup['failed']:7.0f} {rollup['throughput_rps']:7.2f} "
        f"{rollup['latency_p95_ms']:8.1f}"
    )
    print(
        f"\nmode {result.mode}, {result.updates_routed} updates routed, "
        f"{result.events_processed} kernel events, {elapsed:.2f}s wall "
        f"(critical path {result.critical_path_s():.2f}s)"
    )
    if args.events:
        print("\nepoch routing log:")
        updates = sorted(
            (u for r in result.regions.values() for u in r.updates_applied),
            key=lambda u: (u.epoch, u.region),
        )
        for u in updates:
            spill = f" +{u.spill_clients} spill" if u.spill_clients else ""
            print(
                f"  epoch {u.epoch:>3d} {u.region:<12s} "
                f"weight {u.weight:.2f}{spill}"
                f"{'  [' + u.reason + ']' if u.reason != 'routing' else ''}"
            )
    if args.trace_dir:
        print(f"per-region traces in {args.trace_dir}/")
    if args.json:
        payload = {
            "scenario": spec.name,
            "seed": spec.seed,
            "topology": spec.topology(),
            "regions": {
                name: region.scorecard()
                for name, region in sorted(result.regions.items())
            },
            "global": rollup,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        print(f"Canonical scorecard written to {args.json}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.runner.cache import ResultCache

    cache = ResultCache(Path(args.dir) if args.dir else None)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache dir : {stats['dir']}")
        print(f"entries   : {stats['entries']}")
        print(
            f"size      : {stats['bytes'] / 1024 / 1024:.1f} MiB "
            f"(cap {stats['max_bytes'] / 1024 / 1024:.0f} MiB)"
            if stats["max_bytes"]
            else f"size      : {stats['bytes'] / 1024 / 1024:.1f} MiB (no cap)"
        )
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    else:  # prune
        evicted = cache.prune()
        print(
            f"evicted {len(evicted)} least-recently-used entries from "
            f"{cache.root}"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner.bench import check_against, check_whatif

    if args.check or args.check_whatif:
        ok = True
        lines: list[str] = []
        if args.check:
            micro_ok, micro_lines = check_against(
                args.check, tolerance=args.tolerance, rounds=args.rounds
            )
            ok = ok and micro_ok
            lines += micro_lines
        if args.check_whatif:
            whatif_ok, whatif_lines = check_whatif(args.check_whatif)
            ok = ok and whatif_ok
            lines += whatif_lines
        print("\n".join(lines))
        print("perf-smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    from repro.runner.bench import SECTIONS, BenchContext, run_bench
    from repro.runner.cache import ResultCache
    from repro.runner.parallel import ExperimentRunner

    if args.section:
        names = args.section
    elif args.micro_only:
        names = ["micro"]
    else:
        names = [n for n in SECTIONS if n not in args.skip]
    runner = ExperimentRunner(
        cache=None if args.no_cache or args.smoke else ResultCache(),
        parallel=not args.serial,
    )
    ctx = BenchContext(
        seeds=tuple(range(1, args.seeds + 1)),
        scale=args.scale,
        rounds=args.rounds,
        whatif_candidates=args.whatif_candidates,
        fluid=args.fluid,
        fluid_threshold=args.fluid_threshold,
        smoke=args.smoke,
    )
    failures = run_bench(names, runner, ctx, out_path=args.out)
    if failures:
        print("\nbench: FAIL\n" + "\n".join(failures), file=sys.stderr)
        if args.out:
            print(f"{args.out} not written", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.timeline import render_timeline_file

    try:
        print(render_timeline_file(args.file, include_probes=args.all, tail=args.tail))
    except BrokenPipeError:  # timeline piped into head/less and truncated
        sys.stderr.close()
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "ramp": cmd_ramp,
        "steady": cmd_steady,
        "recovery": cmd_recovery,
        **{scenario.name: scenario.main for scenario in SCENARIOS},
        "whatif": cmd_whatif,
        "sweep": cmd_sweep,
        "tune": cmd_tune,
        "federate": cmd_federate,
        "cache": cmd_cache,
        "bench": cmd_bench,
        "trace": cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        # Unreadable trace file, unwritable --trace/--csv sink, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
