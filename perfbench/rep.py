"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE [--size SIZE]

``MODE`` is ``warmup`` (import and build only, so bytecode is compiled
before anything is timed), ``untraced`` or ``traced``.  The last line of
standard output is one JSON object with the raw host times, the reference
loop samples taken beside them, peak RSS, the scorecard digest and the
simulated outcome; ``traced`` adds the span aggregates of :mod:`tracer`.

Set-up time runs from just before ``import repro`` to the end of
``start_all()``; for a federation it ends when every region worker has
reported ready (the coordinator then builds its global load balancer).

An untraced single-cluster run advances the kernel in :data:`CHUNKS`
steps (``ManagedSystem.advance`` in steps is byte-identical to one call);
a federation worker runs its epochs in chunks of :data:`EPOCHS_PER_CHUNK`.
Each chunk is timed, and so is :func:`ref_loop_s` on either side of it:
how fast the host ran a fixed loop while that piece of the workload ran.  ``run.py`` scales each
piece's raw time by it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: kernel advances per untraced single-cluster run
CHUNKS = 40
#: federation epochs per timed chunk of a worker
EPOCHS_PER_CHUNK = 5


def ref_loop_s() -> float:
    """Host time of a fixed pure-Python loop (about 7 ms on a quiet
    2.1 GHz Xeon core): how fast the host runs interpreter code now."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_single(workload: str, seed: int, size: str, mode: str, tracer) -> dict:
    ref_before = ref_loop_s()
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)
    from repro.jade.system import ManagedSystem

    import workloads

    t_import = time.perf_counter()
    if tracer is not None:
        tracer.install()
    system = ManagedSystem(workloads.build(workload, seed, size))
    t_start = time.perf_counter()
    if tracer is not None:
        tracer.start_root()
    horizon = system.start_all()
    t_setup = time.perf_counter()
    if mode == "warmup":
        return {}
    if tracer is not None:
        # one advance: reference loops inside the root span would count
        # as unattributed time
        system.advance(horizon)
        system.finish()
        wall = time.perf_counter() - t_start
        tracer.stop_root()
        return {"wall_s": wall, "score": workloads.score_system(system)}
    ref = ref_loop_s()
    setup_ref = (ref_before + ref) / 2
    chunks = []  # [host seconds, reference-loop seconds around them]
    dt = t_setup - t_start  # start_all() counts with the first chunk
    for k in range(1, CHUNKS + 1):
        t = time.perf_counter()
        system.advance(horizon * k / CHUNKS)
        if k == CHUNKS:
            system.finish()
        dt += time.perf_counter() - t
        ref_after = ref_loop_s()
        chunks.append([dt, (ref + ref_after) / 2])
        ref, dt = ref_after, 0.0
    return {
        "import_s": t_import - t0,
        "build_s": t_setup - t_import,
        "setup_s": t_setup - t0,
        "setup_pieces": [[[t_setup - t0, setup_ref]]],
        "wall_s": sum(c[0] for c in chunks),
        "run_pieces": [chunks],
        "rss_mb": peak_rss_mb(),
        "score": workloads.score_system(system),
    }


def run_federation(workload: str, seed: int, size: str, mode: str, tracer) -> dict:
    ref_before = ref_loop_s()
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: part of set-up)
    from repro.federation import coordinator
    from repro.federation.region import RegionRuntime
    from repro.federation.routing import GlobalLoadBalancer

    import workloads

    t_import = time.perf_counter()
    spec = workloads.build(workload, seed, size)
    if mode == "warmup":
        return {}
    ready = []
    balancer_init = GlobalLoadBalancer.__init__

    def _init(self, *args, **kwargs):
        ready.append(time.perf_counter())
        balancer_init(self, *args, **kwargs)

    GlobalLoadBalancer.__init__ = _init
    # timed epochs and reference samples, filled in each (forked) worker
    worker = {"chunks": [], "dt": 0.0, "ref": None, "ref_s": 0.0}
    if tracer is None:
        run_epoch = RegionRuntime.run_epoch

        def sample_ref() -> float:
            ref = ref_loop_s()
            worker["ref_s"] += ref
            return ref

        def _run_epoch(self, epoch):
            if worker["ref"] is None:
                worker["ref"] = sample_ref()
            t = time.perf_counter()
            out = run_epoch(self, epoch)
            worker["dt"] += time.perf_counter() - t
            if (epoch + 1) % EPOCHS_PER_CHUNK == 0 or epoch + 1 == spec.epochs:
                ref = sample_ref()
                worker["chunks"].append([worker["dt"], (worker["ref"] + ref) / 2])
                worker["ref"], worker["dt"] = ref, 0.0
            return out

        RegionRuntime.run_epoch = _run_epoch
    else:
        tracer.install()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="workers-", dir=ROOT / ".perfbench_out")
    coordinator._region_worker = _reporting_worker(
        coordinator._region_worker, out_dir, tracer, worker
    )
    t_start = time.perf_counter()
    if tracer is not None:
        tracer.start_root()
    result = coordinator.run_federation(spec, parallel=True)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.stop_root()
    workers = []
    for path in sorted(Path(out_dir).iterdir()):
        workers.append(json.loads(path.read_text()))
        path.unlink()
    os.rmdir(out_dir)
    if len(workers) != len(spec.regions):
        raise RuntimeError(f"{len(workers)} worker reports for {len(spec.regions)} regions")
    critical = result.critical_path_s()
    return {
        "import_s": t_import - t0,
        "build_s": ready[0] - t_start,
        "setup_s": ready[0] - t0,
        "setup_pieces": [[[ready[0] - t0, (ref_before + ref_loop_s()) / 2]]],
        "wall_s": t_end - t_start,
        "run_pieces": [w["chunks"] for w in workers],
        "rss_mb": peak_rss_mb() + sum(w["rss_mb"] for w in workers),
        "score": workloads.score_federation(result),
        "federation": {
            "coordinator_busy_s": result.coordinator_busy_s,
            "critical_path_s": critical,
            # the workers' reference samples are outside their epoch busy time
            "barrier_wait_s": (t_end - t_start) - critical
            - max(w["ref_s"] for w in workers),
            "region_build_s": max(r.build_s for r in result.regions.values()),
            "updates_routed": result.updates_routed,
        },
        "worker_traces": [w["trace"] for w in workers if w["trace"] is not None],
    }


def _reporting_worker(region_worker, out_dir: str, tracer, worker: dict):
    """Wrap the region worker entry point (workers are forked, so the
    wrapper, ``worker`` and an installed tracer carry over) to leave the
    worker's peak RSS, timed epochs and span aggregates in ``out_dir``
    when it ends."""

    def reporting_worker(conn, spec, region, trace_jsonl):
        if tracer is not None:
            tracer.start_root()
        try:
            region_worker(conn, spec, region, trace_jsonl)
        finally:
            if tracer is not None:
                tracer.stop_root()
            report = {
                "rss_mb": peak_rss_mb(),
                "chunks": worker["chunks"],
                "ref_s": worker["ref_s"],
                "trace": tracer.snapshot() if tracer is not None else None,
            }
            Path(out_dir, f"{region.name}.json").write_text(json.dumps(report))

    return reporting_worker


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("warmup", "untraced", "traced"), required=True)
    ap.add_argument("--size", default="full")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.mode == "traced":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    run = run_federation if args.workload == "federation-2r" else run_single
    out = run(args.workload, args.seed, args.size, args.mode, tracer)
    # measure the checkout's program, never an installed copy of it
    imported = Path(sys.modules["repro"].__file__).resolve()
    if not imported.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {imported}, not from {ROOT / 'src'}")
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        tracer.uninstall()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
