"""Extension — adaptive thresholds (§7 future work).

"Part of our future work will focus on improving the self-optimizing
algorithm by setting incrementally and dynamically its parameters."

Scenario engineered to oscillate: a narrow dead band and a load level that
lands *inside* the contested region after each reconfiguration.  The static
reactor keeps flip-flopping; the adaptive reactor detects the grow/shrink
oscillation and widens its own dead band until the system settles.
"""

from repro.jade.self_optimization import LoopConfig
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.policy import PolicyConfig
from repro.workload.profiles import PiecewiseProfile

from benchmarks._shared import emit


def run_reactor(adaptive: bool) -> dict:
    profile = PiecewiseProfile([(0.0, 230)], duration_s=1800.0)
    policy = PolicyConfig("adaptive-threshold" if adaptive else "threshold")
    loop = LoopConfig(
        window_s=20.0,
        max_threshold=0.66,
        min_threshold=0.52,   # deliberately narrow: oscillation-prone
        policy=policy,
    )
    cfg = ExperimentConfig(
        profile=profile,
        seed=5,
        inhibition_s=30.0,
        db_loop=loop,
        app_loop=LoopConfig(window_s=60.0, policy=policy),
    )
    system = ManagedSystem(cfg)
    col = system.run()
    changes = col.replica_changes("database")
    flips = sum(
        1
        for (_, a), (_, b), (_, c) in zip(changes, changes[1:], changes[2:])
        if (b - a) * (c - b) < 0
    )
    reactor = system.optimizer.loops["db"].reactor
    # the adaptive policy's live band is runtime state; the static one's
    # is its parameter
    band = reactor.policy_state if adaptive else reactor.policy
    # Reconfigurations in the final third: has the system settled?
    late = [t for t, _ in changes if t > 1200.0]
    return {
        "adaptive": adaptive,
        "reconfigs": len(changes) - 1,
        "flips": flips,
        "late_reconfigs": len(late),
        "final_min_threshold": band.min_threshold,
        "adaptations": band.adaptations if adaptive else 0,
        "latency_ms": col.latency_summary()["mean"] * 1e3,
    }


def bench_ext_adaptive_thresholds(benchmark):
    def sweep():
        return [run_reactor(False), run_reactor(True)]

    static, adaptive = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Extension: static vs adaptive thresholds (narrow band, 230 clients)",
        "",
        f"{'reactor':<10}{'reconfigs':>10}{'flips':>7}{'late reconfigs':>15}"
        f"{'final min-thr':>14}{'mean lat (ms)':>14}",
    ]
    for r in (static, adaptive):
        label = "adaptive" if r["adaptive"] else "static"
        lines.append(
            f"{label:<10}{r['reconfigs']:>10}{r['flips']:>7}"
            f"{r['late_reconfigs']:>15}{r['final_min_threshold']:>14.2f}"
            f"{r['latency_ms']:>14.1f}"
        )
    lines.append("")
    lines.append(f"adaptive reactor adapted {adaptive['adaptations']} time(s)")
    emit("ext_adaptive", "\n".join(lines))

    # The adaptive reactor widened its band and churned no more than static.
    assert adaptive["adaptations"] >= 1
    assert adaptive["final_min_threshold"] < 0.52
    assert adaptive["reconfigs"] <= static["reconfigs"]
    assert adaptive["late_reconfigs"] <= static["late_reconfigs"]
