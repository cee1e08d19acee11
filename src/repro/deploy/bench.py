"""The deployment harness: the ``repro deploy`` scenario and the
``"deploy"`` section of BENCH_engine.json.

Two headline claims, asserted by the section gate:

* **bad push** — the canary catches a regression (4x demand, 30 % 500s)
  and rolls back automatically; post-rollback goodput is within 5 % of
  the pre-push steady state.
* **clean bounce** — the ``crossover`` strategy keeps SLO violation
  seconds strictly below ``brutal`` during a clean fleet bounce (and
  never drops below one serving replica, where brutal blacks out).
"""

from __future__ import annotations

from typing import Sequence

from repro.deploy.scenario import (
    PRESETS,
    STRATEGIES,
    deploy_configs,
    with_strategy,
)
from repro.deploy.scorecard import render_scorecard, score_scenario
from repro.runner.scenario import Scenario


class _Deploy(Scenario):
    name = "deploy"
    help = (
        "push a new server version through a bounce strategy with "
        "canary analysis and SLO-gated automatic rollback"
    )
    presets = PRESETS
    default = "clean-push"
    preset_help = "named deployment scenario"
    events_help = (
        "print the per-seed deployment event logs and capacity timeline"
    )

    def add_options(self, parser) -> None:
        parser.add_argument(
            "--strategy", choices=STRATEGIES, default=None,
            help="override the scenario's bounce strategy "
            "(brutal | upthendown | crossover | downthenup)",
        )
        parser.add_argument("--clients", type=int, default=120)
        parser.add_argument(
            "--duration", type=float, default=540.0,
            help="simulated seconds per run (default 540)",
        )

    def resolve(self, scenario, args):
        if args.strategy is None:
            return scenario
        return with_strategy(scenario, args.strategy)

    def banner(self, scenario, args) -> str:
        return (
            f"Deployment '{scenario.name}' ({scenario.version.label} via "
            f"{scenario.strategy}, "
            f"canary={'on' if scenario.canary else 'off'}): "
            f"{args.clients} clients x {args.duration:.0f}s"
        )

    def configs(self, scenario, seeds, args) -> dict:
        return deploy_configs(scenario, seeds, args.clients, args.duration)

    def score(self, scenario, runs, args) -> dict:
        return score_scenario(
            scenario, list(runs.values()), slo_latency_s=args.slo
        )

    def render(self, scorecard, runs, args) -> list[str]:
        return render_scorecard(scorecard)

    def events(self, runs) -> list[str]:
        lines = []
        for run in runs.values():
            lines.append(f"\nSeed {run.config.seed} events")
            for event in run.deploy.events:
                detail = ", ".join(
                    f"{k}={v}" for k, v in sorted(event.items())
                    if k not in ("t", "kind")
                )
                suffix = f" ({detail})" if detail else ""
                lines.append(f"  t={event['t']:7.1f}s  {event['kind']}{suffix}")
            for t, serving, total in run.deploy.capacity:
                lines.append(
                    f"  t={t:7.1f}s  capacity {serving}/{total} serving"
                )
        return lines


SCENARIO = _Deploy()


def _card(runner, scenario, seeds, clients, duration_s) -> dict:
    configs = deploy_configs(scenario, seeds, clients, duration_s)
    runs = runner.run_many(configs)
    return score_scenario(scenario, [runs[label] for label in configs])


def run_deploy_section(
    runner,
    seeds: Sequence[int] = (1, 2, 3),
    clients: int = 120,
    duration_s: float = 540.0,
) -> dict:
    """The ``"deploy"`` section of BENCH_engine.json."""
    seeds = tuple(seeds)

    bad_card = _card(runner, PRESETS["bad-push"](), seeds, clients, duration_s)

    clean = PRESETS["clean-bounce"]()
    arms = {}
    for strategy in ("crossover", "brutal"):
        arms[strategy] = _card(
            runner, with_strategy(clean, strategy), seeds, clients, duration_s
        )

    return {
        "seeds": list(seeds),
        "clients": clients,
        "duration_s": duration_s,
        "bad_push": bad_card,
        "clean_bounce": arms,
        "headline": {
            "rollbacks": sum(
                1 for v in bad_card["verdicts"] if v == "rolled-back"
            ),
            "runs": len(seeds),
            "rollback_latency_s": bad_card["aggregate"]["rollback_latency_s"],
            "goodput_ratio": bad_card["aggregate"]["goodput_ratio"],
            "crossover_slo_violation_s": arms["crossover"]["aggregate"][
                "bounce_slo_violation_s"
            ],
            "brutal_slo_violation_s": arms["brutal"]["aggregate"][
                "bounce_slo_violation_s"
            ],
            "crossover_min_serving": arms["crossover"]["aggregate"]["min_serving"],
            "brutal_blackout_s": arms["brutal"]["aggregate"]["blackout_s"],
        },
    }


def render_section(section: dict) -> str:
    h = section["headline"]
    lines = [
        f"Deployments: {section['clients']} clients x "
        f"{section['duration_s']:.0f}s, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"bad push (canary):    {h['rollbacks']}/{h['runs']} rolled back, "
        f"latency {h['rollback_latency_s']['mean']:.1f} +/- "
        f"{h['rollback_latency_s']['ci95']:.1f} s, "
        f"post/pre goodput {h['goodput_ratio']['mean'] * 100:.1f} %",
        "clean bounce (SLO violation s, min serving):",
        f"  crossover : {h['crossover_slo_violation_s']['mean']:6.1f} s   "
        f"min {h['crossover_min_serving']['mean']:.1f} replicas",
        f"  brutal    : {h['brutal_slo_violation_s']['mean']:6.1f} s   "
        f"blackout {h['brutal_blackout_s']['mean']:.1f} s",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The section gate (``repro bench``, its ``--smoke`` and pytest)."""
    h = section["headline"]
    assert h["rollbacks"] == h["runs"], (
        f"bad push not always rolled back: {h['rollbacks']}/{h['runs']}"
    )
    assert h["rollback_latency_s"]["mean"] < 120.0, "rollback too slow"
    for row in section["bad_push"]["per_seed"]:
        assert abs(row["goodput_ratio"] - 1.0) <= 0.05, (
            f"seed {row['seed']}: post-rollback goodput "
            f"{row['goodput_ratio'] * 100:.1f} % of pre-push"
        )
    crossover = h["crossover_slo_violation_s"]["mean"]
    brutal = h["brutal_slo_violation_s"]["mean"]
    assert crossover < brutal, (
        f"crossover SLO violation ({crossover:.1f} s) not below "
        f"brutal ({brutal:.1f} s)"
    )
    assert h["crossover_min_serving"]["mean"] >= 3.0, (
        "crossover dipped below the fleet size"
    )
    assert h["brutal_blackout_s"]["mean"] > 0.0, (
        "brutal bounce did not black out (model drifted?)"
    )
