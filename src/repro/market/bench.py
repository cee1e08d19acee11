"""The fleet-cost harness: the ``repro market`` scenario and the
``"market"`` section of BENCH_engine.json.

One headline claim, asserted by the section gate: on the Fig. 9 ramp,
the cost-aware fleet allocator with the ``spot-heavy`` policy meets the
**same SLO-violation budget** as the paper's uniform on-demand pool at
**>= 15 % lower total fleet cost**, with 95 % confidence intervals
across seeds.  The ``balanced`` arm rides along to show the
floor/savings trade-off.
"""

from __future__ import annotations

from typing import Sequence

from repro.market.costs import render_scorecard, score_scenario
from repro.market.scenario import PRESETS, market_configs
from repro.runner.scenario import Scenario, print_cache

#: minimum mean savings (percent) the headline arm must clear
MIN_SAVINGS_PCT = 15.0
#: how far (s) the mean SLO violation may exceed the uniform pool's
SLO_TOLERANCE_S = 10.0


def _arm(runs, uniform: bool) -> list:
    """The runs of the market arm (or of the uniform-pool baseline)."""
    return [r for r in runs if (r.config.market is None) == uniform]


class _Market(Scenario):
    name = "market"
    help = (
        "run the ramp on a heterogeneous spot/on-demand fleet and "
        "print the fleet-cost scorecard (savings vs the uniform pool)"
    )
    presets = PRESETS
    default = "spot-heavy"
    preset_help = "named market scenario preset"
    events_help = "print the per-seed rebalance and interruption logs"

    def add_options(self, parser) -> None:
        parser.add_argument(
            "--compare", action="store_true",
            help="what-if over every preset fleet mix (plus the uniform "
            "baseline) and rank the SLO-feasible mixes by cost",
        )
        parser.add_argument(
            "--peak", type=int, default=500, help="ramp peak client count"
        )
        parser.add_argument(
            "--scale", type=float, default=0.15,
            help="time compression of the ramp runs (default 0.15)",
        )

    def run(self, args, seeds, runner) -> int:
        if args.compare:
            return self.compare(args, seeds, runner)
        return super().run(args, seeds, runner)

    def compare(self, args, seeds, runner) -> int:
        import json

        from repro.market.whatif import evaluate_mixes, render_mixes

        scenarios = [make() for _, make in sorted(PRESETS.items())]
        print(
            f"Comparing {len(scenarios)} fleet mixes + uniform baseline "
            f"over seeds {', '.join(str(s) for s in seeds)}..."
        )
        table = evaluate_mixes(
            scenarios,
            seeds=seeds,
            peak=args.peak,
            scale=args.scale,
            slo_latency_s=args.slo,
            runner=runner,
        )
        print_cache(runner)
        print()
        for line in render_mixes(table):
            print(line)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(table, fh, indent=2, default=float)
                fh.write("\n")
            print(f"\nComparison written to {args.json}")
        return 0

    def banner(self, scenario, args) -> str:
        return (
            f"Scenario '{scenario.name}' (policy: {scenario.policy}, "
            f"od floor {scenario.on_demand_floor:.0%}, "
            f"hazard {scenario.interruption_hazard_per_hour:g}/h): "
            f"ramp to {args.peak} at scale {args.scale:g}"
        )

    def configs(self, scenario, seeds, args) -> dict:
        return market_configs([scenario], seeds, args.peak, args.scale)

    def score(self, scenario, runs, args) -> dict:
        return score_scenario(
            scenario, _arm(runs.values(), False), slo_latency_s=args.slo
        )

    def render(self, scorecard, runs, args) -> list[str]:
        uniform = score_scenario(
            None, _arm(runs.values(), True), slo_latency_s=args.slo,
            uniform=True,
        )
        uni_slo = uniform["aggregate"]["slo_violation_s"]["mean"]
        delta = scorecard["aggregate"]["slo_violation_s"]["mean"] - uni_slo
        return render_scorecard(scorecard) + [
            f"  uniform-pool SLO    : {uni_slo:.2f} s (delta {delta:+.2f} s)"
        ]

    def events(self, runs) -> list[str]:
        lines = []
        for run in _arm(runs.values(), False):
            lines.append(f"\nSeed {run.config.seed} events")
            for entry in run.market.rebalances:
                lines.append(
                    f"  t={entry['t']:7.1f}s  rebalance [{entry['action']}] "
                    f"{entry['detail']} (target {entry['target']:.1f} vCPU)"
                )
            for entry in run.market.interruptions:
                lines.append(
                    f"  t={entry['t']:7.1f}s  interruption {entry['node']} "
                    f"({entry['source']}, reclaim at "
                    f"t={entry['deadline']:.1f}s)"
                )
        return lines


SCENARIO = _Market()


def run_market_section(
    runner,
    seeds: Sequence[int] = (1, 2, 3),
    peak: int = 500,
    scale: float = 0.15,
    slo_latency_s: float = 0.5,
) -> dict:
    """The ``"market"`` section of BENCH_engine.json."""
    seeds = tuple(seeds)
    arms = {name: PRESETS[name]() for name in ("spot-heavy", "balanced")}
    results = runner.run_many(
        market_configs(list(arms.values()), seeds, peak, scale)
    )

    cards = {
        name: score_scenario(
            scenario,
            [results[f"{name}-s{s}"] for s in seeds],
            slo_latency_s=slo_latency_s,
        )
        for name, scenario in arms.items()
    }
    uniform = score_scenario(
        None,
        [results[f"uniform-s{s}"] for s in seeds],
        slo_latency_s=slo_latency_s,
        uniform=True,
    )

    head = cards["spot-heavy"]["aggregate"]
    uni = uniform["aggregate"]
    return {
        "seeds": list(seeds),
        "peak": peak,
        "scale": scale,
        "slo_latency_s": slo_latency_s,
        "slo_tolerance_s": SLO_TOLERANCE_S,
        "min_savings_pct": MIN_SAVINGS_PCT,
        "arms": cards,
        "uniform": uniform,
        "headline": {
            "fleet_cost": head["fleet_cost"],
            "uniform_cost": head["uniform_cost"],
            "savings_pct": head["savings_pct"],
            "spot_share": head["spot_share"],
            "slo_violation_s": head["slo_violation_s"],
            "uniform_slo_violation_s": uni["slo_violation_s"],
            "slo_delta_s": (
                head["slo_violation_s"]["mean"] - uni["slo_violation_s"]["mean"]
            ),
            "goodput_rps": head["goodput_rps"],
            "uniform_goodput_rps": uni["goodput_rps"],
        },
    }


def render_section(section: dict) -> str:
    h = section["headline"]
    lines = [
        f"Heterogeneous fleet: Fig. 9 ramp to {section['peak']} at scale "
        f"{section['scale']:g}, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"spot-heavy: cost {h['fleet_cost']['mean']:.3f} +/- "
        f"{h['fleet_cost']['ci95']:.3f} vs uniform "
        f"{h['uniform_cost']['mean']:.3f} "
        f"(savings {h['savings_pct']['mean']:.1f} +/- "
        f"{h['savings_pct']['ci95']:.1f} %, "
        f"spot share {h['spot_share']['mean'] * 100:.0f} %)",
        f"SLO violation: {h['slo_violation_s']['mean']:.1f} +/- "
        f"{h['slo_violation_s']['ci95']:.1f} s vs uniform "
        f"{h['uniform_slo_violation_s']['mean']:.1f} s "
        f"(delta {h['slo_delta_s']:+.1f} s, budget "
        f"+{section['slo_tolerance_s']:.0f} s)",
        f"goodput: {h['goodput_rps']['mean']:.2f} vs uniform "
        f"{h['uniform_goodput_rps']['mean']:.2f} req/s",
    ]
    for name, card in sorted(section["arms"].items()):
        if name == "spot-heavy":
            continue
        agg = card["aggregate"]
        lines.append(
            f"{name}: cost {agg['fleet_cost']['mean']:.3f} "
            f"(savings {agg['savings_pct']['mean']:.1f} %), "
            f"SLO {agg['slo_violation_s']['mean']:.1f} s"
        )
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The section gate (``repro bench``, its ``--smoke`` and pytest)."""
    h = section["headline"]
    savings = h["savings_pct"]["mean"]
    assert savings >= section["min_savings_pct"], (
        f"spot-heavy savings {savings:.1f} % below the "
        f"{section['min_savings_pct']:.0f} % headline floor"
    )
    assert h["slo_delta_s"] <= section["slo_tolerance_s"], (
        f"spot-heavy SLO violation exceeds the uniform pool's by "
        f"{h['slo_delta_s']:.1f} s (budget {section['slo_tolerance_s']:.0f} s)"
    )
    # the savings must come from the market, not from serving less work
    good = h["goodput_rps"]["mean"]
    uni_good = h["uniform_goodput_rps"]["mean"]
    assert good >= 0.95 * uni_good, (
        f"spot-heavy goodput {good:.2f} req/s fell below 95 % of the "
        f"uniform pool's {uni_good:.2f} req/s"
    )
    for row in section["arms"]["spot-heavy"]["per_seed"]:
        assert row["fleet_cost"] < row["uniform_cost"], (
            f"seed {row['seed']}: fleet cost {row['fleet_cost']:.3f} not "
            f"below uniform {row['uniform_cost']:.3f}"
        )
