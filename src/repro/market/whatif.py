"""What-if over fleet mixes.

:mod:`repro.capacity.whatif` branches over *replica counts* inside one
run; this module branches one level up, over **fleet policies**: it fans
the same workload out across candidate :class:`MarketScenario` arms (plus
the uniform-pool baseline) through the cached process-pool runner, scores
each arm with :mod:`repro.market.costs`, and ranks the mixes that keep
the SLO by cost.  Because every arm is an ordinary ``ExperimentConfig``,
repeated evaluations resolve from the result cache — the same memoization
the replica-level what-if engine enjoys.

This is what ``repro market --compare`` prints and what an operator (or
the roadmap's future policy autotuner) reads to pick a policy: "which
mix meets the forecast demand at minimum cost?" answered with evidence.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.market.costs import score_scenario
from repro.market.scenario import MarketScenario, market_configs


def evaluate_mixes(
    scenarios: Sequence[MarketScenario],
    seeds: Sequence[int] = (1,),
    peak: int = 500,
    scale: float = 0.15,
    cohort: int = 1,
    slo_latency_s: float = 0.5,
    slo_tolerance_s: float = 5.0,
    runner=None,
    include_uniform: bool = True,
) -> dict:
    """Run every candidate mix (and the uniform baseline) across seeds
    and rank them: SLO-feasible arms first, cheapest first.

    An arm is *feasible* when its mean SLO violation stays within
    ``slo_tolerance_s`` of the uniform pool's — the cost comparison only
    counts if the latency story holds.
    """
    if runner is None:
        from repro.runner.parallel import ExperimentRunner

        runner = ExperimentRunner()

    labelled = market_configs(
        scenarios, seeds, peak, scale, cohort, uniform=include_uniform
    )
    results = runner.run_many(labelled)

    uniform_card: Optional[dict] = None
    if include_uniform:
        uniform_card = score_scenario(
            None,
            [results[f"uniform-s{s}"] for s in seeds],
            slo_latency_s=slo_latency_s,
            uniform=True,
        )
    cards = [
        score_scenario(
            scenario,
            [results[f"{scenario.name}-s{s}"] for s in seeds],
            slo_latency_s=slo_latency_s,
        )
        for scenario in scenarios
    ]

    slo_budget = (
        uniform_card["aggregate"]["slo_violation_s"]["mean"] + slo_tolerance_s
        if uniform_card is not None
        else float("inf")
    )
    branches = []
    for card in cards + ([uniform_card] if uniform_card is not None else []):
        agg = card["aggregate"]
        slo = agg["slo_violation_s"]["mean"]
        branches.append(
            {
                "scenario": card["scenario"],
                "policy": card["policy"],
                "fleet_cost": agg["fleet_cost"]["mean"],
                "savings_pct": agg["savings_pct"]["mean"],
                "slo_violation_s": slo,
                "spot_share": agg["spot_share"]["mean"],
                "feasible": bool(slo == slo and slo <= slo_budget),
            }
        )
    branches.sort(key=lambda b: (not b["feasible"], b["fleet_cost"], b["scenario"]))
    return {
        "seeds": list(seeds),
        "slo_budget_s": slo_budget if slo_budget != float("inf") else None,
        "branches": branches,
        "best": branches[0]["scenario"] if branches else None,
        "scorecards": {card["scenario"]: card for card in cards},
        "uniform": uniform_card,
    }


def render_mixes(table: dict) -> list[str]:
    """Human-readable branch table for the CLI."""
    lines = [
        f"Fleet-mix what-if over seeds {table['seeds']} "
        f"(SLO budget: "
        + (
            f"{table['slo_budget_s']:.1f}s"
            if table["slo_budget_s"] is not None
            else "none"
        )
        + "):",
        f"  {'scenario':<12} {'policy':<10} {'cost':>8} {'save%':>7} "
        f"{'slo_s':>6} {'spot%':>6}  verdict",
    ]
    for branch in table["branches"]:
        marker = "ok " if branch["feasible"] else "SLO"
        best = " <- best" if branch["scenario"] == table["best"] else ""
        lines.append(
            f"  {branch['scenario']:<12} {branch['policy']:<10} "
            f"{branch['fleet_cost']:>8.3f} {branch['savings_pct']:>6.1f}% "
            f"{branch['slo_violation_s']:>6.1f} "
            f"{branch['spot_share'] * 100:>5.1f}%  {marker}{best}"
        )
    return lines
