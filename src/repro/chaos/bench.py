"""The chaos harness: the ``repro chaos`` scenario and the ``"chaos"``
section of BENCH_engine.json.

The section runs the crash, fail-slow and correlated campaigns across
seeds and records MTTR / detection latency / availability with 95 %
confidence intervals, plus the gray-failure detection comparison (the
legacy ``up``-flag heartbeat misses a crawling replica; the phi-accrual
detector repairs it).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.chaos import PRESETS, render_scorecard, score_campaign
from repro.chaos.campaign import campaign_configs
from repro.runner.scenario import Scenario

#: campaigns whose MTTR the committed report tracks with CIs
MTTR_CAMPAIGNS = ("crash", "fail-slow", "correlated")


class _Chaos(Scenario):
    name = "chaos"
    help = (
        "run a fault-injection campaign and print the resilience "
        "scorecard (MTTR, detection latency, availability, goodput, SLO)"
    )
    preset_flag = "--campaign"
    presets = PRESETS
    default = "crash"
    preset_help = "named campaign preset"
    events_help = "print the per-seed fault and detection event logs"

    def add_options(self, parser) -> None:
        parser.add_argument(
            "--detector", choices=("legacy", "phi"), default=None,
            help="override the campaign's failure-detection path "
            "(legacy heartbeat vs phi-accrual progress detector)",
        )
        parser.add_argument("--clients", type=int, default=120)
        parser.add_argument(
            "--duration", type=float, default=600.0,
            help="simulated seconds per run (default 600)",
        )

    def resolve(self, campaign, args):
        if args.detector is None:
            return campaign
        return dataclasses.replace(campaign, detector=args.detector)

    def banner(self, campaign, args) -> str:
        return (
            f"Campaign '{campaign.name}' (detector: {campaign.detector}): "
            f"{len(campaign.faults)} fault spec(s), "
            f"{args.clients} clients x {args.duration:.0f}s"
        )

    def configs(self, campaign, seeds, args) -> dict:
        return campaign_configs(campaign, seeds, args.clients, args.duration)

    def score(self, campaign, runs, args) -> dict:
        return score_campaign(
            campaign, list(runs.values()), slo_latency_s=args.slo
        )

    def render(self, scorecard, runs, args) -> list[str]:
        return render_scorecard(scorecard)

    def events(self, runs) -> list[str]:
        lines = []
        for run in runs.values():
            lines.append(f"\nSeed {run.config.seed} events")
            for event in run.chaos.events:
                where = event["node"] or "lan"
                detail = f" {event['detail']}" if event["detail"] else ""
                lines.append(
                    f"  t={event['t']:7.1f}s  inject {event['fault']} on "
                    f"{where}{detail}"
                )
            for det in run.chaos.detections:
                lines.append(
                    f"  t={det['t']:7.1f}s  detect {det['component']} "
                    f"[{det['tier']}] via {det['reason']}"
                )
        return lines


SCENARIO = _Chaos()


def _card(runner, campaign, seeds, clients, duration_s) -> dict:
    configs = campaign_configs(campaign, seeds, clients, duration_s)
    runs = runner.run_many(configs)
    return score_campaign(campaign, [runs[label] for label in configs])


def run_chaos_section(
    runner,
    seeds: Sequence[int] = (1, 2, 3),
    clients: int = 60,
    duration_s: float = 420.0,
) -> dict:
    """The ``"chaos"`` section of BENCH_engine.json."""
    seeds = tuple(seeds)
    campaigns = {}
    for name in MTTR_CAMPAIGNS:
        campaign = PRESETS[name]()
        card = _card(runner, campaign, seeds, clients, duration_s)
        agg = card["aggregate"]
        campaigns[name] = {
            "detector": campaign.detector,
            "mttr_s": agg["mttr_mean_s"],
            "detect_s": agg["detect_mean_s"],
            "availability": agg["availability"],
            "goodput_rps": agg["goodput_rps"],
            "disruptions": sum(r["disruptions"] for r in card["per_seed"]),
            "repairs": sum(r["repairs_completed"] for r in card["per_seed"]),
            "unrepaired": sum(r["unrepaired"] for r in card["per_seed"]),
        }

    gray = PRESETS["gray"]()
    arms = {}
    for detector in ("legacy", "phi"):
        campaign = dataclasses.replace(gray, detector=detector)
        card = _card(runner, campaign, seeds, clients, duration_s)
        arms[detector] = {
            "repairs": sum(r["repairs_completed"] for r in card["per_seed"]),
            "detections": sum(r["detections"] for r in card["per_seed"]),
            "detect_s": card["aggregate"]["detect_mean_s"],
            "goodput_rps": card["aggregate"]["goodput_rps"],
            "availability": card["aggregate"]["availability"],
        }
    return {
        "seeds": list(seeds),
        "clients": clients,
        "duration_s": duration_s,
        "campaigns": campaigns,
        "gray_detection": {
            **arms,
            "phi_catches_gray": (
                arms["legacy"]["repairs"] == 0 and arms["phi"]["repairs"] > 0
            ),
        },
    }


def render_section(section: dict) -> str:
    lines = [
        f"Chaos campaigns: {section['clients']} clients x "
        f"{section['duration_s']:.0f}s, seeds "
        f"{', '.join(str(s) for s in section['seeds'])}",
        "",
        f"{'campaign':<12s} {'detector':<8s} {'MTTR (s)':>16s} "
        f"{'detect (s)':>14s} {'avail (%)':>10s} {'repairs':>8s}",
    ]
    for name, c in section["campaigns"].items():
        mttr, det = c["mttr_s"], c["detect_s"]
        lines.append(
            f"{name:<12s} {c['detector']:<8s} "
            f"{mttr['mean']:8.1f} +/- {mttr['ci95']:4.1f} "
            f"{det['mean']:8.1f} +/- {det['ci95']:3.1f} "
            f"{c['availability']['mean'] * 100:10.2f} "
            f"{c['repairs']:>4d}/{c['disruptions']:d}"
        )
    g = section["gray_detection"]
    lines += [
        "",
        "Gray failure (replica answers heartbeats, serves at a crawl):",
        f"  legacy heartbeat : {g['legacy']['repairs']} repairs, "
        f"{g['legacy']['detections']} detections, "
        f"goodput {g['legacy']['goodput_rps']['mean']:.2f} req/s",
        f"  phi-accrual      : {g['phi']['repairs']} repairs, "
        f"{g['phi']['detections']} detections "
        f"(latency {g['phi']['detect_s']['mean']:.1f} s), "
        f"goodput {g['phi']['goodput_rps']['mean']:.2f} req/s",
        f"  phi catches what legacy misses: {g['phi_catches_gray']}",
    ]
    return "\n".join(lines)


def check_section(section: dict) -> None:
    """The section gate (``repro bench``, its ``--smoke`` and pytest)."""
    n_seeds = len(section["seeds"])
    for name in MTTR_CAMPAIGNS:
        c = section["campaigns"][name]
        assert c["unrepaired"] == 0, f"{name}: unrepaired faults"
        assert c["mttr_s"]["n"] == n_seeds
        assert 0.0 < c["mttr_s"]["mean"] < 120.0
        assert c["availability"]["mean"] > 0.9
    g = section["gray_detection"]
    assert g["phi_catches_gray"], "phi detector failed to catch gray failure"
    assert g["phi"]["goodput_rps"]["mean"] > g["legacy"]["goodput_rps"]["mean"]
