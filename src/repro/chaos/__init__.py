"""Chaos engineering subsystem (extension).

The paper's self-recovery experiments inject one clean fail-stop crash.
Real clusters fail in richer ways — stragglers, gray failures, network
partitions, correlated rack outages — and an autonomic manager is only as
good as its behaviour under those shapes.  This package turns the single
scripted crash into a reproducible resilience test harness:

* :mod:`repro.chaos.faults` — composable, seeded fault models
  (:class:`FaultSpec`, applied by :class:`ChaosInjector`): crash,
  fail-slow, gray failure, partition, added latency, correlated rack
  outage, Poisson crash streams;
* :mod:`repro.chaos.campaign` — :class:`ChaosCampaign`, a declarative,
  picklable schedule of faults that runs through the cached parallel
  :class:`~repro.runner.parallel.ExperimentRunner` (``repro chaos``);
* :mod:`repro.chaos.detectors` — :class:`PhiAccrualDetector`, a
  progress-based failure detector that catches gray and fail-slow
  failures the ``up``-flag heartbeat misses;
* :mod:`repro.chaos.scorecard` — per-campaign MTTR, availability,
  goodput and SLO-violation-under-fault with multi-seed confidence
  intervals (recorded by the ``"chaos"`` section of ``repro bench``).
"""

from repro.chaos.campaign import (
    PRESETS,
    ChaosCampaign,
    campaign_config,
)
from repro.chaos.detectors import PhiAccrualDetector
from repro.chaos.faults import ChaosInjector, FaultSpec
from repro.chaos.scorecard import (
    render_scorecard,
    score_campaign,
    score_run,
)
from repro.metrics.export import scorecard_json

__all__ = [
    "ChaosCampaign",
    "ChaosInjector",
    "FaultSpec",
    "PRESETS",
    "PhiAccrualDetector",
    "campaign_config",
    "render_scorecard",
    "score_campaign",
    "score_run",
    "scorecard_json",
]
