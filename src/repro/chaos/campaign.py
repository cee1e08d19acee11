"""Declarative chaos campaigns.

A :class:`ChaosCampaign` is a frozen, picklable value — a named tuple of
:class:`~repro.chaos.faults.FaultSpec` plus detector/topology knobs — so
it rides inside :class:`~repro.jade.system.ExperimentConfig` through the
content-addressed :class:`~repro.runner.cache.ResultCache` and the
process-pool :class:`~repro.runner.parallel.ExperimentRunner` unchanged.
The same campaign + seed therefore yields a byte-identical scorecard
whether it runs serially, in a pool worker, or resolves from the cache
(test-enforced, like the what-if parallel==serial byte-identity).

``PRESETS`` holds the named campaigns the CLI, benchmark and CI smoke
use; :func:`campaign_config` packs a campaign into a runnable config
(steady load, self-recovery on, self-optimization off so every ``grow``
in the log is a repair).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos import faults as F
from repro.chaos.faults import FaultSpec


@dataclass(frozen=True)
class ChaosCampaign:
    """A named, seeded schedule of faults.

    ``detector`` selects the failure-detection path for self-recovery:
    ``"legacy"`` is the paper's ``running``/``node.up`` heartbeat,
    ``"phi"`` adds the progress-based
    :class:`~repro.chaos.detectors.PhiAccrualDetector` (required to
    catch gray/fail-slow/partition faults).  ``racks`` sets the
    correlated-failure topology: node *i* lives in rack ``i % racks``.
    """

    name: str
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)
    detector: str = "legacy"
    racks: int = 3
    phi_threshold: float = 4.0
    failfast_ticks: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.detector not in ("legacy", "phi"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.racks < 1:
            raise ValueError("racks must be >= 1")
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError("faults must be FaultSpec instances")


# ----------------------------------------------------------------------
# Preset campaigns (the CLI's --campaign choices)
# ----------------------------------------------------------------------
def crash_campaign(at_s: float = 180.0) -> ChaosCampaign:
    """The classic scenario: one fail-stop DB replica crash."""
    return ChaosCampaign("crash", (F.crash(at_s, target="db"),))


def fail_slow_campaign(
    at_s: float = 180.0, duration_s: float = 240.0, factor: float = 0.01
) -> ChaosCampaign:
    """A DB replica serves at ``factor`` speed; phi-accrual repairs it.

    The default factor is severe (100x) on purpose: an adaptive
    accrual detector only suspects *stalls* — inter-completion gaps
    many multiples of the learned mean.  Moderate slowdowns keep
    feeding the EWMA and read as a capacity problem (the
    self-optimization manager's job), not a failure.
    """
    return ChaosCampaign(
        "fail-slow",
        (F.fail_slow(at_s, duration_s, factor=factor, target="db"),),
        detector="phi",
    )


def gray_campaign(
    at_s: float = 180.0, duration_s: float = 600.0, factor: float = 0.005
) -> ChaosCampaign:
    """A DB replica answers heartbeats while serving at a crawl."""
    return ChaosCampaign(
        "gray",
        (F.gray(at_s, duration_s, factor=factor, target="db"),),
        detector="phi",
    )


def partition_campaign(
    at_s: float = 180.0, duration_s: float = 300.0
) -> ChaosCampaign:
    """An app replica is cut off the LAN; its work fails fast."""
    return ChaosCampaign(
        "partition",
        (F.partition(at_s, duration_s, target="app"),),
        detector="phi",
    )


def latency_campaign(
    at_s: float = 180.0, duration_s: float = 120.0, extra_s: float = 0.05
) -> ChaosCampaign:
    """The switch degrades: +``extra_s`` on every LAN message."""
    return ChaosCampaign(
        "latency", (F.extra_latency(at_s, duration_s, extra_s),)
    )


def correlated_campaign(at_s: float = 180.0, racks: int = 3) -> ChaosCampaign:
    """One rack dies: every replica node in the victim's rack crashes."""
    return ChaosCampaign(
        "correlated", (F.correlated(at_s, target="any"),), racks=racks
    )


def poisson_campaign(mtbf_s: float = 240.0) -> ChaosCampaign:
    """Random crashes with exponential inter-arrivals across both tiers."""
    return ChaosCampaign("poisson", (F.poisson(mtbf_s, target="any"),))


def spot_campaign(
    at_s: float = 180.0, notice_s: float = 120.0
) -> ChaosCampaign:
    """A scheduled spot-market reclaim of a DB replica's node: drained
    within the notice window, crashed at the deadline (``repro.market``)."""
    return ChaosCampaign(
        "spot", (F.spot_interruption(at_s, notice_s=notice_s, target="db"),)
    )


PRESETS = {
    "crash": crash_campaign,
    "fail-slow": fail_slow_campaign,
    "gray": gray_campaign,
    "partition": partition_campaign,
    "latency": latency_campaign,
    "correlated": correlated_campaign,
    "poisson": poisson_campaign,
    "spot": spot_campaign,
}


def campaign_config(
    campaign: ChaosCampaign,
    seed: int = 1,
    clients: int = 120,
    duration_s: float = 600.0,
    cohort: int = 1,
):
    """Pack a campaign into a runnable :class:`ExperimentConfig`.

    Self-recovery on, self-optimization off: with the optimizer quiet,
    every ``grow`` in the reconfiguration log is a repair, which is what
    the scorecard's MTTR extraction counts on.
    """
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import ConstantProfile

    return ExperimentConfig(
        profile=ConstantProfile(clients, duration_s),
        seed=seed,
        managed=False,
        recovery=True,
        cohort=cohort,
        chaos=campaign,
    )


def campaign_configs(
    campaign: ChaosCampaign,
    seeds,
    clients: int = 120,
    duration_s: float = 600.0,
) -> dict:
    """``{label: config}`` replicating ``campaign`` across ``seeds``."""
    return {
        f"chaos-{campaign.name}-{seed}": campaign_config(
            campaign, seed=seed, clients=clients, duration_s=duration_s
        )
        for seed in seeds
    }
