"""Declarative deployment scenarios.

A :class:`DeployScenario` is a frozen, picklable value — version, bounce
strategy and canary knobs — so it rides inside
:class:`~repro.jade.system.ExperimentConfig` through the content-addressed
:class:`~repro.runner.cache.ResultCache` and the process-pool
:class:`~repro.runner.parallel.ExperimentRunner` unchanged.  The same
scenario + seed therefore yields a byte-identical deploy scorecard whether
it runs serially, in a pool worker, or resolves from the cache
(test-enforced, like the chaos scorecard byte-identity).

``PRESETS`` holds the named scenarios the CLI, benchmark and CI smoke
use; :func:`deploy_config` packs a scenario into a runnable config
(steady load by default, self-optimization off so the fleet only changes
when the deploy manager moves it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.deploy.versions import ServerVersion

#: bounce strategies, in increasing order of spare-capacity demand:
#: ``brutal``     — stop every stale replica at once, swap, restart (full
#:                  blackout for one startup; needs no spare node)
#: ``downthenup`` — rolling in-place restart, one replica at a time
#:                  (capacity dips by one; needs no spare node)
#: ``crossover``  — grow one new-version replica, then retire one stale
#:                  replica, repeatedly (capacity never dips; one spare)
#: ``upthendown`` — grow the whole new-version fleet, then retire every
#:                  stale replica (capacity only grows; N spare nodes)
STRATEGIES = ("brutal", "upthendown", "crossover", "downthenup")


@dataclass(frozen=True)
class DeployScenario:
    """One deployment: what to push, how to bounce, how to judge it."""

    name: str
    version: ServerVersion
    strategy: str = "crossover"
    #: application-tier replicas the deploy manager grows to before the
    #: push (the paper's initial deployment is a single Tomcat)
    fleet: int = 3
    #: simulated time at which the deployment begins (late enough that
    #: the pre-push goodput window sits in client steady state)
    start_at_s: float = 180.0
    #: run the canary analysis before fleet-wide promotion?  False = a
    #: pure bounce of the whole fleet (how strategies are compared)
    canary: bool = True
    #: replicas bounced to the new version for the canary phase; the
    #: routed traffic fraction is ``canary_replicas / fleet`` (the load
    #: balancer spreads load uniformly over live replicas)
    canary_replicas: int = 1
    #: settle time after the canary bounce before measurement starts
    warmup_s: float = 15.0
    #: canary decision window (both cohorts measured at the servers)
    window_s: float = 45.0
    #: promotion fails if canary error rate exceeds stable by this much
    max_error_delta: float = 0.05
    #: promotion fails if canary mean latency exceeds stable by this factor
    max_latency_factor: float = 1.5
    #: pause between per-replica bounce steps
    settle_s: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.version, ServerVersion):
            raise TypeError("version must be a ServerVersion")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.fleet < 2:
            raise ValueError("fleet must be >= 2")
        if not 1 <= self.canary_replicas < self.fleet:
            raise ValueError("canary_replicas must be in [1, fleet)")
        if self.start_at_s <= 0.0:
            raise ValueError("start_at_s must be positive")
        if self.warmup_s < 0 or self.window_s <= 0 or self.settle_s < 0:
            raise ValueError("deploy times must be >= 0 (window > 0)")


# ----------------------------------------------------------------------
# Preset scenarios (the CLI's --scenario choices)
# ----------------------------------------------------------------------
def clean_push(strategy: str = "crossover") -> DeployScenario:
    """A performance-neutral push: the canary passes and the fleet is
    bounced to the new version with ``strategy``."""
    return DeployScenario(
        "clean-push", ServerVersion("v2"), strategy=strategy
    )


def bad_push() -> DeployScenario:
    """A regression shipped: the new version quadruples service demand
    and 500s 30 % of requests.  The canary must catch it and roll back
    before the fleet is touched."""
    return DeployScenario(
        "bad-push",
        ServerVersion("v2-bad", demand_factor=4.0, error_rate=0.3),
        strategy="crossover",
    )


def clean_bounce(strategy: str = "crossover") -> DeployScenario:
    """A pure fleet bounce (no canary) of a neutral version — the arm
    used to compare bounce strategies' capacity-in-flight."""
    return DeployScenario(
        "clean-bounce", ServerVersion("v2"), strategy=strategy, canary=False
    )


def flash_crowd() -> DeployScenario:
    """A clean bounce that collides with a workload spike: the client
    population doubles shortly after the bounce begins (wired by
    :func:`deploy_config`)."""
    return DeployScenario(
        "flash-crowd", ServerVersion("v2"), strategy="crossover", canary=False
    )


def crash_mid_bounce() -> DeployScenario:
    """A rolling bounce during which a database replica crashes: the
    self-recovery manager repairs the DB while the deploy manager keeps
    bouncing the app tier (wired by :func:`deploy_config`)."""
    return DeployScenario(
        "crash-mid-bounce",
        ServerVersion("v2"),
        strategy="downthenup",
        canary=False,
    )


PRESETS = {
    "clean-push": clean_push,
    "bad-push": bad_push,
    "clean-bounce": clean_bounce,
    "flash-crowd": flash_crowd,
    "crash-mid-bounce": crash_mid_bounce,
}


def with_strategy(scenario: DeployScenario, strategy: str) -> DeployScenario:
    """The same scenario bounced with a different strategy."""
    return replace(scenario, strategy=strategy)


def deploy_config(
    scenario: DeployScenario,
    seed: int = 1,
    clients: int = 120,
    duration_s: float = 540.0,
    cohort: int = 1,
):
    """Pack a scenario into a runnable :class:`ExperimentConfig`.

    Self-optimization off: the application fleet only changes when the
    deploy manager moves it, which is what the deploy scorecard's
    capacity timeline counts on.  The ``flash-crowd`` and
    ``crash-mid-bounce`` scenarios wire their extra workload spike /
    chaos campaign here, so the whole experiment stays a pure value.
    """
    from repro.jade.system import ExperimentConfig
    from repro.workload.profiles import ConstantProfile, PiecewiseProfile

    profile = ConstantProfile(clients, duration_s)
    chaos = None
    recovery = False
    if scenario.name == "flash-crowd":
        t = scenario.start_at_s
        profile = PiecewiseProfile(
            [(0.0, clients), (t + 10.0, clients * 2), (t + 80.0, clients)],
            duration_s,
        )
    elif scenario.name == "crash-mid-bounce":
        from repro.chaos import faults as F
        from repro.chaos.campaign import ChaosCampaign

        chaos = ChaosCampaign(
            "crash-mid-bounce",
            (F.crash(scenario.start_at_s + 15.0, target="db"),),
        )
        recovery = True
    return ExperimentConfig(
        profile=profile,
        seed=seed,
        managed=False,
        recovery=recovery,
        cohort=cohort,
        pool_nodes=12,
        chaos=chaos,
        deploy=scenario,
    )


def deploy_configs(
    scenario: DeployScenario,
    seeds,
    clients: int = 120,
    duration_s: float = 540.0,
) -> dict:
    """``{label: config}`` replicating ``scenario`` across ``seeds``."""
    return {
        f"deploy-{scenario.name}-{scenario.strategy}-{seed}": deploy_config(
            scenario, seed=seed, clients=clients, duration_s=duration_s
        )
        for seed in seeds
    }
