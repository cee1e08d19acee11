"""Tests for the model-based capacity planner: the ``target-utilization``
policy under :class:`PolicyReactor`."""

import hashlib

import pytest

from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.self_optimization import LoopConfig
from repro.jade.sensors import CpuReading
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.obs.events import DecisionAction, DecisionReason
from repro.policy import PolicyConfig, PolicyInputs, TargetUtilizationPolicy
from repro.workload.profiles import PiecewiseProfile


class FakeTier:
    def __init__(self, replicas=1):
        self.replica_count = replicas
        self.calls = []

    def grow(self):
        self.calls.append("grow")
        self.replica_count += 1
        return True

    def shrink(self):
        self.calls.append("shrink")
        self.replica_count -= 1
        return True


def make(kernel, tier=None, min_replicas=1, max_replicas=None, **policy_kw):
    tier = tier or FakeTier()
    policy_kw.setdefault("target", 0.60)
    reactor = PolicyReactor(
        kernel,
        tier,
        InhibitionLock(kernel, 60.0),
        TargetUtilizationPolicy(**policy_kw),
        min_replicas=min_replicas,
        max_replicas=max_replicas,
        warmup_samples=0,
    )
    return reactor, tier


def plan(utilization, replicas, min_replicas=1, max_replicas=None, **kw):
    """The policy's verdict for one reading (its target carries the plan)."""
    policy = TargetUtilizationPolicy(**{"hysteresis": 0.0, **kw})
    return policy.decide(
        PolicyInputs(
            t=0.0,
            smoothed=utilization,
            raw=utilization,
            node_count=replicas,
            replicas=replicas,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
        ),
        policy.initial_state(),
    )


def reading(kernel, value):
    return CpuReading(kernel.now, value, value, 1)


class TestPlanMath:
    def test_desired_replicas_from_demand(self):
        # U=0.9 on 2 replicas -> demand 1.8 -> at target 0.6 need 3.
        d = plan(0.9, 2)
        assert (d.action, d.reason, d.target) == (
            DecisionAction.GROW, DecisionReason.ABOVE_MAX, 3
        )
        # U=0.2 on 3 replicas -> demand 0.6 -> 1 replica suffices (the
        # epsilon keeps float noise from rounding 0.6/0.6 up to 2).
        d = plan(0.2, 3)
        assert (d.action, d.reason, d.target) == (
            DecisionAction.SHRINK, DecisionReason.BELOW_MIN, 1
        )

    def test_floor_and_ceiling(self):
        # the plan is clamped into [min_replicas, max_replicas]
        assert plan(0.01, 3, min_replicas=2, max_replicas=4).target == 2
        assert plan(1.0, 3, min_replicas=2, max_replicas=4).target == 4
        # ... so a tier already at its floor/cap holds
        assert plan(0.01, 2, min_replicas=2, max_replicas=4).is_hold
        assert plan(1.0, 4, min_replicas=2, max_replicas=4).is_hold

    def test_validation(self, kernel):
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(target=1.5)
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(hysteresis=-0.1)
        with pytest.raises(ValueError):
            make(kernel, min_replicas=0)


class TestPlannerDecisions:
    def test_grows_when_above_band(self, kernel):
        reactor, tier = make(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.grows_triggered == 1

    def test_shrinks_when_below_band(self, kernel):
        reactor, tier = make(kernel, tier=FakeTier(replicas=3))
        reactor.on_reading(reading(kernel, 0.2))
        assert tier.calls == ["shrink"]

    def test_quiet_inside_hysteresis_band(self, kernel):
        reactor, tier = make(kernel, hysteresis=0.15)
        reactor.on_reading(reading(kernel, 0.70))  # within 0.60 +- 0.15
        assert tier.calls == []

    def test_no_action_when_plan_matches_current(self, kernel):
        reactor, tier = make(kernel, tier=FakeTier(replicas=1), hysteresis=0.0)
        # U=0.55 on 1 replica: demand 0.55 -> ceil(0.55/0.6)=1 == current.
        reactor.on_reading(reading(kernel, 0.55))
        assert tier.calls == []
        assert reactor.decisions_suppressed == 0

    def test_inhibition_respected(self, kernel):
        reactor, tier = make(kernel)
        reactor.on_reading(reading(kernel, 0.9))
        reactor.on_reading(reading(kernel, 0.9))
        assert tier.calls == ["grow"]
        assert reactor.decisions_suppressed == 1

    def test_one_replica_per_decision(self, kernel):
        # the plan is 4 replicas away, but each decision moves one
        reactor, tier = make(kernel, tier=FakeTier(replicas=1))
        reactor.on_reading(reading(kernel, 3.0))
        assert tier.calls == ["grow"] and tier.replica_count == 2


def step_config(policy: PolicyConfig, peak: int, **kw) -> ExperimentConfig:
    profile = PiecewiseProfile(
        [(0.0, 80), (120.0, peak), (900.0, 80)], duration_s=1400.0
    )
    return ExperimentConfig(
        profile=profile,
        seed=14,
        db_loop=LoopConfig(window_s=90.0, policy=policy),
        app_loop=LoopConfig(window_s=60.0, policy=policy),
        **kw,
    )


class TestPlannerEndToEnd:
    def test_planner_handles_big_step(self):
        """A large load step: the planner provisions the DB tier out and
        back with its own target, no hand-set min/max band."""
        policy = PolicyConfig.parse("target-utilization:target=0.55")
        system = ManagedSystem(step_config(policy, peak=400))
        col = system.run()
        assert system.db_tier.grows_completed >= 2
        assert system.db_tier.shrinks_completed >= 1
        # Latency was kept interactive through the step.
        tail = col.latencies.window(600.0, 900.0)
        assert tail.mean() < 0.5
        # Utilization settled near the target after scaling.
        settled = col.tier_cpu["database"].window(700.0, 900.0)
        assert settled.mean() < 0.75

    def test_planner_golden_step(self):
        """The step run of the retired dedicated planner reactor
        (target 0.55), pinned: the plugin reproduces it
        request for request."""
        policy = PolicyConfig.parse("target-utilization:target=0.55")
        system = ManagedSystem(step_config(policy, peak=420, tail_s=30.0))
        col = system.run()
        values = col.latencies.values
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == (
            "ab8e844929b3b5b6"
        )
        assert len(values) == 52_716
        assert system.kernel.events_processed == 975_667
        assert (
            system.db_tier.grows_completed,
            system.db_tier.shrinks_completed,
        ) == (2, 2)
        assert (
            system.app_tier.grows_completed,
            system.app_tier.shrinks_completed,
        ) == (1, 1)
