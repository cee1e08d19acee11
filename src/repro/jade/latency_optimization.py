"""Latency-SLO self-optimization (extension).

§4.2 notes that "a sensor specific to optimization may provide an estimator
of the response-time to client requests" — the paper used CPU because "the
CPU was known to be the bottleneck resource".  This manager closes the loop
on what users actually feel instead: one :class:`SloReactor` watches the
smoothed end-to-end latency and, because latency is not attributable to a
single tier, *localizes* the bottleneck before actuating:

* SLO violated  → grow the tier whose nodes show the highest current CPU;
* latency far under the SLO → shrink the least-utilized over-provisioned
  tier.

The same inhibition/fresh-evidence machinery as the CPU loops prevents
oscillation.  Benchmarked against the CPU-threshold manager in
``benchmarks/bench_ext_latency_slo.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.jade.control_loop import InhibitionLock
from repro.jade.sensors import LatencyReading, LatencySensor, UtilizationSampler
from repro.metrics.collector import MetricsCollector
from repro.obs.events import DecisionAction
from repro.policy import LatencyBandPolicy, Policy, PolicyInputs
from repro.simulation.kernel import SimKernel


class SloReactor:
    """Latency-band policy on end-to-end latency with bottleneck
    localization.

    The *judgment* (is the smoothed latency out of band?) is delegated to
    a :class:`~repro.policy.LatencyBandPolicy` plugin; the localization —
    *which* tier grows or shrinks — stays here, because latency is not
    attributable to a single tier.
    """

    def __init__(
        self,
        kernel: SimKernel,
        tiers: Sequence[TierManager],
        inhibition: InhibitionLock,
        max_latency_s: float,
        min_latency_s: float,
        min_replicas: int = 1,
        warmup_samples: int = 5,
        fresh_samples_required: int = 30,
        policy: Optional[Policy] = None,
    ) -> None:
        if not tiers:
            raise ValueError("need at least one tier to manage")
        self.kernel = kernel
        self.tiers = list(tiers)
        self.inhibition = inhibition
        # LatencyBandPolicy validates the band (0 <= min < max).
        self.policy = policy or LatencyBandPolicy(
            max_latency_s=max_latency_s, min_latency_s=min_latency_s
        )
        self.policy_state = self.policy.initial_state()
        self.min_replicas = min_replicas
        self.warmup_samples = warmup_samples
        self.fresh_samples_required = fresh_samples_required
        self.sensor: Optional[LatencySensor] = None
        self._sampler = UtilizationSampler()
        self._samples_seen = 0
        self.grows_triggered = 0
        self.shrinks_triggered = 0
        self.decisions_suppressed = 0

    @property
    def max_latency_s(self) -> float:
        return self.policy.max_latency_s

    @property
    def min_latency_s(self) -> float:
        return self.policy.min_latency_s

    # ------------------------------------------------------------------
    def on_reading(self, reading: LatencyReading) -> None:
        self._samples_seen += 1
        if self._samples_seen < self.warmup_samples:
            return
        if (
            self.sensor is not None
            and self.sensor.window.sample_count < self.fresh_samples_required
            and self._samples_seen > self.fresh_samples_required
        ):
            return
        inputs = PolicyInputs(
            t=reading.t,
            smoothed=reading.smoothed,
            raw=reading.raw,
            node_count=reading.sample_count,
            replicas=sum(t.replica_count for t in self.tiers),
            min_replicas=self.min_replicas,
            max_replicas=None,
            tier="slo",
        )
        decision = self.policy.decide(inputs, self.policy_state)
        if decision.action == DecisionAction.GROW:
            self._grow_bottleneck()
        elif decision.action == DecisionAction.SHRINK:
            self._shrink_idlest()

    # ------------------------------------------------------------------
    def _tier_utilization(self, tier: TierManager) -> float:
        nodes = [n for n in tier.active_nodes() if n.up]
        if not nodes:
            return 0.0
        return sum(self._sampler.sample(n) for n in nodes) / len(nodes)

    def _grow_bottleneck(self) -> None:
        candidates = [t for t in self.tiers if not t.busy]
        if not candidates:
            self.decisions_suppressed += 1
            return
        bottleneck = max(candidates, key=self._tier_utilization)
        if not self.inhibition.try_acquire("slo"):
            self.decisions_suppressed += 1
            return
        if bottleneck.grow():
            self.grows_triggered += 1
            self._reset_evidence()
        else:
            self.decisions_suppressed += 1

    def _shrink_idlest(self) -> None:
        candidates = [
            t
            for t in self.tiers
            if not t.busy and t.replica_count > self.min_replicas
        ]
        if not candidates:
            return
        idlest = min(candidates, key=self._tier_utilization)
        if not self.inhibition.try_acquire("slo"):
            self.decisions_suppressed += 1
            return
        if idlest.shrink():
            self.shrinks_triggered += 1
            self._reset_evidence()
        else:
            self.decisions_suppressed += 1

    def _reset_evidence(self) -> None:
        if self.sensor is not None:
            self.sensor.window.reset()


class LatencyOptimizationManager:
    """One SLO loop over all managed tiers ("Jade administrates itself":
    the sensor and reactor are wrapped in a composite component like the
    CPU loops)."""

    def __init__(
        self,
        kernel: SimKernel,
        tiers: Sequence[TierManager],
        collector: MetricsCollector,
        max_latency_s: float = 0.5,
        min_latency_s: float = 0.06,
        window_s: float = 60.0,
        inhibition_s: float = 60.0,
    ) -> None:
        self.kernel = kernel
        self.inhibition = InhibitionLock(kernel, inhibition_s)
        self.sensor = LatencySensor(kernel, collector.latencies, window_s=window_s)
        self.reactor = SloReactor(
            kernel,
            tiers,
            self.inhibition,
            max_latency_s=max_latency_s,
            min_latency_s=min_latency_s,
            fresh_samples_required=min(30, max(1, int(window_s))),
        )
        self.reactor.sensor = self.sensor
        self.sensor.subscribe(self.reactor.on_reading)
        self.composite = Component("latency-slo-manager", composite=True)
        self.composite.content_controller.add(
            Component("slo-sensor", content=self.sensor)
        )
        self.composite.content_controller.add(
            Component("slo-reactor", content=self.reactor)
        )

    def start(self) -> None:
        self.composite.start()
        self.sensor.on_start()

    def stop(self) -> None:
        self.sensor.on_stop()
        self.composite.stop()
