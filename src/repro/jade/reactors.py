"""Reactors (analysis/decision components).

"The decision logic implemented to trigger such a reconfiguration is based
on thresholds on CPU loads provided by sensors ... The objective is to keep
the CPU usage value between these two thresholds." (§4.1, §5.2)

The shared :class:`~repro.jade.control_loop.InhibitionLock` implements "in
order to prevent oscillations, a reconfiguration started by one of the
control loops inhibits any new reconfiguration for a short period (one
minute)".

Every CPU control loop has one reactor: the *judgment* lives in a
:mod:`repro.policy` plugin (the paper's rule is the ``threshold`` plugin,
the default), and :class:`PolicyReactor` owns only the mechanics every
loop shares — warm-up, NaN handling, the fresh-evidence gate, the
inhibition lock, actuation, tracing, counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.jade.sensors import CpuReading
from repro.obs.events import Decision, DecisionAction, DecisionReason, PolicyDecided
from repro.policy import Policy, PolicyDecision, PolicyInputs
from repro.simulation.kernel import SimKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.actuators import TierManager
    from repro.jade.control_loop import InhibitionLock


class PolicyReactor:
    """Generic analysis/decision component for one tier.

    Feeds every sensor reading through a :class:`repro.policy.Policy`
    plugin and executes its verdict:

    * ``grow``   → one replica added (never above ``max_replicas``);
    * ``shrink`` → one replica removed (never below ``min_replicas``);
    * ``hold``   → nothing.

    A decision is suppressed while the shared inhibition lock is held or
    while the actuator is still executing a previous reconfiguration.
    """

    def __init__(
        self,
        kernel: SimKernel,
        tier: "TierManager",
        inhibition: "InhibitionLock",
        policy: Policy,
        min_replicas: int = 1,
        max_replicas: Optional[int] = None,
        warmup_samples: int = 5,
        fresh_samples_required: int = 30,
        name: str = "reactor",
    ) -> None:
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        self.kernel = kernel
        self.tier = tier
        self.inhibition = inhibition
        self.name = name
        self.policy = policy
        self.policy_state = policy.initial_state()
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.warmup_samples = warmup_samples
        #: samples that must accumulate after a moving-average reset before
        #: the reactor decides again (fresh evidence about the *new*
        #: configuration)
        self.fresh_samples_required = fresh_samples_required
        #: the probe feeding this reactor (set by the control-loop
        #: assembly); when present, its moving average is reset whenever the
        #: tier reconfigures
        self.probe = None
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        self._samples_seen = 0
        self.grows_triggered = 0
        self.shrinks_triggered = 0
        self.decisions_suppressed = 0
        self.no_data_decisions = 0

    # -- the sensor pushes readings here -----------------------------------
    def on_reading(self, reading: CpuReading) -> None:
        self._samples_seen += 1
        if self._samples_seen < self.warmup_samples:
            return
        if reading.smoothed != reading.smoothed:  # NaN
            # An empty tier or a freshly-reset moving average yields NaN,
            # which no policy can judge; make the non-decision explicit
            # instead of handing plugins a poisoned value.
            self.no_data_decisions += 1
            self._emit(
                DecisionAction.NONE, False, DecisionReason.NO_DATA, reading
            )
            return
        if (
            self.probe is not None
            and self.probe.window.sample_count < self.fresh_samples_required
        ):
            return
        inputs = PolicyInputs(
            t=reading.t,
            smoothed=reading.smoothed,
            raw=reading.raw,
            node_count=reading.node_count,
            replicas=self.tier.replica_count,
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            tier=self.name,
        )
        decision = self.policy.decide(inputs, self.policy_state)
        if decision.is_hold:
            return
        # The policy verdict is recorded as a sibling of the Decision that
        # follows (not its causal parent): the established causal chain
        # reconfig-completed -> reconfig-started -> decision stays intact
        # for every existing trace consumer.
        self._emit_policy(decision, inputs)
        self._try_execute(reading, decision)

    # ------------------------------------------------------------------
    def _emit_policy(
        self, decision: PolicyDecision, inputs: PolicyInputs
    ) -> Optional[int]:
        if self.tracer is None:
            return None
        return self.tracer.emit(
            PolicyDecided(
                self.kernel.now,
                source=self.name,
                policy=self.policy.name,
                action=decision.action,
                reason=decision.reason,
                inputs_digest=inputs.digest(),
            )
        )

    def _emit(
        self,
        action: str,
        executed: bool,
        reason: str,
        reading: CpuReading,
        cause: Optional[int] = None,
    ) -> Optional[int]:
        if self.tracer is None:
            return None
        return self.tracer.emit(
            Decision(
                self.kernel.now,
                source=self.name,
                action=action,
                executed=executed,
                reason=reason,
                smoothed=reading.smoothed,
                replicas=self.tier.replica_count,
                cause=cause,
            )
        )

    def _actuate(
        self, operation, action: str, reason: str, reading: CpuReading
    ) -> bool:
        """Emit the executed decision, then actuate under its causal scope
        (the actuator's ReconfigStarted/NodeAllocated events link back to
        the decision).  A rejected actuation is recorded as a follow-up
        suppressed decision caused by the retracted one."""
        seq = self._emit(action, True, reason, reading)
        if seq is None:
            return operation()
        self.tracer.push_cause(seq)
        try:
            ok = operation()
        finally:
            self.tracer.pop_cause()
        if not ok:
            self._emit(
                action, False, DecisionReason.ACTUATOR_BUSY, reading, cause=seq
            )
        return ok

    def _try_execute(self, reading: CpuReading, decision: PolicyDecision) -> None:
        """Execute a grow/shrink verdict, or count and trace why not: at
        the replica cap/floor (checked before the lock, so a blocked
        decision never inhibits the other loops), inhibited, or rejected
        by a busy actuator."""
        action = decision.action
        replicas = self.tier.replica_count
        if action == DecisionAction.GROW:
            operation = self.tier.grow
            at_limit = self.max_replicas is not None and replicas >= self.max_replicas
            limit_reason = DecisionReason.AT_CAP
        else:
            operation = self.tier.shrink
            at_limit = replicas <= self.min_replicas
            limit_reason = DecisionReason.AT_FLOOR
        if at_limit or not self.inhibition.try_acquire(self.name):
            self.decisions_suppressed += 1
            reason = limit_reason if at_limit else DecisionReason.INHIBITED
            self._emit(action, False, reason, reading)
            return
        if not self._actuate(operation, action, decision.reason, reading):
            self.decisions_suppressed += 1
            return
        if action == DecisionAction.GROW:
            self.grows_triggered += 1
        else:
            self.shrinks_triggered += 1
        self.policy.on_actuated(action, self.kernel.now, self.policy_state)
