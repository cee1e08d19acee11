"""Sizing policies: queue-model (M/G/1-PS) and target-utilization.

Both size the tier from the measured load: with ``k`` replicas at
smoothed utilization ``U`` the offered demand is ``U * k``
replica-equivalents, so placing the tier at utilization ``rho`` takes

    k* = ceil(U * k / rho)

replicas (:func:`sized_replicas`, clamped into the loop's floor and
cap).  The two plugins differ only in where ``rho`` comes from and when
they act.

**queue-model.**  Each replica is a processor-sharing server (the
testbed's PsCpu), so a request with service demand ``d`` at utilization
``rho`` sees a mean response time

    R = d / (1 - rho)            (M/G/1-PS)

Solving ``R <= R_slo`` for the utilization gives the *highest* load a
replica may run at while still meeting the per-tier latency budget:

    rho* = 1 - d / R_slo

Unlike the fixed ``target`` of the target-utilization plugin — one more
hand-tuned constant — the operating point here is *derived* from the
calibrated demand mix (:mod:`repro.workload.calibration`) and the SLO:
the app tier's ``d`` is ``app_demand_total()``, the DB tier's the
read/write blend of ``effective_db_demand()``.  The policy grows towards
``k*`` whenever ``k* > k``.  Shrinking uses an asymmetric guard: only
when utilization has fallen below ``rho* * (1 - shrink_margin)`` *and*
the model agrees a smaller tier still fits — releasing capacity is cheap
to defer and expensive to regret (the paper's own reasoning for the
inhibition period).

**target-utilization.**  The model-based capacity planner: a fixed
``target`` with a ``hysteresis`` comfort band around it instead of the
paper's hand-tuned min/max pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from repro.obs.events import DecisionAction, DecisionReason
from repro.policy.api import (
    HOLD,
    Policy,
    PolicyDecision,
    PolicyInputs,
    register,
)


def sized_replicas(inputs: PolicyInputs, rho: float) -> int:
    """``clamp(ceil(U * k / rho))`` into ``[min_replicas, max_replicas]``
    (and never below one replica).  The epsilon absorbs float noise so an
    exactly-at-target tier is not rounded up (0.2 * 3 / 0.6 must be 1,
    not 2)."""
    demand = inputs.smoothed * inputs.replicas
    k = max(1, inputs.min_replicas, math.ceil(demand / rho - 1e-9))
    if inputs.max_replicas is not None:
        k = min(k, inputs.max_replicas)
    return k


@register
@dataclass(frozen=True)
class QueueModelPolicy(Policy):
    """Size the tier so M/G/1-PS response time meets the tier budget."""

    name: ClassVar[str] = "queue-model"

    #: per-tier response-time budget the utilization target is solved from
    slo_latency_s: float = 0.25
    #: mean CPU demand of one request on this tier (callers default it
    #: from the calibration; 0.028 s is the calibrated DB read/write mix)
    service_demand_s: float = 0.028
    #: clamp band for the solved target (a demand close to the SLO would
    #: otherwise drive rho* to 0; a tiny demand to ~1.0, i.e. no headroom)
    rho_floor: float = 0.05
    rho_cap: float = 0.90
    #: shrink only when utilization is this fraction *below* the target
    shrink_margin: float = 0.10

    def __post_init__(self) -> None:
        if self.slo_latency_s <= 0 or self.service_demand_s <= 0:
            raise ValueError("need positive SLO and service demand")
        if not 0.0 < self.rho_floor <= self.rho_cap < 1.0:
            raise ValueError("need 0 < rho_floor <= rho_cap < 1")
        if not 0.0 <= self.shrink_margin < 1.0:
            raise ValueError("need 0 <= shrink_margin < 1")

    @property
    def rho_target(self) -> float:
        """The solved operating point: ``1 - d / R_slo``, clamped."""
        rho = 1.0 - self.service_demand_s / self.slo_latency_s
        return min(self.rho_cap, max(self.rho_floor, rho))

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        target = sized_replicas(inputs, self.rho_target)
        if target > inputs.replicas:
            return PolicyDecision(
                DecisionAction.GROW, DecisionReason.ABOVE_MAX, target=target
            )
        if (
            target < inputs.replicas
            and inputs.smoothed < self.rho_target * (1.0 - self.shrink_margin)
        ):
            return PolicyDecision(
                DecisionAction.SHRINK, DecisionReason.BELOW_MIN, target=target
            )
        return HOLD


@register
@dataclass(frozen=True)
class TargetUtilizationPolicy(Policy):
    """Steer the tier towards a fixed ``target`` utilization.

    Holds while the smoothed CPU sits inside
    ``[target - hysteresis, target + hysteresis]`` (the band prevents
    ping-pong at plan boundaries).  Outside it the plan is
    ``k* = clamp(ceil(U * k / target))``; the policy returns grow
    (``above-max``) or shrink (``below-min``) towards ``k*``, carried in
    the decision's ``target``, and holds when ``k* == k``.  Like every
    policy it moves **one replica per decision**: the actuator installs
    one node at a time, and the next step waits for the inhibition lock
    and fresh evidence about the new configuration.
    """

    name: ClassVar[str] = "target-utilization"

    target: float = 0.60
    hysteresis: float = 0.12

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target utilization must be in (0, 1)")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be >= 0")

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        low = self.target - self.hysteresis
        high = self.target + self.hysteresis
        if low <= inputs.smoothed <= high:
            return HOLD
        target = sized_replicas(inputs, self.target)
        if target > inputs.replicas:
            return PolicyDecision(
                DecisionAction.GROW, DecisionReason.ABOVE_MAX, target=target
            )
        if target < inputs.replicas:
            return PolicyDecision(
                DecisionAction.SHRINK, DecisionReason.BELOW_MIN, target=target
            )
        return HOLD
