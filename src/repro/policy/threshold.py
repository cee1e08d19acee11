"""The paper's threshold policies as plugins.

:class:`ThresholdPolicy` is §4.1/§5.2 verbatim — grow above
``max_threshold``, shrink below ``min_threshold`` — and is the default
plugin of every CPU control loop; under
:class:`~repro.jade.reactors.PolicyReactor` it is byte-identical to the
dedicated threshold reactor it replaced (test-enforced in
``tests/test_policy.py``).

:class:`AdaptiveThresholdPolicy` carries the §7 oscillation-damping
extension, and :class:`LatencyBandPolicy` the latency-SLO band of
``repro.jade.latency_optimization``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.obs.events import DecisionAction, DecisionReason
from repro.policy.api import (
    HOLD,
    Policy,
    PolicyDecision,
    PolicyInputs,
    register,
)


def _validate_band(low: float, high: float) -> None:
    if not 0.0 <= low < high <= 1.0:
        raise ValueError(f"need 0 <= min < max <= 1, got ({low}, {high})")


@register
@dataclass(frozen=True)
class ThresholdPolicy(Policy):
    """Grow above ``max_threshold``, shrink below ``min_threshold``."""

    name: ClassVar[str] = "threshold"

    max_threshold: float = 0.80
    min_threshold: float = 0.35

    def __post_init__(self) -> None:
        _validate_band(self.min_threshold, self.max_threshold)

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        if inputs.smoothed > self.max_threshold:
            return PolicyDecision(DecisionAction.GROW, DecisionReason.ABOVE_MAX)
        if inputs.smoothed < self.min_threshold:
            return PolicyDecision(DecisionAction.SHRINK, DecisionReason.BELOW_MIN)
        return HOLD


class AdaptiveState:
    """Mutable runtime memory of one adaptive loop."""

    __slots__ = (
        "min_threshold",
        "last_grow_t",
        "last_shrink_t",
        "last_adapt_t",
        "adaptations",
    )

    def __init__(self, min_threshold: float) -> None:
        self.min_threshold = min_threshold
        self.last_grow_t: Optional[float] = None
        self.last_shrink_t: Optional[float] = None
        self.last_adapt_t = 0.0
        self.adaptations = 0


@register
@dataclass(frozen=True)
class AdaptiveThresholdPolicy(Policy):
    """§7 future work ("setting incrementally and dynamically its
    parameters"): a grow and a shrink within ``oscillation_window_s`` of
    each other widen the dead band by lowering the live ``min_threshold``
    (down to ``min_floor``); ``relax_after_s`` of calm narrows it back
    towards the configured value."""

    name: ClassVar[str] = "adaptive-threshold"

    max_threshold: float = 0.80
    min_threshold: float = 0.35
    oscillation_window_s: float = 300.0
    widen_step: float = 0.05
    relax_after_s: float = 900.0
    min_floor: float = 0.10

    def __post_init__(self) -> None:
        _validate_band(self.min_threshold, self.max_threshold)
        # A floor outside [0, min_threshold] would let a large widen_step
        # push the live threshold below zero (where the shrink rule can
        # never fire again) or above the starting band; clamp it.
        object.__setattr__(
            self,
            "min_floor",
            min(max(0.0, self.min_floor), self.min_threshold),
        )

    def initial_state(self) -> AdaptiveState:
        return AdaptiveState(self.min_threshold)

    def decide(self, inputs: PolicyInputs, state: AdaptiveState) -> PolicyDecision:
        if inputs.smoothed > self.max_threshold:
            return PolicyDecision(DecisionAction.GROW, DecisionReason.ABOVE_MAX)
        if inputs.smoothed < state.min_threshold:
            return PolicyDecision(DecisionAction.SHRINK, DecisionReason.BELOW_MIN)
        return HOLD

    def on_actuated(self, action: str, t: float, state: AdaptiveState) -> None:
        if action == DecisionAction.GROW:
            state.last_grow_t = t
        elif action == DecisionAction.SHRINK:
            state.last_shrink_t = t
        else:
            return
        if (
            state.last_grow_t is not None
            and state.last_shrink_t is not None
            and abs(state.last_grow_t - state.last_shrink_t)
            <= self.oscillation_window_s
        ):
            # Oscillating: widen the dead band (never below zero — the
            # clamped min_floor guarantees the shrink rule stays live).
            state.min_threshold = max(
                self.min_floor, state.min_threshold - self.widen_step
            )
            state.last_adapt_t = t
            state.adaptations += 1
            # Consume the pair so one oscillation adapts once.
            state.last_grow_t = None
            state.last_shrink_t = None
        elif (
            t - state.last_adapt_t > self.relax_after_s
            and state.min_threshold < self.min_threshold
        ):
            state.min_threshold = min(
                self.min_threshold, state.min_threshold + self.widen_step / 2.0
            )
            state.last_adapt_t = t
            state.adaptations += 1


@register
@dataclass(frozen=True)
class LatencyBandPolicy(Policy):
    """The latency-SLO band of the :class:`SloReactor`: grow when the
    smoothed end-to-end latency violates the SLO, shrink when it sits far
    under it (bottleneck localization stays in the reactor — latency is
    not attributable to one tier, so *which* tier moves is mechanics,
    not judgment)."""

    name: ClassVar[str] = "latency-band"

    max_latency_s: float = 0.5
    min_latency_s: float = 0.06

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_latency_s < self.max_latency_s:
            raise ValueError("need 0 <= min < max latency")

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        if inputs.smoothed > self.max_latency_s:
            return PolicyDecision(DecisionAction.GROW, DecisionReason.ABOVE_MAX)
        if inputs.smoothed < self.min_latency_s:
            return PolicyDecision(DecisionAction.SHRINK, DecisionReason.BELOW_MIN)
        return HOLD
