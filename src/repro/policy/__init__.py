"""Pluggable control-loop policies + the sweep-driven autotuner.

Importing the package populates the registry with the built-in plugins:

* ``threshold`` — the paper's rule (the default of every CPU loop);
* ``adaptive-threshold`` — the §7 oscillation-damping extension;
* ``queue-model`` — M/G/1-PS sizing from the calibrated demand mix;
* ``target-utilization`` — sizing towards a fixed utilization target
  (the model-based capacity planner);
* ``forecast`` — feedforward on predicted utilization;
* ``latency-band`` — the latency-SLO band, judged by
  :class:`~repro.jade.latency_optimization.SloReactor` (every CPU loop
  runs the others under :class:`~repro.jade.reactors.PolicyReactor`).

See :mod:`repro.policy.api` for the contract and
:mod:`repro.policy.tune` for the autotuner.
"""

from repro.policy.api import (
    HOLD,
    IN_BAND,
    POLICIES,
    Policy,
    PolicyConfig,
    PolicyDecision,
    PolicyInputs,
    make_policy,
    register,
)
from repro.policy.feedforward import ForecastFeedforwardPolicy
from repro.policy.queue_model import QueueModelPolicy, TargetUtilizationPolicy
from repro.policy.threshold import (
    AdaptiveThresholdPolicy,
    LatencyBandPolicy,
    ThresholdPolicy,
)

__all__ = [
    "HOLD",
    "IN_BAND",
    "POLICIES",
    "AdaptiveThresholdPolicy",
    "ForecastFeedforwardPolicy",
    "LatencyBandPolicy",
    "Policy",
    "PolicyConfig",
    "PolicyDecision",
    "PolicyInputs",
    "QueueModelPolicy",
    "TargetUtilizationPolicy",
    "ThresholdPolicy",
    "make_policy",
    "register",
]
