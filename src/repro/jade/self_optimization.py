"""The self-optimization manager (§4, §5).

Two control loops — one for the replicated application-server tier, one for
the replicated database tier — each assembled from a CPU probe (1 s period,
60 s / 90 s moving averages), a :class:`~repro.jade.reactors.PolicyReactor`
running the loop's policy plugin (the paper's ``threshold`` rule by
default) and the generic tier actuator.  The loops run independently but share one
:class:`~repro.jade.control_loop.InhibitionLock` (60 s), exactly as in
§5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.fractal.component import Component
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe
from repro.policy import POLICIES, PolicyConfig
from repro.simulation.kernel import SimKernel
from repro.workload.calibration import DEFAULT_CALIBRATION, Calibration


@dataclass
class LoopConfig:
    """Per-tier loop parameters (paper defaults)."""

    window_s: float = 60.0          # moving-average span
    period_s: float = 1.0           # probe/control period
    max_threshold: float = 0.80
    min_threshold: float = 0.35
    min_replicas: int = 1
    max_replicas: Optional[int] = None
    probe_demand_s: float = 0.0004
    #: the loop's policy plugin (``repro.policy``) with parameter
    #: overrides; a plugin's band parameters default to the thresholds
    #: above (see :meth:`SelfOptimizationManager._policy_defaults`)
    policy: PolicyConfig = PolicyConfig()


# §5.2: "the average CPU usage is computed over the last 60 seconds for the
# application servers and over the last 90 seconds for the database servers".
# Thresholds were "determined experimentally through specific benchmarks"
# and are tier-specific; these values place the reconfigurations at client
# populations close to the paper's Figure 5 (see EXPERIMENTS.md).
APP_LOOP_DEFAULTS = LoopConfig(window_s=60.0, max_threshold=0.80, min_threshold=0.38)
DB_LOOP_DEFAULTS = LoopConfig(window_s=90.0, max_threshold=0.75, min_threshold=0.40)


class SelfOptimizationManager:
    """Builds and owns the two resizing loops."""

    def __init__(
        self,
        kernel: SimKernel,
        app_tier: TierManager,
        db_tier: TierManager,
        inhibition_s: float = 60.0,
        app_config: Optional[LoopConfig] = None,
        db_config: Optional[LoopConfig] = None,
        calibration: Optional[Calibration] = None,
    ) -> None:
        self.kernel = kernel
        self.inhibition = InhibitionLock(kernel, inhibition_s)
        #: demand mix the model-based policies default their parameters
        #: from (the queue-model plugin solves its utilization target
        #: from the tier's calibrated service demand)
        self.calibration = calibration or DEFAULT_CALIBRATION
        self.loops: dict[str, ControlLoop] = {}
        self.composite = Component("self-optimization-manager", composite=True)
        self._build_loop("app", app_tier, app_config or APP_LOOP_DEFAULTS)
        self._build_loop("db", db_tier, db_config or DB_LOOP_DEFAULTS)

    def _build_loop(self, label: str, tier: TierManager, cfg: LoopConfig) -> None:
        probe = CpuProbe(
            self.kernel,
            nodes_provider=tier.active_nodes,
            window_s=cfg.window_s,
            period_s=cfg.period_s,
            probe_demand_s=cfg.probe_demand_s,
            name=f"probe-{label}",
        )
        # The post-reconfiguration fresh-evidence gate can never exceed the
        # number of samples the window can hold.
        fresh = min(30, max(1, int(cfg.window_s / cfg.period_s)))
        reactor = PolicyReactor(
            self.kernel,
            tier,
            self.inhibition,
            cfg.policy.build(**self._policy_defaults(label, cfg)),
            min_replicas=cfg.min_replicas,
            max_replicas=cfg.max_replicas,
            fresh_samples_required=fresh,
        )
        loop = ControlLoop.build(self.kernel, f"resize-{label}", probe, reactor, tier)
        self.loops[label] = loop
        self.composite.content_controller.add(loop.composite)

    def _policy_defaults(self, label: str, cfg: LoopConfig) -> dict:
        """The loop defaults a policy receives, chosen by its dataclass
        fields (its explicit params still win): band thresholds from this
        loop, the per-tier service demand from the calibrated mix (the app
        tier's servlet work, the DB tier's read/write blend)."""
        cal = self.calibration
        loop_defaults = {
            "max_threshold": cfg.max_threshold,
            "min_threshold": cfg.min_threshold,
            "service_demand_s": (
                cal.app_demand_total() if label == "app"
                else cal.effective_db_demand()
            ),
        }
        cls = POLICIES.get(cfg.policy.name)
        if cls is None:  # unknown: PolicyConfig.build names the plugins
            return {}
        return {
            f.name: loop_defaults[f.name]
            for f in fields(cls)
            if f.name in loop_defaults
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.composite.start()

    def stop(self) -> None:
        self.composite.stop()

    @property
    def app_loop(self) -> ControlLoop:
        return self.loops["app"]

    @property
    def db_loop(self) -> ControlLoop:
        return self.loops["db"]
