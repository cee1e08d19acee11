"""The proactive capacity manager.

A third autonomic manager that runs *alongside* the paper's reactive
threshold loops: every planning period it forecasts the client load over a
horizon, projects what that load would do to each tier's smoothed CPU, and
— when a threshold crossing is predicted — forks the simulation through
the :class:`~repro.capacity.whatif.WhatIfEngine` to compare candidate
replica configurations before committing one.  Chosen actions are routed
through the very same machinery the reactive loops use: the shared
:class:`~repro.jade.control_loop.InhibitionLock` (a proactive grow
inhibits reactive churn, and vice versa), the tier actuators, and — inside
them — the arbitration manager.  Every step is traced (forecast issued,
what-if evaluated, proactive decision), so a timeline shows *why* capacity
arrived before the threshold crossing the reactive loop would have waited
for.

The utilization projection is the sizing policies' linear model
(:mod:`repro.policy.queue_model`): with fixed replicas, tier utilization scales
with offered load, so ``U_pred = U_now * L_peak / L_now``.  It is only a
*trigger filter* — the actual grow/shrink choice is made on simulated
branch outcomes (or directly on the projection when ``use_whatif`` is
off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.capacity.cost import CostModel
from repro.capacity.forecast import Forecaster, make_forecaster
from repro.capacity.snapshot import SystemSnapshot
from repro.capacity.whatif import Candidate, WhatIfEngine
from repro.obs.events import (
    DecisionAction,
    DecisionReason,
    ForecastIssued,
    ProactiveDecision,
    WhatIfEvaluated,
)
from repro.simulation.kernel import PeriodicTask, SimKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.jade.actuators import TierManager
    from repro.jade.control_loop import InhibitionLock


@dataclass
class ProactiveConfig:
    """Knobs of the proactive planning loop."""

    plan_period_s: float = 15.0
    horizon_s: float = 120.0
    forecast_step_s: float = 15.0
    #: branch warmup before the measurement window (must cover replica
    #: forcing: install + start + DB sync)
    branch_warmup_s: float = 60.0
    forecaster: str = "trend"
    forecaster_kwargs: dict = field(default_factory=dict)
    #: a predicted utilization >= margin * max_threshold arms the planner
    grow_margin: float = 0.95
    #: a predicted utilization <= margin * min_threshold arms a shrink
    shrink_margin: float = 0.90
    #: minimum simulated time between what-if evaluations (they are
    #: expensive: one branch simulation per candidate)
    min_eval_interval_s: float = 60.0
    #: evaluate candidates on forked branch simulations; when off, act
    #: directly on the analytic projection (cheap, less informed)
    use_whatif: bool = True
    #: how far from the current configuration candidates may stray
    max_candidate_delta: int = 1
    #: cost model scoring candidate branches (None = CostModel defaults)
    cost_model: Optional[CostModel] = None
    #: fan candidate branches out over the process pool (off by default:
    #: a proactive manager may itself live inside a pooled experiment)
    whatif_parallel: bool = False
    whatif_workers: Optional[int] = None
    #: memoize warmed-branch outcomes in the shared ResultCache so a
    #: repeated decision under unchanged conditions replays nothing
    whatif_cache: bool = False
    #: dominance pruning: stop branches proven worse than the incumbent
    whatif_prune: bool = False


class ProactiveManager:
    """Forecast -> what-if -> act, ahead of the reactive loops."""

    def __init__(
        self,
        kernel: SimKernel,
        app_tier: "TierManager",
        db_tier: "TierManager",
        inhibition: "InhibitionLock",
        load_provider: Callable[[], float],
        snapshot_source: Callable[[], SystemSnapshot],
        app_thresholds: tuple[float, float],
        db_thresholds: tuple[float, float],
        config: Optional[ProactiveConfig] = None,
        cost_model: Optional[CostModel] = None,
        engine: Optional[WhatIfEngine] = None,
        name: str = "proactive",
    ) -> None:
        self.kernel = kernel
        self.app_tier = app_tier
        self.db_tier = db_tier
        self.inhibition = inhibition
        self.load_provider = load_provider
        self.snapshot_source = snapshot_source
        #: (max_threshold, min_threshold) per tier — the reactive loops'
        #: own bands, so the two managers agree on what "too hot" means
        self.app_thresholds = app_thresholds
        self.db_thresholds = db_thresholds
        self.config = config or ProactiveConfig()
        cfg = self.config
        self.cost_model = cost_model or cfg.cost_model or CostModel()
        if engine is None:
            from repro.runner.cache import ResultCache

            engine = WhatIfEngine(
                horizon_s=cfg.horizon_s,
                warmup_s=cfg.branch_warmup_s,
                step_s=cfg.forecast_step_s,
                cost_model=self.cost_model,
                parallel=cfg.whatif_parallel,
                max_workers=cfg.whatif_workers,
                cache=ResultCache() if cfg.whatif_cache else None,
                prune=cfg.whatif_prune,
            )
        self.engine = engine
        self.forecaster: Forecaster = make_forecaster(
            cfg.forecaster, **cfg.forecaster_kwargs
        )
        self.name = name
        #: optional decision tracer (set by the assembled system)
        self.tracer = None
        #: last smoothed CPU reading per tier label ("app"/"db"), fed by
        #: the probe subscriptions the assembled system wires up
        self._tier_cpu: dict[str, float] = {}
        self._task: Optional[PeriodicTask] = None
        self._last_eval_t = float("-inf")
        self.forecasts_issued = 0
        self.evaluations = 0
        self.grows_triggered = 0
        self.shrinks_triggered = 0
        self.decisions_suppressed = 0

    # -- probe subscriptions (same reading contract as the reactors) -------
    def cpu_listener(self, tier_label: str) -> Callable:
        """A listener recording the tier's smoothed CPU (subscribe it to
        the tier's :class:`~repro.jade.sensors.CpuProbe`)."""

        def listen(reading) -> None:
            self._tier_cpu[tier_label] = reading.smoothed

        return listen

    # -- lifecycle ---------------------------------------------------------
    def on_start(self, component=None) -> None:
        if self._task is None:
            self._task = self.kernel.every(self.config.plan_period_s, self._plan)

    def on_stop(self, component=None) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def running(self) -> bool:
        return self._task is not None

    # ------------------------------------------------------------------
    def _project(self, tier_label: str, load: float, peak: float) -> float:
        """Predicted tier utilization at the forecast peak (NaN when the
        tier has no reading yet)."""
        current = self._tier_cpu.get(tier_label, float("nan"))
        if current != current or load <= 0.0:
            return float("nan")
        return current * (peak / load)

    def _plan(self) -> None:
        cfg = self.config
        now = self.kernel.now
        load = float(self.load_provider())
        self.forecaster.observe(now, load)
        forecast = self.forecaster.predict(cfg.horizon_s, cfg.forecast_step_s)
        if not forecast:
            return
        peak = max(v for _, v in forecast)
        trough = min(v for _, v in forecast)
        self.forecasts_issued += 1
        forecast_seq = None
        if self.tracer is not None:
            forecast_seq = self.tracer.emit(
                ForecastIssued(
                    now,
                    source=self.name,
                    model=self.forecaster.name,
                    horizon_s=cfg.horizon_s,
                    current=load,
                    predicted_peak=peak,
                )
            )
        app_hot = self._armed_grow(self.app_thresholds, "app", load, peak)
        db_hot = self._armed_grow(self.db_thresholds, "db", load, peak)
        app_cold = self._armed_shrink(
            self.app_thresholds, "app", load, trough, self.app_tier
        )
        db_cold = self._armed_shrink(
            self.db_thresholds, "db", load, trough, self.db_tier
        )
        if not (app_hot or db_hot or app_cold or db_cold):
            return
        if not cfg.use_whatif:
            self._act_on_projection(
                app_hot, db_hot, app_cold, db_cold, peak, forecast_seq
            )
            return
        if now - self._last_eval_t < cfg.min_eval_interval_s:
            return
        self._last_eval_t = now
        self._evaluate_and_act(forecast, peak, forecast_seq)

    def _armed_grow(
        self, thresholds: tuple[float, float], label: str, load: float, peak: float
    ) -> bool:
        projected = self._project(label, load, peak)
        return projected == projected and projected >= (
            self.config.grow_margin * thresholds[0]
        )

    def _armed_shrink(
        self,
        thresholds: tuple[float, float],
        label: str,
        load: float,
        trough: float,
        tier: "TierManager",
    ) -> bool:
        if tier.replica_count <= 1:
            return False
        projected = self._project(label, load, trough)
        return projected == projected and projected <= (
            self.config.shrink_margin * thresholds[1]
        )

    # ------------------------------------------------------------------
    def _evaluate_and_act(self, forecast, peak: float, forecast_seq) -> None:
        snapshot = self.snapshot_source()
        candidates = self._candidates(snapshot)
        self.evaluations += 1
        outcomes = self.engine.evaluate(snapshot, forecast, candidates)
        best = self.engine.best(outcomes)
        if self.tracer is not None:
            whatif_seq = self.tracer.emit(
                WhatIfEvaluated(
                    self.kernel.now,
                    source=self.name,
                    candidates=len(outcomes),
                    horizon_s=self.config.horizon_s,
                    best=best.candidate.label,
                    best_cost=best.cost.total,
                    infeasible=sum(1 for o in outcomes if not o.feasible),
                    cause=forecast_seq,
                )
            )
        else:
            whatif_seq = None
        self._steer(
            best.candidate.app_replicas - snapshot.app_replicas,
            best.candidate.db_replicas - snapshot.db_replicas,
            peak,
            cause=whatif_seq,
        )

    def _candidates(self, snapshot: SystemSnapshot) -> list[Candidate]:
        from repro.capacity.whatif import default_candidates

        return default_candidates(snapshot, self.config.max_candidate_delta)

    def _act_on_projection(
        self,
        app_hot: bool,
        db_hot: bool,
        app_cold: bool,
        db_cold: bool,
        peak: float,
        cause,
    ) -> None:
        self._steer(
            (1 if app_hot else 0) - (1 if app_cold and not app_hot else 0),
            (1 if db_hot else 0) - (1 if db_cold and not db_hot else 0),
            peak,
            cause=cause,
        )

    def _steer(self, app_delta: int, db_delta: int, peak: float, cause) -> None:
        for tier, delta in ((self.app_tier, app_delta), (self.db_tier, db_delta)):
            if delta == 0:
                continue
            self._actuate(tier, delta, peak, cause)

    def _actuate(self, tier: "TierManager", delta: int, peak: float, cause) -> None:
        action = DecisionAction.GROW if delta > 0 else DecisionAction.SHRINK
        trigger = (
            DecisionReason.PREDICTED_ABOVE_MAX
            if delta > 0
            else DecisionReason.PREDICTED_BELOW_MIN
        )
        if not self.inhibition.try_acquire(self.name):
            self.decisions_suppressed += 1
            self._emit(
                tier, action, False, DecisionReason.INHIBITED, peak, cause
            )
            return
        seq = self._emit(tier, action, True, trigger, peak, cause)
        if self.tracer is not None and seq is not None:
            self.tracer.push_cause(seq)
        try:
            ok = tier.grow() if delta > 0 else tier.shrink()
        finally:
            if self.tracer is not None and seq is not None:
                self.tracer.pop_cause()
        if ok:
            if delta > 0:
                self.grows_triggered += 1
            else:
                self.shrinks_triggered += 1
        else:
            self.decisions_suppressed += 1
            self._emit(
                tier, action, False, DecisionReason.ACTUATOR_BUSY, peak, seq or cause
            )

    def _emit(
        self, tier, action: str, executed: bool, reason: str, peak: float, cause
    ) -> Optional[int]:
        if self.tracer is None:
            return None
        return self.tracer.emit(
            ProactiveDecision(
                self.kernel.now,
                source=self.name,
                tier=tier.tier_name,
                action=action,
                executed=executed,
                reason=reason,
                predicted=peak,
                replicas=tier.replica_count,
                cause=cause,
            )
        )
