"""The hybrid fluid/discrete workload engine.

Covers the accuracy-gate machinery, the hybrid handoff at the user
threshold, RNG-stream independence (fluid draws nothing from the seeded
streams), serial==pool==cache byte-identity for fluid configs, and the
large-cohort numeric-stability fix in the Gamma demand draws.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.jade.system import ExperimentConfig
from repro.metrics.collector import MetricsCollector
from repro.runner import ExperimentRunner, ResultCache
from repro.workload.fluid_bench import TOLERANCES, run_accuracy_gate
from repro.workload.profiles import RampProfile
from repro.workload.rubis import RubisModel


def fluid_ramp_config(seed=1, scale=0.05, fluid=True, threshold=0, **kw):
    return ExperimentConfig(
        profile=RampProfile(
            warmup_s=300.0 * scale,
            step_period_s=60.0 * scale,
            cooldown_s=300.0 * scale,
        ),
        seed=seed,
        managed=True,
        fluid=fluid,
        fluid_threshold=threshold,
        **kw,
    )


# ----------------------------------------------------------------------
# Satellite: Gamma-additive demand draws at very large K
# ----------------------------------------------------------------------
class TestVaryLargeCohorts:
    def model(self, seed=42):
        from repro.simulation import SimKernel

        return RubisModel(SimKernel(), rng=np.random.default_rng(seed))

    def test_small_cohorts_bit_identical_to_plain_gamma(self):
        m = self.model()
        ref = np.random.default_rng(42)
        shape = m.cal.demand_gamma_shape
        for weight in (1, 10, 100, 9999):
            assert m._vary(0.01, weight=weight) == float(
                ref.gamma(shape * weight, 0.01 / shape)
            )

    def test_gaussian_limit_engages_at_documented_k(self):
        m = self.model()
        shape = m.cal.demand_gamma_shape
        switch = int(math.ceil(m.GAUSSIAN_LIMIT_SHAPE / shape))
        # below the switch: exact Gamma (one gamma variate consumed)
        ref = np.random.default_rng(42)
        assert m._vary(0.01, weight=switch - 1) == float(
            ref.gamma(shape * (switch - 1), 0.01 / shape)
        )
        # at the switch: one standard-normal variate consumed instead
        m2 = self.model()
        ref2 = np.random.default_rng(42)
        total = 0.01 * switch
        k = shape * switch
        expected = total + (total / math.sqrt(k)) * ref2.standard_normal()
        assert m2._vary(0.01, weight=switch) == float(max(expected, 0.0))

    def test_gaussian_limit_mean_and_spread(self):
        m = self.model(seed=7)
        weight, mean = 100_000, 0.01
        total = mean * weight
        draws = np.array([m._vary(mean, weight=weight) for _ in range(500)])
        assert abs(draws.mean() - total) / total < 0.001
        # relative sd of a Gamma(k) sum is 1/sqrt(k)
        k = m.cal.demand_gamma_shape * weight
        assert draws.std() / total == pytest.approx(1 / math.sqrt(k), rel=0.2)
        assert (draws > 0).all()

    def test_overflowing_aggregate_raises_instead_of_inf(self):
        m = self.model()
        with pytest.raises(ValueError, match="demand draw overflow"):
            m._vary(1e300, weight=10**20)


# ----------------------------------------------------------------------
# Accuracy-gate machinery (synthetic runs; the full-scale gate is below)
# ----------------------------------------------------------------------
def synthetic_run(latency=0.1, completed=1000, cpu=0.5, db_changes=()):
    col = MetricsCollector()
    for t in range(0, 600, 10):
        col.record_latency(float(t), latency, weight=completed // 60)
        col.record_tier_cpu("application", float(t), cpu, cpu)
        col.record_tier_cpu("database", float(t), cpu, cpu)
    col.record_replicas("application", 0.0, 1)
    col.record_replicas("database", 0.0, 1)
    for t, n in db_changes:
        col.record_replicas("database", t, n)
    config = SimpleNamespace(profile=SimpleNamespace(duration_s=600.0))
    return SimpleNamespace(collector=col, config=config)


class TestAccuracyGateMachinery:
    def test_identical_runs_pass(self):
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0, 2)]),
        )
        assert gate["passed"] and all(gate["checks"].values())
        assert gate["change_time_skew_s"] == 0.0
        assert gate["latency_rel_diff"]["max"] == 0.0

    def test_diverged_replica_sequence_fails(self):
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0, 2), (200.0, 3)]),
        )
        assert not gate["replica_sequences_identical"]
        assert not gate["passed"]

    def test_change_time_skew_beyond_window_fails(self):
        skew = TOLERANCES["change_time_skew_s"] + 1.0
        gate = run_accuracy_gate(
            synthetic_run(db_changes=[(100.0, 2)]),
            synthetic_run(db_changes=[(100.0 + skew, 2)]),
        )
        assert gate["replica_sequences_identical"]
        assert not gate["checks"]["change_time_skew_s"]

    def test_latency_drift_beyond_tolerance_fails(self):
        factor = 1.0 + TOLERANCES["latency_rel_max"] + 0.05
        gate = run_accuracy_gate(
            synthetic_run(latency=0.1), synthetic_run(latency=0.1 * factor)
        )
        assert not gate["checks"]["latency_rel_max"]

    def test_cpu_drift_beyond_tolerance_fails(self):
        drift = TOLERANCES["tier_cpu_mean_abs"] + 0.01
        gate = run_accuracy_gate(
            synthetic_run(cpu=0.5), synthetic_run(cpu=0.5 + drift)
        )
        assert not gate["checks"]["tier_cpu_mean_abs"]


# ----------------------------------------------------------------------
# Hybrid handoff at the threshold
# ----------------------------------------------------------------------
class TestHybridHandoff:
    def run_hybrid(self, threshold=300, scale=0.05, seed=1):
        from repro.jade.system import ManagedSystem

        system = ManagedSystem(fluid_ramp_config(seed, scale, threshold=threshold))
        system.run()
        return system

    def test_crosses_both_ways_and_counts(self):
        system = self.run_hybrid()
        stats = system.emulator.fluid_stats()
        # ramp passes 300 users on the way up and back down
        assert stats["handoffs_to_fluid"] >= 1
        assert stats["handoffs_to_discrete"] >= 1
        assert stats["peak_fluid_population"] >= 300
        assert stats["ticks"] > 0 and stats["completions"] > 0

    def test_no_lost_or_duplicated_demand_across_switch(self):
        system = self.run_hybrid()
        profile = system.config.profile
        # the recorded workload staircase must follow the profile exactly:
        # every target the profile emits appears once, regardless of
        # which engine was serving it
        changes = system.collector.workload.changes
        for t, clients in changes[1:]:  # [0] is the series' (0, 0) sentinel
            assert clients == profile.clients_at(t), (t, clients)
        peak = max(v for _, v in system.collector.workload.changes)
        assert peak == profile.peak_clients
        # both engines completed work (latency samples before the first
        # switch and while fluid was active)
        col = system.collector
        assert col.completed_requests > 0
        assert col.failed_requests == 0

    def test_discrete_only_below_threshold(self):
        # threshold above the peak: the fluid engine must never engage
        system = self.run_hybrid(threshold=10_000)
        stats = system.emulator.fluid_stats()
        assert stats["handoffs_to_fluid"] == 0
        assert stats["ticks"] == 0
        assert system.collector.completed_requests > 0

    def test_fluid_stats_surface_on_completed_run(self):
        from repro.runner.results import CompletedRun
        from repro.runner.parallel import execute_config

        run = execute_config(fluid_ramp_config(threshold=300))
        assert isinstance(run, CompletedRun)
        assert run.fluid is not None
        assert run.fluid.handoffs_to_fluid >= 1
        assert run.fluid.threshold == 300
        # discrete configs keep the slot empty
        discrete = execute_config(fluid_ramp_config(fluid=False))
        assert discrete.fluid is None


# ----------------------------------------------------------------------
# RNG-stream independence
# ----------------------------------------------------------------------
class TestRngIndependence:
    def test_market_price_tape_unperturbed(self):
        from repro.market.scenario import PRESETS, market_config

        base = market_config(
            PRESETS["spot-heavy"](), seed=3, peak=200, scale=0.05
        )
        runner = ExperimentRunner(cache=None, parallel=False)
        runs = runner.run_many(
            {"discrete": base, "fluid": replace(base, fluid=True)}
        )
        d, f = runs["discrete"].market, runs["fluid"].market
        assert d is not None and f is not None
        assert d.price_history == f.price_history

    def test_chaos_fault_schedule_unperturbed(self):
        from repro.chaos import PRESETS, campaign_config

        base = campaign_config(
            PRESETS["crash"](), seed=3, clients=40, duration_s=240.0
        )
        runner = ExperimentRunner(cache=None, parallel=False)
        runs = runner.run_many(
            {"discrete": base, "fluid": replace(base, fluid=True)}
        )
        d, f = runs["discrete"].chaos, runs["fluid"].chaos
        assert d is not None and f is not None
        assert d.faults_injected == f.faults_injected > 0
        assert [
            (e["t"], e["fault"], e["node"]) for e in d.events
        ] == [(e["t"], e["fault"], e["node"]) for e in f.events]


# ----------------------------------------------------------------------
# serial == pool == cache byte-identity for fluid configs
# ----------------------------------------------------------------------
class TestFluidByteIdentity:
    def test_parallel_matches_serial_exactly(self):
        configs = {
            "fluid": fluid_ramp_config(),
            "hybrid": fluid_ramp_config(threshold=300),
        }
        par = ExperimentRunner(cache=None, parallel=True).run_many(configs)
        ser = ExperimentRunner(cache=None, parallel=False).run_many(configs)
        for label in configs:
            assert par[label].summary() == ser[label].summary()
            assert np.array_equal(
                par[label].collector.latencies.values,
                ser[label].collector.latencies.values,
            )
            assert par[label].events_processed == ser[label].events_processed

    def test_cache_roundtrip_is_exact(self, tmp_path):
        config = {"fluid": fluid_ramp_config(seed=2)}
        first = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out1 = first.run_many(config)
        assert first.cache.misses == 1 and first.cache.hits == 0

        second = ExperimentRunner(cache=ResultCache(root=tmp_path))
        out2 = second.run_many(config)
        assert second.cache.hits == 1 and second.cache.misses == 0
        assert out1["fluid"].summary() == out2["fluid"].summary()
        assert np.array_equal(
            out1["fluid"].collector.latencies.values,
            out2["fluid"].collector.latencies.values,
        )
        assert out2["fluid"].fluid is not None

    def test_fluid_knobs_distinguish_cache_keys(self):
        from repro.runner import describe_config

        base = describe_config(fluid_ramp_config(fluid=False))
        assert describe_config(fluid_ramp_config()) != base
        assert describe_config(fluid_ramp_config(threshold=5)) != describe_config(
            fluid_ramp_config()
        )


# ----------------------------------------------------------------------
# The committed accuracy gate, end to end (full-scale Fig. 9 pair)
# ----------------------------------------------------------------------
class TestAccuracyGateEndToEnd:
    def test_fig9_gate_and_million_budget(self):
        from repro.workload.fluid_bench import (
            check_section,
            run_fluid_section,
        )

        section = run_fluid_section(ExperimentRunner())
        check_section(section)  # replica identity, tolerances, 1M budget
        gate = section["accuracy"]
        assert gate["replica_sequences"]["database"]["fluid"][-1] == 1
        assert section["speedup"]["speedup"] > 2.0
        assert section["million"]["users"] >= 1_000_000
