"""Tests for the decision-trace observability layer (repro.obs)."""

import json

import pytest

from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuReading
from repro.jade.system import ExperimentConfig, ManagedSystem
from repro.obs.events import (
    EVENT_KINDS,
    Decision,
    DecisionAction,
    DecisionReason,
    NodeAllocated,
    ProbeReading,
    ReconfigCompleted,
    ReconfigStarted,
)
from repro.obs.tracer import Tracer, causal_chain, load_jsonl
from repro.obs.timeline import render_timeline, render_timeline_file
from repro.policy import ThresholdPolicy
from repro.workload.profiles import ConstantProfile, PiecewiseProfile


def probe_ev(t=0.0, **kw):
    kw.setdefault("probe", "p")
    kw.setdefault("smoothed", 0.5)
    kw.setdefault("raw", 0.5)
    kw.setdefault("nodes", 1)
    return ProbeReading(t, **kw)


def decision_ev(t=0.0, **kw):
    kw.setdefault("source", "resize-db")
    kw.setdefault("action", DecisionAction.GROW)
    kw.setdefault("executed", True)
    kw.setdefault("reason", DecisionReason.ABOVE_MAX)
    kw.setdefault("smoothed", 0.9)
    kw.setdefault("replicas", 1)
    return Decision(t, **kw)


class TestTracer:
    def test_seq_and_run_id_stamped(self):
        tracer = Tracer(run_id="r1")
        s0 = tracer.emit(probe_ev(1.0))
        s1 = tracer.emit(probe_ev(2.0))
        assert (s0, s1) == (0, 1)
        records = tracer.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["run"] == "r1" for r in records)
        assert records[0]["kind"] == "probe-reading"
        assert tracer.events_emitted == 2

    def test_cause_omitted_when_absent(self):
        tracer = Tracer()
        tracer.emit(probe_ev())
        assert "cause" not in tracer.records()[0]

    def test_cause_stack_scopes_children(self):
        tracer = Tracer()
        root = tracer.emit(decision_ev())
        tracer.push_cause(root)
        try:
            assert tracer.current_cause == root
            tracer.emit(NodeAllocated(0.0, node="n1", owner="tier:db"))
        finally:
            tracer.pop_cause()
        tracer.emit(probe_ev())
        records = tracer.records()
        assert records[1]["cause"] == root
        assert "cause" not in records[2]
        assert tracer.current_cause is None

    def test_explicit_cause_wins_over_stack(self):
        tracer = Tracer()
        tracer.push_cause(7)
        tracer.emit(ReconfigCompleted(
            1.0, tier="db", operation="grow", duration_s=1.0,
            replica_delta=1, replicas=2, cause=3,
        ))
        tracer.pop_cause()
        assert tracer.records()[0]["cause"] == 3

    def test_ring_evicts_but_aggregates_keep_counting(self):
        tracer = Tracer(ring_size=2)
        for _ in range(5):
            tracer.emit(probe_ev())
        assert len(tracer.records()) == 2
        assert tracer.records()[0]["seq"] == 3  # oldest survivor
        assert tracer.summary()["events"] == 5
        assert tracer.counts["probe-reading"] == 5

    def test_sink_keeps_evicted_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(run_id="rs", ring_size=1, sink_path=str(path)) as tracer:
            for i in range(4):
                tracer.emit(probe_ev(float(i)))
        records = load_jsonl(str(path))
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        # Every line is standalone JSON with the run id.
        with open(path) as fh:
            for line in fh:
                assert json.loads(line)["run"] == "rs"

    def test_summary_decision_and_reconfig_stats(self):
        tracer = Tracer()
        tracer.emit(decision_ev())
        tracer.emit(decision_ev(
            executed=False, action=DecisionAction.SHRINK,
            reason=DecisionReason.AT_FLOOR,
        ))
        tracer.emit(ReconfigCompleted(
            10.0, tier="db", operation="grow", duration_s=20.0,
            replica_delta=1, replicas=2,
        ))
        tracer.emit(ReconfigCompleted(
            20.0, tier="db", operation="grow", duration_s=10.0,
            replica_delta=1, replicas=3,
        ))
        tracer.emit(ReconfigCompleted(
            30.0, tier="db", operation="grow", duration_s=0.0,
            replica_delta=0, replicas=3, ok=False, error="boom",
        ))
        summary = tracer.summary()
        assert summary["decisions"] == {"grow/above-max": 1, "shrink/at-floor": 1}
        assert summary["decisions_suppressed"] == 1
        recon = summary["reconfigurations"]
        assert recon["count"] == 3
        assert recon["failures"] == 1
        assert recon["mean_duration_s"] == pytest.approx(15.0)
        assert recon["max_duration_s"] == pytest.approx(20.0)

    def test_bad_ring_size_rejected(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=0)

    def test_close_stops_sink_not_ring(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sink_path=str(path))
        tracer.emit(probe_ev())
        tracer.close()
        tracer.emit(probe_ev())  # must not raise
        assert len(load_jsonl(str(path))) == 1
        assert len(tracer.records()) == 2

    def test_all_event_kinds_serialize(self):
        """Every registered event kind round-trips through to_record/json."""
        import dataclasses

        for kind, cls in EVENT_KINDS.items():
            fields = [
                f for f in dataclasses.fields(cls)
                if f.name not in ("t", "cause")
            ]
            kwargs = {}
            for f in fields:
                origin = f.type
                if "int" in str(origin):
                    kwargs[f.name] = 1
                elif "float" in str(origin):
                    kwargs[f.name] = 1.0
                elif "bool" in str(origin):
                    kwargs[f.name] = True
                else:
                    kwargs[f.name] = "x"
            record = cls(0.0, **kwargs).to_record()
            assert record["kind"] == kind
            json.dumps(record)


class TestCausalChain:
    def records(self):
        return [
            {"seq": 0, "kind": "decision"},
            {"seq": 1, "kind": "reconfig-started", "cause": 0},
            {"seq": 2, "kind": "reconfig-completed", "cause": 1},
            {"seq": 3, "kind": "probe-reading"},
        ]

    def test_walks_root_first(self):
        records = self.records()
        chain = causal_chain(records, records[2])
        assert [r["seq"] for r in chain] == [0, 1, 2]

    def test_rootless_record_is_its_own_chain(self):
        records = self.records()
        assert causal_chain(records, records[3]) == [records[3]]

    def test_missing_parent_truncates(self):
        records = self.records()[1:]  # seq 0 evicted
        chain = causal_chain(records, records[1])
        assert [r["seq"] for r in chain] == [1, 2]

    def test_cycle_terminates(self):
        records = [
            {"seq": 0, "kind": "a", "cause": 1},
            {"seq": 1, "kind": "b", "cause": 0},
        ]
        chain = causal_chain(records, records[0])
        assert [r["seq"] for r in chain] == [1, 0]


class TestTimeline:
    def trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(run_id="tl", sink_path=str(path)) as tracer:
            tracer.emit(probe_ev(1.0))
            root = tracer.emit(decision_ev(2.0))
            tracer.push_cause(root)
            start = tracer.emit(ReconfigStarted(
                2.0, tier="db", operation="grow", replicas=1,
            ))
            tracer.pop_cause()
            tracer.emit(ReconfigCompleted(
                5.0, tier="db", operation="grow", duration_s=3.0,
                replica_delta=1, replicas=2, cause=start,
            ))
        return str(path)

    def test_probe_readings_hidden_by_default(self, tmp_path):
        out = render_timeline_file(self.trace(tmp_path))
        assert "probe-reading" not in out
        assert "run=tl, 4 events" in out

    def test_include_probes(self, tmp_path):
        out = render_timeline_file(self.trace(tmp_path), include_probes=True)
        assert "probe-reading" in out

    def test_children_indent_under_cause(self, tmp_path):
        lines = render_timeline_file(self.trace(tmp_path)).splitlines()[1:]
        assert lines[0].split("s ", 1)[1].startswith("decision")
        assert lines[1].split("s ", 1)[1].startswith("  reconfig-started")
        assert lines[2].split("s ", 1)[1].startswith("    reconfig-completed")

    def test_tail_limits_output(self, tmp_path):
        out = render_timeline_file(self.trace(tmp_path), tail=1)
        body = out.splitlines()[1:]
        assert len(body) == 1
        assert "reconfig-completed" in body[0]

    def test_empty_trace(self):
        assert render_timeline([]) == "(empty trace)"


class FakeTier:
    def __init__(self, replicas=1):
        self.replica_count = replicas
        self.accept = True

    def grow(self):
        if self.accept:
            self.replica_count += 1
        return self.accept

    def shrink(self):
        if self.accept:
            self.replica_count -= 1
        return self.accept


def reading(t, smoothed):
    return CpuReading(t, smoothed, smoothed, 1)


class TestReactorTracing:
    def make(self, kernel, tier=None, **kwargs):
        tier = tier if tier is not None else FakeTier()
        lock = InhibitionLock(kernel, 60.0)
        tracer = Tracer(run_id="rt")
        reactor = PolicyReactor(
            kernel,
            tier,
            lock,
            ThresholdPolicy(),
            warmup_samples=0,
            name="resize-db",
            **kwargs,
        )
        reactor.tracer = tracer
        lock.tracer = tracer
        return reactor, tier, lock, tracer

    def decisions(self, tracer):
        return [r for r in tracer.records() if r["kind"] == "decision"]

    def test_executed_grow_decision(self, kernel):
        reactor, _, _, tracer = self.make(kernel)
        reactor.on_reading(reading(0.0, 0.9))
        records = tracer.records()
        decision = self.decisions(tracer)[0]
        assert decision["executed"] and decision["reason"] == "above-max"
        assert decision["action"] == "grow"
        # The lock is acquired before the decision is recorded as executed.
        acq = next(r for r in records if r["kind"] == "inhibition-acquired")
        assert acq["seq"] < decision["seq"]

    def test_at_cap_reason(self, kernel):
        reactor, _, _, tracer = self.make(
            kernel, FakeTier(replicas=3), max_replicas=3
        )
        reactor.on_reading(reading(0.0, 0.95))
        (decision,) = self.decisions(tracer)
        assert not decision["executed"]
        assert decision["action"] == "grow"
        assert decision["reason"] == "at-cap"

    def test_at_floor_reason(self, kernel):
        reactor, _, _, tracer = self.make(kernel, FakeTier(replicas=1))
        reactor.on_reading(reading(0.0, 0.05))
        (decision,) = self.decisions(tracer)
        assert not decision["executed"]
        assert decision["action"] == "shrink"
        assert decision["reason"] == "at-floor"
        assert reactor.decisions_suppressed == 1

    def test_inhibited_reason_and_rejection_event(self, kernel):
        reactor, _, _, tracer = self.make(kernel)
        reactor.on_reading(reading(0.0, 0.9))   # acquires the lock
        reactor.on_reading(reading(1.0, 0.9))   # inhibited
        decision = self.decisions(tracer)[-1]
        assert decision["reason"] == "inhibited"
        assert any(
            r["kind"] == "inhibition-rejected" for r in tracer.records()
        )

    def test_actuator_busy_retracts_executed_decision(self, kernel):
        tier = FakeTier()
        tier.accept = False
        reactor, _, _, tracer = self.make(kernel, tier)
        reactor.on_reading(reading(0.0, 0.9))
        executed, retraction = self.decisions(tracer)
        assert executed["executed"]
        assert not retraction["executed"]
        assert retraction["reason"] == "actuator-busy"
        assert retraction["cause"] == executed["seq"]

    def test_nan_reading_emits_no_data(self, kernel):
        reactor, tier, _, tracer = self.make(kernel)
        reactor.on_reading(reading(0.0, float("nan")))
        (decision,) = self.decisions(tracer)
        assert decision["action"] == "none"
        assert decision["reason"] == "no-data"
        assert reactor.no_data_decisions == 1
        assert tier.replica_count == 1


class TestTracedSystemRun:
    """The acceptance bar: a traced Fig. 5-style run yields a JSONL file in
    which every replica-count change traces back to an executed Decision."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        profile = PiecewiseProfile([(0.0, 300), (600.0, 40)], duration_s=1400.0)
        cfg = ExperimentConfig(
            profile=profile,
            seed=7,
            tail_s=30.0,
            trace_jsonl=str(path),
            trace_run_id="itest",
        )
        system = ManagedSystem(cfg)
        system.run()
        return system, load_jsonl(str(path))

    def test_run_id_on_every_record(self, traced):
        _, records = traced
        assert records
        assert all(r["run"] == "itest" for r in records)

    def test_grow_and_shrink_both_occurred(self, traced):
        system, records = traced
        deltas = [
            r["replica_delta"]
            for r in records
            if r["kind"] == "reconfig-completed" and r.get("ok", True)
        ]
        assert any(d > 0 for d in deltas)
        assert any(d < 0 for d in deltas)

    def test_every_replica_change_caused_by_executed_decision(self, traced):
        _, records = traced
        changes = [
            r
            for r in records
            if r["kind"] == "reconfig-completed"
            and r.get("ok", True)
            and r["replica_delta"] != 0
        ]
        assert changes
        for change in changes:
            chain = causal_chain(records, change)
            root = chain[0]
            assert root["kind"] == "decision", chain
            assert root["executed"]
            assert root["reason"] in ("above-max", "below-min")
            assert root["seq"] < change["seq"]
            assert root["t"] <= change["t"]
            assert root["run"] == change["run"]

    def test_decision_precedes_started_precedes_completed(self, traced):
        _, records = traced
        for change in records:
            if change["kind"] != "reconfig-completed" or not change.get("ok", True):
                continue
            kinds = [r["kind"] for r in causal_chain(records, change)]
            assert kinds == ["decision", "reconfig-started", "reconfig-completed"]

    def test_kernel_stats_emitted_last(self, traced):
        system, records = traced
        assert records[-1]["kind"] == "kernel-stats"
        assert records[-1]["events_processed"] == system.kernel.events_processed

    def test_summary_surfaces_in_json_report(self, traced):
        from repro.metrics.export import to_json_dict

        system, _ = traced
        report = to_json_dict(system.collector, tracer=system.tracer)
        assert report["trace"]["run"] == "itest"
        assert report["trace"]["reconfigurations"]["count"] >= 2

    def test_untraced_run_wires_nothing(self):
        system = ManagedSystem(
            ExperimentConfig(profile=ConstantProfile(10, 30.0))
        )
        assert system.tracer is None
        assert system.app_tier.tracer is None
        assert system.db_tier.tracer is None
        optimizer = system.optimizer
        assert optimizer.inhibition.tracer is None
        for loop in optimizer.loops.values():
            assert loop.probe.tracer is None
            assert loop.reactor.tracer is None
