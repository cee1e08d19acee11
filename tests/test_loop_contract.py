"""The control-loop contract, property-tested for every CPU policy.

Following Aldinucci & Tuosto's semantics for autonomic components, a
:class:`PolicyReactor` loop is a state machine whose only transitions are
the policy's verdicts, guarded by the tier bounds and the inhibition lock
it shares with the other loops.  For random reading, time, foreign-lock
and actuator-accept sequences, and every registered CPU policy:

* replicas never leave ``[min_replicas, max_replicas]``;
* no actuation happens while the shared lock is held — each one follows
  its own grant, and that grant came after the previous one expired;
* ``grows_triggered + shrinks_triggered`` equals the number of grants
  that led to an accepted actuation;
* every increment of ``decisions_suppressed`` is a traced ``decision``
  with ``executed=False`` and a reason.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.jade.control_loop import InhibitionLock
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuReading
from repro.obs.events import DecisionReason
from repro.obs.tracer import Tracer
from repro.policy import POLICIES, make_policy
from repro.simulation import SimKernel

#: every registered policy a CPU loop can run (latency-band is judged by
#: the SLO reactor on latency, not CPU, readings)
CPU_POLICIES = (
    "threshold",
    "adaptive-threshold",
    "queue-model",
    "forecast",
    "target-utilization",
)


class ContractTier:
    """Fake tier whose actuator accepts or rejects each request in turn
    from a drawn schedule."""

    def __init__(self, kernel, replicas: int, accepts: list[bool]) -> None:
        self.kernel = kernel
        self.replica_count = replicas
        self.accepts = accepts
        self.actuations: list[tuple[float, bool]] = []  # (t, accepted)

    def _actuate(self, delta: int) -> bool:
        accepted = self.accepts[len(self.actuations) % len(self.accepts)]
        self.actuations.append((self.kernel.now, accepted))
        if accepted:
            self.replica_count += delta
        return accepted

    def grow(self) -> bool:
        return self._actuate(+1)

    def shrink(self) -> bool:
        return self._actuate(-1)


step = st.tuples(
    st.sampled_from(["reading", "reading", "reading", "foreign"]),
    st.floats(min_value=0.0, max_value=90.0),
    st.one_of(st.floats(min_value=0.0, max_value=1.5), st.just(float("nan"))),
)


def test_cpu_policy_list_covers_the_registry():
    assert set(CPU_POLICIES) == set(POLICIES) - {"latency-band"}


@pytest.mark.parametrize("name", CPU_POLICIES)
@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(step, min_size=1, max_size=60),
    accepts=st.lists(st.booleans(), min_size=1, max_size=8),
    floor=st.integers(min_value=1, max_value=3),
    span=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    start=st.integers(min_value=0, max_value=4),
    warmup=st.integers(min_value=0, max_value=3),
    inhibition_s=st.sampled_from([0.0, 30.0, 60.0]),
)
def test_loop_contract(
    name, steps, accepts, floor, span, start, warmup, inhibition_s
):
    kernel = SimKernel()
    cap = None if span is None else floor + span
    replicas = floor + start if cap is None else min(floor + start, cap)
    tier = ContractTier(kernel, replicas, accepts)
    lock = InhibitionLock(kernel, inhibition_s)
    reactor = PolicyReactor(
        kernel,
        tier,
        lock,
        make_policy(name),
        min_replicas=floor,
        max_replicas=cap,
        warmup_samples=warmup,
        name="loop",
    )
    tracer = Tracer(run_id="contract")
    reactor.tracer = lock.tracer = tracer

    t = 0.0
    for kind, dt, value in steps:
        t += dt
        kernel.run(until=t)
        suppressed = reactor.decisions_suppressed
        seen = tracer.events_emitted
        if kind == "foreign":
            lock.try_acquire("other")  # another loop sharing the lock
        else:
            reactor.on_reading(CpuReading(t, value, value, tier.replica_count))
        assert floor <= tier.replica_count
        assert cap is None or tier.replica_count <= cap
        refusals = [
            r
            for r in tracer.records()
            if r["seq"] >= seen
            and r["kind"] == "decision"
            and not r["executed"]
            and r["reason"] != DecisionReason.NO_DATA
        ]
        assert reactor.decisions_suppressed - suppressed == len(refusals)
        assert all(r["reason"] for r in refusals)

    records = tracer.records()
    grants = [r for r in records if r["kind"] == "inhibition-acquired"]
    own = [(i, g) for i, g in enumerate(grants) if g["by"] == "loop"]
    # each grant to the loop leads to exactly one actuation, at its time
    assert len(own) == len(tier.actuations)
    for (i, grant), (t_act, _) in zip(own, tier.actuations):
        assert grant["t"] == t_act
        if i > 0:  # the lock was free: the previous grant had expired
            assert t_act >= grants[i - 1]["until"]
    accepted = sum(ok for _, ok in tier.actuations)
    assert reactor.grows_triggered + reactor.shrinks_triggered == accepted
