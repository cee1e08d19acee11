"""Three-tier experiment harness (extension).

§7: "We also intend to apply our self-optimization techniques on other use
cases to show the genericity of our approach."  This harness manages the
*full* Figure 2 architecture — an L4 switch in front of replicated Apache
web servers, cross-bound through mod_jk to a fixed pair of Tomcats, over
C-JDBC and replicated MySQL — with **two** control loops: one resizing the
web tier (a tier the paper never resized) and one resizing the database
tier.  The actuator code is the unchanged generic
:class:`~repro.jade.actuators.TierManager`; only the wiring differs, which
is exactly the genericity claim being demonstrated.

The workload mixes static documents with RUBiS interactions
(``static_fraction``); static demand is set high enough that the web tier
becomes a real bottleneck under peak load (synthetic stress — on the real
testbed static pages were too cheap to ever need scaling, which is why the
paper managed only the dynamic tiers).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cluster.allocator import ClusterManager
from repro.cluster.installer import Package, SoftwareInstallationService
from repro.cluster.network import Lan
from repro.cluster.node import Node
from repro.fractal.adl import parse_adl
from repro.jade.actuators import TierManager
from repro.jade.control_loop import ControlLoop, InhibitionLock
from repro.jade.deployment import DeploymentService
from repro.jade.reactors import PolicyReactor
from repro.jade.sensors import CpuProbe
from repro.legacy.cjdbc import BackendState
from repro.legacy.directory import Directory
from repro.metrics.collector import MetricsCollector
from repro.policy import ThresholdPolicy
from repro.simulation.kernel import SimKernel
from repro.simulation.rng import RngStreams
from repro.wrappers import default_factory_registry
from repro.wrappers.apache import make_apache_component
from repro.wrappers.mysql import make_mysql_component
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION
from repro.workload.clients import ClientEmulator
from repro.workload.profiles import WorkloadProfile

THREE_TIER_ADL = """
<definition name="figure2-managed">
  <component name="mysql" type="mysql" package="mysql"/>
  <component name="cjdbc" type="cjdbc" package="cjdbc"/>
  <component name="tomcat" type="tomcat" replicas="2" package="tomcat"/>
  <component name="apache" type="apache" package="apache"/>
  <component name="l4" type="l4switch"/>
  <binding client="cjdbc.backends" server="mysql.mysql"/>
  <binding client="tomcat.jdbc" server="cjdbc.jdbc"/>
  <binding client="apache.ajp" server="tomcat.ajp"/>
  <binding client="l4.web" server="apache.http"/>
</definition>
"""

#: synthetic three-tier calibration: 40 % static requests, expensive enough
#: that the web tier saturates under peak load
THREE_TIER_CALIBRATION = replace(
    DEFAULT_CALIBRATION, static_fraction=0.40, static_demand_s=0.030
)


class ThreeTierSystem:
    """L4 + Apache×k (managed) + Tomcat×2 + C-JDBC + MySQL×m (managed)."""

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 1,
        pool_nodes: int = 9,
        calibration: Calibration = THREE_TIER_CALIBRATION,
        managed: bool = True,
        inhibition_s: float = 60.0,
        web_max: float = 0.80,
        web_min: float = 0.35,
    ) -> None:
        self.kernel = SimKernel()
        self.streams = RngStreams(seed)
        self.collector = MetricsCollector()
        self.lan = Lan()
        self.directory = Directory()
        self.managed = managed
        self.nodes = [
            Node(self.kernel, f"node{i}", memory_mb=calibration.node_memory_mb)
            for i in range(1, pool_nodes + 1)
        ]
        self.cluster = ClusterManager(self.nodes)
        self.installer = SoftwareInstallationService(self.kernel, self.lan)
        for name in ("mysql", "cjdbc", "tomcat", "apache"):
            self.installer.register(Package(name, "1.0", size_mb=12.0, setup_time_s=1.5))

        deployer = DeploymentService(
            self.kernel,
            default_factory_registry(),
            self.cluster,
            self.directory,
            self.installer,
            self.lan,
        )
        self.app = deployer.deploy(parse_adl(THREE_TIER_ADL))
        self.l4 = self.app.instance("l4")
        self.cjdbc = self.app.instance("cjdbc")
        self.tomcats = self.app.instances("tomcat")
        self.app.start()

        context = {
            "kernel": self.kernel,
            "directory": self.directory,
            "lan": self.lan,
        }
        # --- web tier: L4 is the balancer, Apache the replica -----------
        self.web_tier = TierManager(
            self.kernel,
            "web",
            composite=self.app.root,
            balancer=self.l4,
            balancer_itf="web",
            replica_itf="http",
            factory=make_apache_component,
            cluster=self.cluster,
            installer=self.installer,
            package="apache",
            bindings_template=[
                ("ajp", t.get_interface("ajp")) for t in self.tomcats
            ],
            factory_context=context,
            collector=self.collector,
            name_prefix="apache",
        )
        apache1 = self.app.instance("apache")
        self.web_tier.adopt(
            apache1,
            self.app.node_of(apache1),
            self.l4.binding_controller.bound_instances("web")[0],
        )
        # --- db tier (same wiring as the main harness) -------------------
        controller = self.cjdbc.content.controller

        def _db_ready(record) -> bool:
            try:
                return (
                    controller.backend(record.binding_instance).state
                    is BackendState.ENABLED
                )
            except KeyError:
                return True

        self.db_tier = TierManager(
            self.kernel,
            "database",
            composite=self.app.root,
            balancer=self.cjdbc,
            balancer_itf="backends",
            replica_itf="mysql",
            factory=make_mysql_component,
            cluster=self.cluster,
            installer=self.installer,
            package="mysql",
            factory_context=context,
            collector=self.collector,
            ready_check=_db_ready,
            name_prefix="mysql",
        )
        mysql1 = self.app.instance("mysql")
        self.db_tier.adopt(
            mysql1,
            self.app.node_of(mysql1),
            self.cjdbc.binding_controller.bound_instances("backends")[0],
        )

        # --- control loops -----------------------------------------------
        self.loops: dict[str, ControlLoop] = {}
        if managed:
            inhibition = InhibitionLock(self.kernel, inhibition_s)
            for label, tier, window, max_t, min_t in (
                ("web", self.web_tier, 60.0, web_max, web_min),
                ("db", self.db_tier, 90.0, 0.75, 0.40),
            ):
                probe = CpuProbe(
                    self.kernel,
                    nodes_provider=tier.active_nodes,
                    window_s=window,
                    probe_demand_s=calibration.probe_demand_s,
                    name=f"probe-{label}",
                )
                tier_name = "web" if label == "web" else "database"
                probe.subscribe(self._tier_recorder(tier_name))
                reactor = PolicyReactor(
                    self.kernel,
                    tier,
                    inhibition,
                    ThresholdPolicy(max_threshold=max_t, min_threshold=min_t),
                )
                self.loops[label] = ControlLoop.build(
                    self.kernel, f"resize-{label}", probe, reactor, tier
                )

        # --- workload ------------------------------------------------------
        self.emulator = ClientEmulator(
            self.kernel,
            entry=self.l4.content.switch.handle,
            profile=profile,
            collector=self.collector,
            streams=self.streams,
            calibration=calibration,
        )
        self.profile = profile

    def _tier_recorder(self, tier_name: str):
        collector = self.collector

        def record(reading) -> None:
            collector.record_tier_cpu(
                tier_name, reading.t, reading.smoothed, reading.raw
            )

        return record

    # ------------------------------------------------------------------
    def run(self, duration_s: Optional[float] = None) -> MetricsCollector:
        horizon = duration_s if duration_s is not None else self.profile.duration_s
        for loop in self.loops.values():
            loop.start()
        self.emulator.start()
        self.kernel.run(until=horizon)
        self.emulator.stop()
        self.kernel.run(until=horizon + 60.0)
        for loop in self.loops.values():
            loop.stop()
        return self.collector
