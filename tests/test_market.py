"""Tests for the heterogeneous node market: catalog, spot price process,
cost-aware fleet allocator, market engine, spot-interruption chaos and
the fleet-cost scorecard."""

import dataclasses
import pickle

import pytest

from repro.chaos import campaign_config, score_run as chaos_score_run
from repro.chaos.campaign import PRESETS as CHAOS_PRESETS
from repro.cluster import ClusterManager, Node
from repro.jade.system import ManagedSystem
from repro.market import (
    DEFAULT_CATALOG,
    PRESETS,
    InstanceType,
    MarketScenario,
    SpotMarket,
    by_name,
    market_config,
    price_book,
)
from repro.market.allocator import FleetAllocator
from repro.market.costs import (
    score_scenario,
    score_uniform_run,
    uniform_fleet_cost,
)
from repro.market.engine import MarketEngine
from repro.metrics.export import scorecard_json
from repro.runner import CompletedRun, ExperimentRunner, ResultCache
from repro.simulation.rng import RngStreams


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
class TestCatalog:
    def test_cpu_capacity_scales_with_factor(self):
        itype = InstanceType("x", vcpus=2, cpu_factor=1.3)
        assert itype.cpu_capacity == pytest.approx(2.6)

    def test_price_per_effective_vcpu(self):
        itype = InstanceType("x", vcpus=2, hourly_price=1.9)
        assert itype.price_per_effective_vcpu() == pytest.approx(0.95)
        assert itype.price_per_effective_vcpu(0.6) == pytest.approx(0.3)

    def test_spot_mean_price(self):
        itype = InstanceType("x", vcpus=1, hourly_price=2.0, spot=True,
                             spot_fraction=0.25)
        assert itype.spot_mean_price == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType("x", vcpus=0)
        with pytest.raises(ValueError):
            InstanceType("x", vcpus=1, hourly_price=0.0)
        with pytest.raises(ValueError):
            InstanceType("x", vcpus=1, spot_fraction=0.0)

    def test_by_name_rejects_duplicates(self):
        a = InstanceType("same", vcpus=1)
        with pytest.raises(ValueError):
            by_name((a, a))

    def test_price_book_sorted(self):
        book = price_book(DEFAULT_CATALOG)
        assert [name for name, _ in book] == sorted(n for n, _ in book)
        assert dict(book)["std.small"] == pytest.approx(1.0)

    def test_baseline_matches_uniform_rate(self):
        # std.small at 1.0/h is the calibrated machine: a pure on-demand
        # catalog fleet prices like the paper's flat node_hour_cost.
        base = by_name(DEFAULT_CATALOG)["std.small"]
        assert base.hourly_price == pytest.approx(1.0)
        assert base.cpu_capacity == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Scenario values
# ----------------------------------------------------------------------
class TestScenario:
    def test_presets_frozen_and_picklable(self):
        for make in PRESETS.values():
            scenario = make()
            clone = pickle.loads(pickle.dumps(scenario))
            assert clone == scenario
            with pytest.raises(dataclasses.FrozenInstanceError):
                scenario.policy = "other"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MarketScenario("x", policy="yolo")

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError):
            MarketScenario("x", sizes=("mega.huge",))

    def test_reserve_floor_enforced(self):
        with pytest.raises(ValueError):
            MarketScenario("x", reserve_nodes=2)

    def test_market_config_attaches_scenario(self):
        scenario = PRESETS["spot-heavy"]()
        cfg = market_config(scenario, seed=7)
        assert cfg.market == scenario
        assert cfg.recovery and cfg.managed
        assert cfg.seed == 7


# ----------------------------------------------------------------------
# Spot price process
# ----------------------------------------------------------------------
def _market(kernel, scenario, seed=1):
    return SpotMarket(kernel, scenario, RngStreams(seed).get("market"))


class TestSpotMarket:
    def test_same_seed_same_tape(self, kernel):
        scenario = PRESETS["volatile"]()
        a = _market(kernel, scenario, seed=5)
        b = _market(kernel, scenario, seed=5)
        a.start()
        b.start()
        kernel.run(until=600.0)
        assert a.history == b.history
        assert a.ticks == 20

    def test_different_seeds_differ(self, kernel):
        scenario = PRESETS["volatile"]()
        a = _market(kernel, scenario, seed=1)
        b = _market(kernel, scenario, seed=2)
        a.start()
        b.start()
        kernel.run(until=300.0)
        assert a.history != b.history

    def test_price_clamped_to_on_demand(self, kernel):
        scenario = dataclasses.replace(
            PRESETS["volatile"](), volatility=2.0, reversion=0.0
        )
        market = _market(kernel, scenario)
        market.start()
        kernel.run(until=3000.0)
        base = by_name(DEFAULT_CATALOG)["std.small"]
        for _, price in market.history["std.small"]:
            assert 0.02 * base.hourly_price <= price <= base.hourly_price

    def test_on_demand_price_flat(self, kernel):
        market = _market(kernel, PRESETS["balanced"]())
        assert market.price("std.small", market="on-demand") == 1.0

    def test_integrate_piecewise(self, kernel):
        market = _market(kernel, PRESETS["balanced"]())
        market.history["std.small"] = [(0.0, 0.5), (1800.0, 1.0)]
        # 0.5/h for half an hour + 1.0/h for half an hour
        assert market.integrate("std.small", "spot", 0.0, 3600.0) == (
            pytest.approx(0.75)
        )
        assert market.integrate("std.small", "on-demand", 0.0, 1800.0) == (
            pytest.approx(0.5)
        )
        assert market.integrate("std.small", "spot", 10.0, 10.0) == 0.0


# ----------------------------------------------------------------------
# Fleet allocator
# ----------------------------------------------------------------------
def _allocator(kernel, scenario):
    market = _market(kernel, scenario)
    cluster = ClusterManager([])

    def make_node(name, itype, node_market):
        return Node(kernel, name, instance=itype, market=node_market)

    return FleetAllocator(kernel, scenario, market, cluster, make_node)


class TestFleetAllocator:
    def test_on_demand_policy_never_offers_spot(self, kernel):
        alloc = _allocator(kernel, PRESETS["on-demand"]())
        assert all(o.market == "on-demand" for o in alloc.offers())
        mix = alloc.choose_mix(5.0)
        assert len(mix) == 5
        assert all(o.market == "on-demand" for o in mix)

    def test_spot_heavy_mix_respects_floor(self, kernel):
        scenario = PRESETS["spot-heavy"]()
        alloc = _allocator(kernel, scenario)
        mix = alloc.choose_mix(8.0)
        od = sum(o.itype.cpu_capacity for o in mix if o.market == "on-demand")
        spot = sum(o.itype.cpu_capacity for o in mix if o.market == "spot")
        total = od + spot
        assert total >= 8.0
        assert od >= scenario.on_demand_floor * total - 1e-9
        assert spot > 0  # cheap spot capacity is actually used

    def test_provision_stocks_the_pool(self, kernel):
        alloc = _allocator(kernel, PRESETS["balanced"]())
        node = alloc.provision(by_name(DEFAULT_CATALOG)["std.small"], "spot")
        assert alloc.cluster.free_count == 1
        assert node.market == "spot"
        assert alloc.live_capacity() == (0.0, 1.0)

    def test_boot_delay_defers_join(self, kernel):
        scenario = dataclasses.replace(PRESETS["balanced"](), boot_s=30.0)
        alloc = _allocator(kernel, scenario)
        alloc.provision(by_name(DEFAULT_CATALOG)["std.small"], "on-demand")
        assert alloc.cluster.free_count == 0
        kernel.run(until=31.0)
        assert alloc.cluster.free_count == 1

    def test_retire_excess_prefers_most_expensive(self, kernel):
        alloc = _allocator(kernel, PRESETS["balanced"]())
        base = by_name(DEFAULT_CATALOG)["std.small"]
        alloc.provision(base, "on-demand")
        alloc.provision(base, "on-demand")
        alloc.provision(base, "spot")
        kernel.run(until=10.0)
        # On-demand (1.0/h) beats spot (0.3/h mean) per vCPU, and the
        # 50 % floor still holds after (od 1 / total 2) — so it goes.
        retired = alloc.retire_excess(1.0)
        assert [n.market for n in retired] == ["on-demand"]
        od, spot = alloc.live_capacity()
        assert (od, spot) == (1.0, 1.0)

    def test_retire_excess_never_sinks_the_floor(self, kernel):
        alloc = _allocator(kernel, PRESETS["balanced"]())
        base = by_name(DEFAULT_CATALOG)["std.small"]
        alloc.provision(base, "on-demand")
        alloc.provision(base, "spot")
        kernel.run(until=10.0)
        # The on-demand node is the priciest, but retiring it would drop
        # the floor to 0/1 < 50 % — so the spot node goes instead.
        retired = alloc.retire_excess(1.0)
        assert [n.market for n in retired] == ["spot"]
        od, spot = alloc.live_capacity()
        assert (od, spot) == (1.0, 0.0)

    def test_retire_excess_skips_oversized_nodes(self, kernel):
        scenario = dataclasses.replace(
            PRESETS["on-demand"](), sizes=("std.large",)
        )
        alloc = _allocator(kernel, scenario)
        alloc.provision(by_name(DEFAULT_CATALOG)["std.large"], "on-demand")
        # excess of 1 vCPU cannot be satisfied by retiring a 2-vCPU box
        assert alloc.retire_excess(1.0) == []
        assert alloc.cluster.free_count == 1

    def test_fleet_cost_integrates_flat_on_demand(self, kernel):
        alloc = _allocator(kernel, PRESETS["on-demand"]())
        node = alloc.provision(by_name(DEFAULT_CATALOG)["std.small"], "on-demand")
        kernel.run(until=1800.0)
        alloc.retire(node, reason="scale-down")
        kernel.run(until=7200.0)
        # held half an hour at 1.0/h, nothing after retirement
        assert alloc.fleet_cost() == pytest.approx(0.5)
        assert alloc.node_seconds() == pytest.approx(1800.0)
        prov = alloc.provisions[0].as_dict()
        assert prov["reason"] == "scale-down"
        assert prov["t1"] == pytest.approx(1800.0)

    def test_close_is_idempotent(self, kernel):
        alloc = _allocator(kernel, PRESETS["on-demand"]())
        node = alloc.provision(by_name(DEFAULT_CATALOG)["std.small"], "on-demand")
        kernel.run(until=60.0)
        alloc.retire(node)
        t1 = alloc.provisions[0].t1
        kernel.run(until=120.0)
        alloc.close(node.name, reason="other")
        assert alloc.provisions[0].t1 == t1  # unchanged


# ----------------------------------------------------------------------
# Market engine on the full managed system
# ----------------------------------------------------------------------
def _run_market(scenario, seed=1, scale=0.1):
    system = ManagedSystem(market_config(scenario, seed=seed, scale=scale))
    system.run()
    return system


class TestMarketEngine:
    def test_initial_fleet_reserves_on_demand_core(self, kernel):
        scenario = PRESETS["spot-heavy"]()
        engine = MarketEngine(
            kernel, scenario, RngStreams(1),
            lambda name, itype, market: Node(
                kernel, name, instance=itype, market=market
            ),
            pool_vcpus=7.0,
        )
        od, spot = engine.allocator.live_capacity()
        assert od >= 4.0  # the reserve: balancers + one replica per tier
        assert od + spot == pytest.approx(7.0)
        # FIFO hands the reserve out first
        first = engine.cluster.allocate("tier:app")
        assert first.market == "on-demand"

    def test_ramp_provisions_and_retires(self):
        system = _run_market(PRESETS["spot-heavy"]())
        engine = system.market
        actions = [r["action"] for r in engine.rebalances]
        assert "initial" in actions and "provision" in actions
        assert "retire" in actions  # the ramp came back down
        assert engine.fleet_cost() > 0
        # balancers never sat on spot capacity
        for comp in (system.plb, system.cjdbc):
            assert system.app.node_of(comp).market == "on-demand"

    def test_interrupt_drains_and_reclaims(self):
        # Force an interruption deterministically via engine.interrupt on
        # an allocated spot node mid-run.
        scenario = dataclasses.replace(
            PRESETS["spot-heavy"](), interruption_hazard_per_hour=0.0
        )
        system = ManagedSystem(market_config(scenario, seed=1, scale=0.1))

        state = {}

        def fire():
            engine = system.market
            spot_allocated = [
                n for n in engine.cluster.allocated_nodes()
                if n.market == "spot"
            ]
            if not spot_allocated:  # try again when the ramp is higher
                system.kernel.schedule(10.0, fire)
                return
            node = spot_allocated[0]
            state["node"] = node
            state["deadline"] = engine.interrupt(node)

        system.kernel.schedule_at(150.0, fire)
        system.run()

        engine = system.market
        node = state["node"]
        assert not node.up  # reclaimed at the deadline
        assert state["deadline"] == pytest.approx(
            engine.interruptions[0]["t"] + scenario.notice_s
        )
        prov = next(
            p for p in engine.allocator.provisions if p.node_name == node.name
        )
        assert prov.reason == "spot-reclaim"
        # the drain repaired the replica: a grow landed after the notice
        repairs = [
            (t, d) for t, d in system.collector.reconfigurations
            if "repair:" in d and node.name in d
        ]
        assert repairs, "interrupted replica was not drained"

    def test_interrupted_free_node_not_allocated(self, kernel):
        scenario = PRESETS["spot-heavy"]()
        engine = MarketEngine(
            kernel, scenario, RngStreams(1),
            lambda name, itype, market: Node(
                kernel, name, instance=itype, market=market
            ),
            pool_vcpus=7.0,
        )
        victim = next(
            n for n in engine.cluster.free_nodes() if n.market == "spot"
        )
        engine.interrupt(victim)
        assert victim not in engine.cluster.free_nodes()
        assert engine.interrupt(victim) == engine.interruptions[0]["deadline"]
        assert len(engine.interruptions) == 1  # dedup

    def test_volatile_run_survives_reclaims(self):
        system = _run_market(PRESETS["volatile"](), scale=0.1)
        engine = system.market
        assert len(engine.interruptions) >= 1
        reclaims = [
            p for p in engine.allocator.provisions
            if p.reason == "spot-reclaim"
        ]
        assert reclaims
        col = system.collector
        attempted = col.completed_requests + col.failed_requests
        assert col.completed_requests / attempted > 0.98


# ----------------------------------------------------------------------
# Spot interruptions through the chaos subsystem
# ----------------------------------------------------------------------
class TestSpotChaos:
    def test_spot_campaign_on_uniform_pool_repairs(self):
        # No market attached: the fault's standalone path drains, crashes
        # at the deadline and the MTTR scorecard pairs the repair.
        campaign = CHAOS_PRESETS["spot"]()
        config = campaign_config(campaign, seed=1, clients=60,
                                 duration_s=480.0)
        system = ManagedSystem(config)
        system.run()
        run = CompletedRun.from_system(system, 0.0)
        assert run.chaos.faults_injected == 1
        card = chaos_score_run(run)
        assert card["disruptions"] == 1
        assert card["repairs_completed"] == 1
        assert card["mttr_mean_s"] == card["mttr_mean_s"]  # not NaN

    def test_spot_campaign_routes_through_market_engine(self):
        campaign = CHAOS_PRESETS["spot"]()
        scenario = dataclasses.replace(
            PRESETS["spot-heavy"](), interruption_hazard_per_hour=0.0
        )
        config = dataclasses.replace(
            campaign_config(campaign, seed=1, clients=60, duration_s=480.0),
            market=scenario,
        )
        system = ManagedSystem(config)
        system.run()
        engine = system.market
        assert [e["source"] for e in engine.interruptions] == ["chaos"]
        run = CompletedRun.from_system(system, 0.0)
        assert run.chaos.faults_injected == 1
        card = chaos_score_run(run)
        assert card["repairs_completed"] >= 1


# ----------------------------------------------------------------------
# Scorecard and runner integration
# ----------------------------------------------------------------------
class TestScorecard:
    def test_uniform_baseline_cost(self):
        cfg = market_config(PRESETS["spot-heavy"](), scale=0.1)
        expected = cfg.pool_nodes * (
            cfg.profile.duration_s + cfg.tail_s
        ) / 3600.0
        assert uniform_fleet_cost(cfg) == pytest.approx(expected)

    def test_savings_and_slo_parity(self):
        scenario = PRESETS["spot-heavy"]()
        runner = ExperimentRunner(parallel=False, cache=None)
        cfg = market_config(scenario, seed=1, scale=0.1)
        runs = runner.run_many({
            "market": cfg,
            "uniform": dataclasses.replace(cfg, market=None),
        })
        card = score_scenario(scenario, [runs["market"]])
        uniform = score_uniform_run(runs["uniform"])
        row = card["per_seed"][0]
        assert row["savings_pct"] > 15.0
        assert row["slo_violation_s"] <= uniform["slo_violation_s"] + 10.0
        assert row["spot_share"] > 0.0
        assert row["held_node_hours_by_owner"]  # tiers accrued hold time

    def test_completed_run_market_stats_picklable(self):
        system = _run_market(PRESETS["spot-heavy"](), scale=0.1)
        run = CompletedRun.from_system(system, 0.0)
        clone = pickle.loads(pickle.dumps(run))
        assert clone.market.scenario == "spot-heavy"
        assert clone.market.fleet_cost == pytest.approx(
            system.market.fleet_cost()
        )
        assert clone.market.provisions  # the ledger survived the pickle

    def test_scorecard_identical_serial_parallel_cached(self, tmp_path):
        scenario = PRESETS["spot-heavy"]()
        seeds = (1, 2)

        def card(runner):
            runs = runner.run_many({
                f"m-s{seed}": market_config(scenario, seed=seed, scale=0.1)
                for seed in seeds
            })
            return scorecard_json(
                score_scenario(
                    scenario, [runs[f"m-s{s}"] for s in seeds]
                )
            )

        serial = card(ExperimentRunner(parallel=False, cache=None))
        cache = ResultCache(tmp_path / "cache")
        parallel = card(ExperimentRunner(parallel=True, cache=cache))
        assert cache.misses == len(seeds)
        warm_cache = ResultCache(tmp_path / "cache")
        cached = card(ExperimentRunner(parallel=True, cache=warm_cache))
        assert warm_cache.hits == len(seeds)
        assert serial == parallel
        assert serial == cached


def test_market_configs_uniform_arm():
    """The uniform baseline arm is the market arm's ramp with the market
    removed — same config (and so the same cache key) whichever
    scenario it is built beside."""
    from repro.market.scenario import market_configs
    from repro.runner.cache import describe_config

    spot, balanced = PRESETS["spot-heavy"](), PRESETS["balanced"]()
    both = market_configs([spot, balanced], (1, 2), peak=300, scale=0.1)
    assert list(both) == [
        "spot-heavy-s1", "spot-heavy-s2", "balanced-s1", "balanced-s2",
        "uniform-s1", "uniform-s2",
    ]
    for seed in (1, 2):
        legacy = dataclasses.replace(
            market_config(spot, seed=seed, peak=300, scale=0.1), market=None
        )
        assert describe_config(both[f"uniform-s{seed}"]) == describe_config(
            legacy
        )
    alone = market_configs([balanced], (1,), peak=300, scale=0.1)
    assert describe_config(alone["uniform-s1"]) == describe_config(
        both["uniform-s1"]
    )
    assert "uniform-s1" not in market_configs([spot], (1,), uniform=False)
