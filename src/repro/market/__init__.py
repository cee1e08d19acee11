"""Heterogeneous node markets (extension; see ROADMAP item 1).

The paper's Cluster Manager draws from a uniform pool of identical free
nodes; its resource-saving argument (§1) is therefore counted in plain
node-hours.  This package prices that argument: an instance-type
**catalog** (:mod:`~repro.market.catalog`), a deterministic **spot
market** with 2-minute interruption notices
(:mod:`~repro.market.spot`), a cost-aware bin-packing
**fleet allocator** stocking the Cluster Manager's pool
(:mod:`~repro.market.allocator`), the **engine** gluing them to the
managed system (:mod:`~repro.market.engine`), frozen
:class:`~repro.market.scenario.MarketScenario` presets riding the cached
parallel runner, a fleet-cost scorecard (:mod:`~repro.market.costs`) and
a fleet-mix what-if (:mod:`~repro.market.whatif`).

Headline: the Fig. 9 ramp at the same SLO for measurably lower fleet
cost than the uniform on-demand pool (see :mod:`repro.market.bench`).
"""

from repro.market.catalog import (
    DEFAULT_CATALOG,
    MARKETS,
    InstanceType,
    by_name,
    price_book,
)
from repro.market.allocator import FleetAllocator, Offer
from repro.market.engine import MarketEngine
from repro.market.scenario import (
    POLICIES,
    PRESETS,
    MarketScenario,
    market_config,
)
from repro.market.spot import SpotMarket

__all__ = [
    "DEFAULT_CATALOG",
    "MARKETS",
    "POLICIES",
    "PRESETS",
    "FleetAllocator",
    "InstanceType",
    "MarketEngine",
    "MarketScenario",
    "Offer",
    "SpotMarket",
    "by_name",
    "market_config",
    "price_book",
]
