"""pytest-benchmark hooks for every BENCH_engine.json section.

One parametrized hook per :data:`repro.runner.bench.SECTIONS` entry:
compute the section (no result cache, so the timing is a simulation and
not a pickle load), print and persist its rendering under
``benchmarks/results/<section>.txt``, then apply the section's check.
The same sections run from the command line with
``python -m repro bench --section NAME [--smoke]``.
"""

from __future__ import annotations

import pytest

from repro.runner import ExperimentRunner
from repro.runner.bench import SECTIONS, run_section

from benchmarks._shared import emit


@pytest.mark.parametrize("name", list(SECTIONS))
def bench_section(benchmark, name):
    section = SECTIONS[name]
    block = benchmark.pedantic(
        run_section, args=(name, ExperimentRunner()), rounds=1, iterations=1
    )
    emit(name, section.render(block))
    section.check(block)
