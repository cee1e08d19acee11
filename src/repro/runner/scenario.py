"""One shared path for the seeded scenario subcommands.

``repro chaos``, ``repro deploy`` and ``repro market`` share one shape:
pick a named preset, replicate it across seeds through the parallel
cached :class:`~repro.runner.parallel.ExperimentRunner`, score the runs
into a multi-seed scorecard, print it (plus an optional per-seed event
log) and write its canonical JSON.  A subsystem registers a
:class:`Scenario` subclass that supplies the preset table and the
``configs`` / ``score`` / ``render`` / ``events`` hooks; :meth:`Scenario.main`
is the one path from seeds to ``--json``.

The runner flags (``--serial``/``--no-cache``/``--workers``) are also
shared with ``repro sweep`` and ``repro tune`` through
:func:`add_runner_flags` / :func:`runner_from_args`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Mapping, Sequence

from repro.runner.cache import ResultCache
from repro.runner.parallel import ExperimentRunner


def parse_list(raw: str, conv: Callable = str) -> tuple:
    """``"1,2,,3"`` -> ``(1, 2, 3)`` (empty items dropped)."""
    return tuple(conv(item) for item in raw.split(",") if item.strip())


def add_runner_flags(parser: argparse.ArgumentParser, unit: str = "seed") -> None:
    """``--serial``, ``--no-cache`` and ``--workers`` for a runner fan-out
    over ``unit``\\ s."""
    parser.add_argument(
        "--serial", action="store_true", help=f"run {unit}s in-process"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=f"process-pool width for the {unit} fan-out",
    )


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        max_workers=args.workers,
        cache=None if args.no_cache else ResultCache(),
        parallel=not args.serial,
    )


def print_cache(runner: ExperimentRunner) -> None:
    if runner.cache is not None:
        print(
            f"  cache: {runner.cache.hits} hits / {runner.cache.misses} misses"
        )


class Scenario:
    """A seeded scenario subcommand (see the module docstring).

    Subclasses set the class attributes and implement the hooks.  The
    ``preset`` a hook receives is the named preset after :meth:`resolve`.
    """

    #: subcommand name and its ``--help`` line
    name: str
    help: str
    #: the preset-selecting flag, its preset table and default
    preset_flag: str = "--scenario"
    presets: Mapping[str, Callable[[], Any]]
    default: str
    preset_help: str
    #: ``--events`` help text
    events_help: str

    # -- parser ------------------------------------------------------------
    def add_parser(self, sub) -> argparse.ArgumentParser:
        parser = sub.add_parser(self.name, help=self.help)
        parser.add_argument(
            self.preset_flag, default=self.default,
            choices=sorted(self.presets),
            help=f"{self.preset_help} (default: {self.default})",
        )
        self.add_options(parser)
        parser.add_argument(
            "--seeds", default="1,2,3", metavar="LIST",
            help="comma-separated seeds; CIs aggregate across them "
            "(default 1,2,3)",
        )
        parser.add_argument(
            "--slo", type=float, default=0.5, metavar="SEC",
            help="latency SLO for the violation-time metric (default 0.5 s)",
        )
        parser.add_argument(
            "--json", metavar="FILE", default=None,
            help="write the canonical scorecard JSON (byte-stable across "
            "serial/parallel/cached execution)",
        )
        parser.add_argument(
            "--events", action="store_true", help=self.events_help
        )
        add_runner_flags(parser)
        return parser

    def add_options(self, parser: argparse.ArgumentParser) -> None:
        """Scenario-specific flags."""

    # -- hooks ---------------------------------------------------------------
    def resolve(self, preset, args: argparse.Namespace):
        """Apply flag overrides to the freshly built preset."""
        return preset

    def banner(self, preset, args: argparse.Namespace) -> str:
        raise NotImplementedError

    def configs(
        self, preset, seeds: Sequence[int], args: argparse.Namespace
    ) -> dict:
        """``{label: ExperimentConfig}`` for every run the scorecard needs."""
        raise NotImplementedError

    def score(self, preset, runs: dict, args: argparse.Namespace) -> dict:
        """The scorecard ``--json`` writes.  ``runs`` maps every
        :meth:`configs` label, in the same order, to its finished run
        (``run.config.seed`` names the seed)."""
        raise NotImplementedError

    def render(
        self, scorecard: dict, runs: dict, args: argparse.Namespace
    ) -> list[str]:
        raise NotImplementedError

    def events(self, runs: dict) -> list[str]:
        """The per-seed event log printed under ``--events``."""
        raise NotImplementedError

    # -- the one path ----------------------------------------------------------
    def main(self, args: argparse.Namespace) -> int:
        seeds = parse_list(args.seeds, int)
        if not seeds:
            print("error: --seeds is empty", file=sys.stderr)
            return 2
        return self.run(args, seeds, runner_from_args(args))

    def run(self, args, seeds: tuple, runner: ExperimentRunner) -> int:
        from repro.metrics.export import scorecard_json

        preset = self.resolve(
            self.presets[getattr(args, self.preset_flag.lstrip("-"))](), args
        )
        print(
            f"{self.banner(preset, args)}, "
            f"seeds {', '.join(str(s) for s in seeds)}..."
        )
        configs = self.configs(preset, seeds, args)
        results = runner.run_many(configs)
        runs = {label: results[label] for label in configs}
        print_cache(runner)
        scorecard = self.score(preset, runs, args)
        print()
        for line in self.render(scorecard, runs, args):
            print(line)
        if args.events:
            for line in self.events(runs):
                print(line)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(scorecard_json(scorecard))
            print(f"\nScorecard written to {args.json}")
        return 0
