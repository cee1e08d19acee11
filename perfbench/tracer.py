"""Outside-in span tracer for the benchmark's traced run.

The program is not edited.  :meth:`Tracer.install` patches classes of the
already-imported ``repro`` package before a system is built:

* every callback handed to the simulation kernel (``post*``,
  ``schedule*``, ``call_soon`` and ``PsCpu``'s direct ``_post_at`` fast
  path all end in ``SimKernel._post_at`` or ``SimKernel._enqueue``) is
  swapped for a trampoline that times the callback as a span;
* the generator each ``Process`` drives is wrapped so the body of a
  simulated process is a span of the module that defines it;
* the public entry points of each layer listed in :data:`ENTRY_POINTS`
  are wrapped; their call counts are the per-layer work counters.

A span is charged to the layer of the module that defines the wrapped
function or callback (:func:`layer_of`).  Its self time is its duration
minus the time of the spans nested in it, so the self times of all
spans plus the root's unattributed remainder add up to the root span.

Spans are aggregated per site (calls, inclusive and self nanoseconds) in
memory and written out at the end; a per-event record would hold
millions of spans for one discrete ramp.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Optional

#: layer of every ``repro`` package, by longest module-name prefix; the
#: Jade control plane includes the Fractal component model, the legacy
#: wrappers, the policy plugins and the capacity planner it builds on
_LAYER_PREFIXES = (
    ("repro.simulation.process", "simulation.process"),
    ("repro.simulation.resources", "simulation.resources"),
    ("repro.simulation", "simulation.kernel"),
    ("repro.cluster", "cluster"),
    ("repro.legacy", "legacy"),
    ("repro.workload.fluid", "workload.fluid"),
    ("repro.workload", "workload"),
    ("repro.jade", "jade"),
    ("repro.policy", "jade"),
    ("repro.fractal", "jade"),
    ("repro.wrappers", "jade"),
    ("repro.capacity", "jade"),
    ("repro.metrics", "metrics"),
    ("repro.obs", "metrics"),
)

#: layers reported as ``<layer>.self_s``; anything else is ``other``
LAYERS = (
    "simulation.kernel",
    "simulation.process",
    "simulation.resources",
    "cluster",
    "legacy",
    "workload",
    "workload.fluid",
    "jade",
    "metrics",
)

#: (module, class, method) of each wrapped layer entry point
ENTRY_POINTS = (
    ("repro.simulation.kernel", "SimKernel", "run"),
    ("repro.simulation.process", "Signal", "succeed"),
    ("repro.simulation.process", "Signal", "fail"),
    ("repro.simulation.resources", "PsCpu", "submit"),
    ("repro.simulation.resources", "FifoCpu", "submit"),
    ("repro.cluster.node", "Node", "run_job"),
    ("repro.legacy.plb", "PlbBalancer", "handle"),
    ("repro.legacy.tomcat", "TomcatServer", "handle"),
    ("repro.legacy.cjdbc", "CJdbcController", "execute"),
    ("repro.legacy.mysql", "MySqlServer", "execute_read"),
    ("repro.legacy.mysql", "MySqlServer", "execute_write"),
    ("repro.legacy.mysql", "MySqlServer", "replay_write"),
    ("repro.workload.rubis", "MixNavigator", "next_interaction"),
    ("repro.workload.rubis", "MarkovNavigator", "next_interaction"),
    ("repro.workload.rubis", "RubisModel", "make_request"),
    ("repro.workload.fluid", "FluidEngine", "step"),
    ("repro.jade.reactors", "PolicyReactor", "on_reading"),
    ("repro.jade.sensors", "UtilizationSampler", "sample"),
    ("repro.jade.actuators", "TierManager", "grow"),
    ("repro.jade.actuators", "TierManager", "shrink"),
    ("repro.metrics.collector", "MetricsCollector", "record_latency"),
)


def layer_of(module: Optional[str]) -> str:
    """The layer a span defined in ``module`` is charged to."""
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """Per-site span aggregates for one process.

    Only one tracer may be installed at a time; :meth:`uninstall` puts
    every patched attribute back.
    """

    def __init__(self) -> None:
        #: site index -> (name, layer)
        self.sites: list[tuple[str, str]] = []
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        #: calls of a site that returned a true value (actuation yield)
        self.true_calls: list[int] = []
        #: PS active jobs at each submit -> count
        self.depths: Counter = Counter()
        self._site_ix: dict[Any, int] = {}
        #: open spans' child-time accumulators; index 0 is outside any span
        self._stack: list[int] = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._root_t0: Optional[int] = None
        self.root_ns = 0

    # ------------------------------------------------------------------
    def site(self, name: str, layer: str) -> int:
        """Index of a named site, created on first use."""
        key = (name, layer)
        ix = self._site_ix.get(key)
        if ix is None:
            ix = self._new_site(key, name, layer)
        return ix

    def _new_site(self, key: Any, name: str, layer: str) -> int:
        ix = len(self.sites)
        self._site_ix[key] = ix
        self.sites.append((name, layer))
        self.calls.append(0)
        self.incl_ns.append(0)
        self.self_ns.append(0)
        self.true_calls.append(0)
        return ix

    def callback_site(self, fn: Callable[..., Any]) -> int:
        """Site of a kernel callback: keyed by code object, so the
        closures a layer creates per request share one site."""
        f = getattr(fn, "__func__", fn)
        # an entry point wrapped by this tracer is named by its original
        f = getattr(f, "__wrapped__", f)
        code = getattr(f, "__code__", None)
        key = code if code is not None else type(f)
        ix = self._site_ix.get(key)
        if ix is None:
            if code is not None:
                name, module = f.__qualname__, f.__module__
            else:
                name = type(f).__qualname__
                module = getattr(f, "__module__", None) or type(f).__module__
            ix = self._new_site(key, f"{module}:{name}", layer_of(module))
        return ix

    def generator_site(self, gen: Any) -> int:
        """Site of a simulated process body (its generator function)."""
        code = gen.gi_code
        ix = self._site_ix.get(code)
        if ix is None:
            module = gen.gi_frame.f_globals.get("__name__")
            ix = self._new_site(
                code,
                f"{module}:{getattr(code, 'co_qualname', code.co_name)}",
                layer_of(module),
            )
        return ix

    def reset(self) -> None:
        """Zero every aggregate (a forked worker starts its own account)."""
        n = len(self.sites)
        for arr in (self.calls, self.incl_ns, self.self_ns, self.true_calls):
            arr[:] = [0] * n
        self.depths.clear()
        self._stack[:] = [0]
        self.root_ns = 0
        self._root_t0 = None

    # ------------------------------------------------------------------
    # Root span
    # ------------------------------------------------------------------
    def start_root(self) -> None:
        """Open the root span; aggregates restart here, so spans outside
        the measured interval (system build) are not counted."""
        self.reset()
        self._root_t0 = time.perf_counter_ns()

    def stop_root(self) -> None:
        assert self._root_t0 is not None, "stop_root() before start_root()"
        self.root_ns += time.perf_counter_ns() - self._root_t0
        self._root_t0 = None

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the kernel, ``Process`` and every entry point."""
        import importlib

        from repro.simulation.kernel import SimKernel
        from repro.simulation.process import Process

        if self._patches:
            raise RuntimeError("tracer already installed")
        stack = self._stack
        calls, incl, self_ = self.calls, self.incl_ns, self.self_ns
        clock = time.perf_counter_ns
        callback_site = self.callback_site

        def trampoline(site: int, fn: Callable[..., Any], *args: Any) -> None:
            stack.append(0)
            t0 = clock()
            try:
                fn(*args)
            finally:
                dt = clock() - t0
                self_[site] += dt - stack.pop()
                stack[-1] += dt
                incl[site] += dt
                calls[site] += 1

        post_at = SimKernel._post_at
        enqueue = SimKernel._enqueue

        def _post_at(kernel, when, fn, args):
            post_at(kernel, when, trampoline, (callback_site(fn), fn) + args)

        def _enqueue(kernel, ev):
            ev.args = (callback_site(ev.fn), ev.fn) + ev.args
            ev.fn = trampoline
            enqueue(kernel, ev)

        self._patch(SimKernel, "_post_at", _post_at)
        self._patch(SimKernel, "_enqueue", _enqueue)

        class TracedGenerator:
            """A process body whose every resumption is a span."""

            __slots__ = ("_gen", "_site")

            def __init__(self, gen, site: int) -> None:
                self._gen = gen
                self._site = site

            def __iter__(self):
                return self

            def __next__(self):
                return self.send(None)

            def send(self, value):
                site = self._site
                stack.append(0)
                t0 = clock()
                try:
                    return self._gen.send(value)
                finally:
                    dt = clock() - t0
                    self_[site] += dt - stack.pop()
                    stack[-1] += dt
                    incl[site] += dt
                    calls[site] += 1

            def throw(self, error):
                site = self._site
                stack.append(0)
                t0 = clock()
                try:
                    return self._gen.throw(error)
                finally:
                    dt = clock() - t0
                    self_[site] += dt - stack.pop()
                    stack[-1] += dt
                    incl[site] += dt
                    calls[site] += 1

            def close(self):
                self._gen.close()

        process_init = Process.__init__
        generator_site = self.generator_site

        def __init__(process, kernel, gen, name=""):
            process_init(
                process, kernel, TracedGenerator(gen, generator_site(gen)), name
            )

        self._patch(Process, "__init__", __init__)

        for module_name, cls_name, attr in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            self._patch(owner, attr, self._entry_wrapper(owner, attr))

    def _entry_wrapper(self, owner: type, attr: str) -> Callable[..., Any]:
        orig = owner.__dict__[attr]
        site = self.site(f"{owner.__qualname__}.{attr}", layer_of(orig.__module__))
        stack = self._stack
        calls, incl, self_ = self.calls, self.incl_ns, self.self_ns
        true_calls, depths = self.true_calls, self.depths
        clock = time.perf_counter_ns
        record_depth = attr == "submit"

        def wrapper(obj, *args, **kwargs):
            if record_depth:
                depths[obj.active_jobs] += 1
            stack.append(0)
            t0 = clock()
            try:
                result = orig(obj, *args, **kwargs)
            finally:
                dt = clock() - t0
                self_[site] += dt - stack.pop()
                stack[-1] += dt
                incl[site] += dt
                calls[site] += 1
            if result is True:
                true_calls[site] += 1
            return result

        wrapper.__name__ = orig.__name__
        wrapper.__qualname__ = orig.__qualname__
        wrapper.__doc__ = orig.__doc__
        wrapper.__wrapped__ = orig
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready aggregates: one row per site with any calls, plus the
        submit-depth histogram and the root span."""
        return {
            "root_ns": self.root_ns,
            "unattributed_ns": self.root_ns - self._stack[0],
            "sites": [
                {
                    "name": name,
                    "layer": layer,
                    "calls": self.calls[i],
                    "true_calls": self.true_calls[i],
                    "incl_ns": self.incl_ns[i],
                    "self_ns": self.self_ns[i],
                }
                for i, (name, layer) in enumerate(self.sites)
                if self.calls[i]
            ],
            "depths": {str(k): v for k, v in sorted(self.depths.items())},
        }
