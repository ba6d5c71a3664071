"""Probes around public calls of the ``repro`` layers, installed from the
benchmark's side and removed afterwards; nothing under ``src/`` changes.

One probe table serves two modes:

* counting (every run): only the probes marked ``always`` are installed.
  They feed the exact work counters and the end-of-setup mark and keep no
  spans, so the end-to-end numbers pay a few hundred cheap calls at most;
* tracing (the extra traced run): every probe records a span — name,
  start, end, parent span and, where the call receives a request, its
  ``request_id``. Spans stay in memory until :meth:`Tracer.write`.

A module-level function is replaced in every loaded ``repro`` module that
bound it by name (``from ..x import f``), so call sites see the probe
whichever import they went through.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import time
import typing as _t
from dataclasses import dataclass

Hook = _t.Callable[["Tracer", tuple, _t.Any], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped call: ``target`` is ``module:function`` or
    ``module:Class.attribute`` (a method or a property)."""

    span: str
    target: str
    always: bool = False
    #: Positional index of a ``WorkflowRequest`` argument to tag spans with.
    request_arg: int | None = None
    before: Hook | None = None
    after: Hook | None = None


# -- counter hooks --------------------------------------------------------


def _mark_dispatch(tracer: "Tracer", _args: tuple, _result: _t.Any) -> None:
    if tracer.first_dispatch is None:
        tracer.first_dispatch = time.monotonic()


def _count_oracle(tracer: "Tracer", _args: tuple, _result: _t.Any) -> None:
    tracer.counters["policies.oracle_solves"] += 1


def _platform_extras(tracer: "Tracer", _args: tuple, result: _t.Any) -> None:
    extras = result.extras
    c = tracer.counters
    c["sim.events"] += int(extras["events_processed"])
    c["cluster.throttle_polls"] += int(extras["throttled"])
    c["cluster.preemptions"] += int(extras.get("preemptions", 0))
    c["cluster.retries"] += int(extras.get("retries", 0))
    c["cluster.requests"] += len(result.outcomes)
    tracer.cold_start_rates.append(float(extras["cold_start_rate"]))


def _serving_report(tracer: "Tracer", args: tuple, report: _t.Any) -> None:
    loop = args[0]
    tracer.counters["serving.swaps"] = int(report.swaps)
    tracer.counters["serving.events_retained"] = int(loop.events.count)


def _count_requests(tracer: "Tracer", _args: tuple, result: _t.Any) -> None:
    tracer.counters["traces.requests"] += len(result)


#: Every probed call. ``span`` is ``<layer>.<call>``; the layer is the
#: ``src/repro`` package the call belongs to.
PROBES: tuple[Probe, ...] = (
    Probe("profiling.profile_workflow",
          "repro.profiling.profiler:profile_workflow"),
    Probe("synthesis.synthesize_hints",
          "repro.synthesis.generator:synthesize_hints"),
    Probe("synthesis.synthesize_dag_hints",
          "repro.synthesis.dag:synthesize_dag_hints"),
    Probe("policies.build", "repro.policies.registry:PolicyRegistry.build"),
    Probe("policies.oracle_begin_request",
          "repro.policies.oracle:OraclePolicy.begin_request",
          always=True, request_arg=1, after=_count_oracle),
    Probe("policies.janus_size_for_node",
          "repro.policies.janus:JanusPolicy.size_for_node", request_arg=2),
    Probe("policies.janus_sizes_for_node",
          "repro.policies.janus:JanusPolicy.sizes_for_node"),
    Probe("runtime.analytic_run",
          "repro.runtime.executor:AnalyticExecutor.run"),
    Probe("runtime.dag_run",
          "repro.runtime.dag_executor:DagAnalyticExecutor.run"),
    Probe("traces.scenario_requests",
          "repro.scenarios.runner:scenario_requests", after=_count_requests),
    Probe("functions.execution_time",
          "repro.functions.model:FunctionModel.execution_time"),
    Probe("functions.execution_times",
          "repro.functions.model:FunctionModel.execution_times"),
    Probe("functions.sample_dynamics",
          "repro.functions.model:FunctionModel.sample_dynamics"),
    Probe("workflow.chain", "repro.workflow.catalog:Workflow.chain"),
    Probe("cluster.platform_run",
          "repro.cluster.platform:ServerlessPlatform.run",
          always=True, after=_platform_extras),
    Probe("sim.run", "repro.sim.engine:Simulator.run"),
    Probe("serving.run", "repro.serving.loop:ServingLoop.run",
          always=True, before=_mark_dispatch, after=_serving_report),
    Probe("metrics.compare", "repro.runtime.driver:compare"),
    Probe("metrics.summary", "repro.runtime.results:RunResult.summary"),
    Probe("scenarios.run_scenario", "repro.scenarios.runner:run_scenario"),
    Probe("scenarios.evaluate_cell", "repro.scenarios.runner:evaluate_cell",
          always=True, before=_mark_dispatch),
)


def _repro_modules() -> list[_t.Any]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs probes, keeps counters and (when tracing) spans."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        #: ``[name, start_ns, end_ns, parent index or -1, request_id]``.
        self.spans: list[list[_t.Any]] = []
        self._stack: list[int] = []
        self.counters: collections.Counter[str] = collections.Counter()
        self.cold_start_rates: list[float] = []
        self.first_dispatch: float | None = None
        self._undo: list[_t.Callable[[], None]] = []

    # -- installation -------------------------------------------------------
    def install(self, probes: _t.Iterable[Probe] = PROBES) -> None:
        """Wrap every probe this mode uses.

        Tracing wraps all of them, importing what it must. Counting wraps
        only ``always`` probes of modules already imported, so a counted
        run imports exactly what the CLI does; a probe skipped wrongly
        shows up as a counter that differs from the traced run's.
        """
        for probe in probes:
            module = probe.target.partition(":")[0]
            if self.tracing or (probe.always and module in sys.modules):
                self._install(probe)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            self._undo.pop()()

    def _install(self, probe: Probe) -> None:
        module_name, _, qualname = probe.target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapped = self._wrap(probe, original)
            holders = [
                (mod, attr)
                for mod in _repro_modules()
                for attr, value in list(vars(mod).items())
                if value is original
            ]
            for mod, attr in holders:
                setattr(mod, attr, wrapped)
            self._undo.append(
                lambda: [setattr(m, a, original) for m, a in holders]
            )
            return
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name)
        own = owner.__dict__.get(attr)
        raw = own if own is not None else inspect.getattr_static(owner, attr)
        if isinstance(raw, property):
            replacement: _t.Any = property(self._wrap(probe, raw.fget))
        else:
            replacement = self._wrap(probe, raw)
        setattr(owner, attr, replacement)
        if own is None:
            # Inherited: deleting the override restores the base method.
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, own))

    def _wrap(self, probe: Probe, fn: _t.Callable[..., _t.Any]) -> _t.Any:
        before, after = probe.before, probe.after
        if not self.tracing:
            if inspect.iscoroutinefunction(fn):
                async def counted_async(*args: _t.Any, **kw: _t.Any) -> _t.Any:
                    if before is not None:
                        before(self, args, None)
                    result = await fn(*args, **kw)
                    if after is not None:
                        after(self, args, result)
                    return result
                return counted_async

            def counted(*args: _t.Any, **kw: _t.Any) -> _t.Any:
                if before is not None:
                    before(self, args, None)
                result = fn(*args, **kw)
                if after is not None:
                    after(self, args, result)
                return result
            return counted

        name, rid_arg = probe.span, probe.request_arg
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def open_span(args: tuple) -> list[_t.Any]:
            rid = None
            if rid_arg is not None and len(args) > rid_arg:
                rid = getattr(args[rid_arg], "request_id", None)
            span = [name, 0, 0, stack[-1] if stack else -1, rid]
            stack.append(len(spans))
            spans.append(span)
            return span

        if inspect.iscoroutinefunction(fn):
            # Only the serving loop is async; every span opened while it
            # awaits is synchronous, so the parent stack stays well nested.
            async def traced_async(*args: _t.Any, **kw: _t.Any) -> _t.Any:
                if before is not None:
                    before(self, args, None)
                span = open_span(args)
                span[1] = clock()
                try:
                    result = await fn(*args, **kw)
                finally:
                    span[2] = clock()
                    stack.pop()
                if after is not None:
                    after(self, args, result)
                return result
            return traced_async

        def traced(*args: _t.Any, **kw: _t.Any) -> _t.Any:
            if before is not None:
                before(self, args, None)
            span = open_span(args)
            span[1] = clock()
            try:
                result = fn(*args, **kw)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    # -- analysis -------------------------------------------------------------
    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name and per layer: calls, busy and self seconds.

        Busy time sums the spans with no ancestor of the same name (for a
        layer: of the same layer), so recursion and nested calls within
        one layer are not counted twice. Self time is a span's duration
        minus the time its child spans cover.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = {}

        def row(key: str) -> dict[str, float]:
            return table.setdefault(key, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})

        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            outer_name = outer_layer = True
            p = parent
            while p >= 0 and (outer_name or outer_layer):
                pname = spans[p][0]
                if pname == name:
                    outer_name = False
                if pname.split(".", 1)[0] == layer:
                    outer_layer = False
                p = spans[p][3]
            for key, outer in ((name, outer_name), (layer, outer_layer)):
                r = row(key)
                r["calls"] += 1
                if outer:
                    r["busy_s"] += dur / 1e9
                r["self_s"] += (dur - child_ns[i]) / 1e9
        return table

    def durations_s(self, *names: str) -> list[float]:
        """Durations of every span named one of ``names``."""
        return [(e - s) / 1e9 for n, s, e, _, _ in self.spans if n in names]

    def write(self, path: str) -> None:
        """Dump the spans as compact JSON (names interned)."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(n, len(names)), s, e, p, rid]
            for n, s, e, p, rid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent",
                            "request_id"],
                 "names": list(names), "spans": rows},
                fh, separators=(",", ":"),
            )
