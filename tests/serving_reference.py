"""Reference serving loop: one asyncio task per request.

The executable specification of :class:`repro.serving.loop.ServingLoop`,
kept outside the package: the differential suite and the ``serving``
benchmark section pin the served loop against it. Each request is an
asyncio task that sizes one stage per scheduler round with the policy's
scalar :meth:`size_for_node`, so requests interleave in a fixed wavefront;
the adapter's supervisor records every lookup as it happens, and a drift
flag raised by its callback is acted on at the next completion (re-profile
from the recent latency window, re-synthesise, hot-swap the tables).
``time_scale > 0`` paces arrivals *and* stage executions against the wall
clock here, which interleaves differently; the served loop paces
admissions only.
"""

from __future__ import annotations

import asyncio
import time
import typing as _t
from collections import deque

from repro.adapter.supervisor import HitMissSupervisor
from repro.cluster.faults import compile_region_failover
from repro.errors import ExperimentError
from repro.fleet.routing import StreamRouter
from repro.fleet.runner import region_arrival
from repro.metrics.streaming import StreamingMoments, StreamingSummary, WindowedRate
from repro.policies.registry import JANUS_EXPLORATIONS, POLICIES
from repro.profiling.profiles import LatencyProfile, ProfileSet
from repro.profiling.profiler import profile_workflow
from repro.rng import RngFactory, child_seed
from repro.scenarios.registry import scenario_workflow
from repro.serving.events import EventLog
from repro.serving.loop import ServingConfig, ServingReport
from repro.serving.sources import arrival_source, fleet_arrival_source
from repro.synthesis.generator import HeadExploration, synthesize_hints
from repro.workflow.catalog import Workflow
from repro.workflow.request import RequestOutcome, StageRecord, WorkflowRequest


class ReferenceServingLoop:
    """Always-on request sizing over an unbounded arrival stream."""

    def __init__(
        self,
        config: ServingConfig,
        workflow: Workflow | None = None,
        profiles: ProfileSet | None = None,
    ) -> None:
        self.config = config
        self.workflow = workflow or scenario_workflow(config.workflow)
        if self.workflow.topology != "chain":
            raise ExperimentError(
                f"serving supports chain workflows, got topology "
                f"{self.workflow.topology!r} ({self.workflow.name})"
            )
        self.slo_ms = float(self.workflow.slo_ms) * config.slo_scale
        self.profiles = profiles or profile_workflow(
            self.workflow, seed=config.seed, samples=config.samples
        )
        self.policy = POLICIES.build(
            config.policy,
            self.workflow,
            self.profiles,
            slo_ms=self.slo_ms,
        )
        self.policy.bind(self.workflow)

        # Wire drift detection into the policy's adapter when it has one
        # (the Janus family); other policies serve without adaptation.
        self.adapter = getattr(self.policy, "adapter", None)
        self._drift_flagged = False
        if self.adapter is not None:
            supervisor = HitMissSupervisor(
                miss_threshold=config.miss_threshold,
                min_samples=config.min_samples,
                window=config.miss_window,
            )
            supervisor.on_regenerate(self._flag_drift)
            self.adapter.supervisor = supervisor

        # A storm fault reshapes the declared source into its flash-crowd
        # counterpart; everything downstream (labels in the start event,
        # the report) keeps the declared source so runs stay comparable.
        self.effective_source = config.source
        if config.faults is not None and config.faults.kind == "storm":
            from repro.scenarios.matrix import storm_arrival

            self.effective_source = storm_arrival(
                config.source, config.faults
            )
        factory = RngFactory(config.seed).fork("serving", self.workflow.name)
        self.fleet = config.fleet
        self.router: StreamRouter | None = None
        # ``self._arrivals`` is always an iterator of ``(arrival_ms,
        # home_region)`` — home is region 0 for a fleet-free run, drawn
        # from the exact pre-fleet stream path.
        if self.fleet is None:
            self._arrivals = (
                (t, 0)
                for t in arrival_source(
                    self.effective_source,
                    factory.stream("arrivals"),
                    workflow=self.workflow.name,
                )
            )
        else:
            # One phase-offset source per region. Region 0 keeps the
            # fleet-free stream path byte for byte (common random
            # numbers: turning on a fleet replays the single-region run's
            # arrivals at home); the rest fork fresh per-region streams.
            n_regions = len(self.fleet.regions)
            specs = [
                region_arrival(self.effective_source, r, n_regions)
                for r in range(n_regions)
            ]
            rngs = [
                factory.stream("arrivals")
                if r == 0
                else factory.stream("region", name, "arrivals")
                for r, name in enumerate(self.fleet.regions)
            ]
            self._arrivals = fleet_arrival_source(
                specs, rngs, workflow=self.workflow.name
            )
            outage = None
            if (
                config.faults is not None
                and config.faults.kind == "region-failover"
            ):
                # The dark window lands inside the first source period —
                # the serving analogue of the sweep's traffic-span
                # horizon, well-defined even for an unbounded run.
                outage = compile_region_failover(
                    config.faults,
                    child_seed(
                        config.seed, "faults", config.faults.label
                    ),
                    n_regions,
                    self.effective_source.period_s * 1000.0,
                )
            self.router = StreamRouter(
                self.fleet, hold_ms=self.slo_ms, outage=outage
            )
        self._stage_rngs = {
            name: factory.stream("dynamics", name)
            for name in self.workflow.dag.nodes
        }

        # Streaming state — all O(1) or bounded-window memory.
        self.latency = StreamingSummary(config.percentiles)
        self.slo = WindowedRate(window=config.slo_window)
        self.cost = StreamingMoments()
        self.slack = StreamingMoments()
        self._lat_windows: dict[str, deque[tuple[float, int]]] = {
            name: deque(maxlen=config.latency_window)
            for name in self.workflow.chain
        }
        self.events = EventLog(config.event_log)
        self.arrivals = 0
        self.completed = 0
        self.swaps = 0
        self._in_flight: set[asyncio.Task[None]] = set()
        self._workset_scale = 1.0

    # -- request construction ----------------------------------------------
    def _flag_drift(self, _supervisor: HitMissSupervisor) -> None:
        self._drift_flagged = True

    def _scale_for(self, index: int) -> float:
        scale = 1.0
        for after_n, s in self.config.workset_schedule:
            if index >= after_n:
                scale = s
        return scale

    def _make_request(self, index: int, arrival_ms: float) -> WorkflowRequest:
        # Mirrors :func:`repro.traces.workload.generate_requests`: dynamics
        # are drawn per request in arrival order from per-stage streams, so
        # the stream is identical however the loop is paced or adapted.
        self._workset_scale = self._scale_for(index)
        dynamics = {}
        for name in self.workflow.dag.nodes:
            model = self.workflow.model(name)
            dyn = model.sample_dynamics(self._stage_rngs[name])
            if self._workset_scale != 1.0:
                dyn = type(dyn)(
                    workset=dyn.workset * self._workset_scale,
                    noise_z=dyn.noise_z,
                    interference=dyn.interference,
                )
            dynamics[name] = dyn
        return WorkflowRequest(
            request_id=index,
            arrival_ms=arrival_ms,
            slo_ms=self.slo_ms,
            stage_dynamics=dynamics,
            concurrency=1,
            workflow=self.workflow.name,
        )

    # -- serving ------------------------------------------------------------
    async def _serve(
        self, request: WorkflowRequest, rtt_ms: float = 0.0
    ) -> None:
        chain = self.workflow.chain
        limits = self.workflow.limits
        self.policy.begin_request(request)
        elapsed = 0.0
        stages: list[StageRecord] = []
        for fname in chain:
            size = self.policy.size_for_node(fname, request, elapsed)
            size = limits.clamp(size)
            model = self.workflow.model(fname)
            exec_ms = model.execution_time(
                size, request.dynamics_for(fname), request.concurrency
            )
            # A remote-routed request pays the cross-region hop as a
            # timeline shift (same law as the batch fleet evaluator):
            # e2e latency grows by exactly the RTT while the sizing walk
            # — like the executors in a sweep cell — never sees it.
            start = request.arrival_ms + rtt_ms + elapsed
            stages.append(
                StageRecord(
                    function=fname, size=size, start_ms=start,
                    end_ms=start + exec_ms,
                )
            )
            elapsed += exec_ms
            self._lat_windows[fname].append((exec_ms, size))
            if self.config.time_scale > 0:
                await asyncio.sleep(
                    exec_ms / 1000.0 / self.config.time_scale
                )
            else:
                # Cooperative yield: other requests advance one stage per
                # scheduler round, so the service genuinely interleaves.
                await asyncio.sleep(0)
        self.policy.end_request(request)
        outcome = RequestOutcome(
            request_id=request.request_id,
            arrival_ms=request.arrival_ms,
            slo_ms=request.slo_ms,
            stages=stages,
        )
        self._on_complete(outcome)

    def _on_complete(self, outcome: RequestOutcome) -> None:
        self.completed += 1
        self.latency.add(outcome.e2e_ms)
        self.slo.add(outcome.slo_met)
        self.cost.add(outcome.allocated_millicores)
        self.slack.add(outcome.slack)
        self.events.emit(
            "decision",
            request_id=outcome.request_id,
            e2e_ms=round(outcome.e2e_ms, 3),
            slo_met=outcome.slo_met,
            allocated_millicores=outcome.allocated_millicores,
            sizes=outcome.sizes(),
        )
        if self._drift_flagged and self.config.adapt:
            self._resynthesize()
        if self.completed % self.config.metrics_every == 0:
            self.events.emit("snapshot", **self.snapshot())

    # -- adaptation ----------------------------------------------------------
    def _drift_ratios(self) -> dict[str, float]:
        """Per-function latency multiplier vs the deployed profiles.

        Estimated from the recent (exec_ms, size) window as the mean
        ratio against the profile's median latency at the same size — a
        stand-in for the developer re-profiling on representative drifted
        inputs (paper §III-D).
        """
        ratios = {}
        for fname in self.workflow.chain:
            window = self._lat_windows[fname]
            prof = self.profiles[fname]
            samples = []
            for exec_ms, size in window:
                expected = prof.latency(50.0, size)
                if expected > 0:
                    samples.append(exec_ms / expected)
            ratios[fname] = (
                sum(samples) / len(samples) if samples else 1.0
            )
        return ratios

    def _resynthesize(self) -> None:
        self._drift_flagged = False
        if self.adapter is None:
            return
        ratios = self._drift_ratios()
        scaled = {}
        for fname in self.workflow.chain:
            prof = self.profiles[fname]
            scaled[fname] = LatencyProfile(
                function=prof.function,
                percentiles=prof.percentiles,
                limits=prof.limits,
                concurrencies=prof.concurrencies,
                table=prof.table * ratios[fname],
            )
        exploration = JANUS_EXPLORATIONS.get(
            self.config.policy, HeadExploration.HEAD_ONLY
        )
        # budget=None: the Eq. 3 feasible range is recomputed from the
        # drifted tables, which is what moves the covered budgets back
        # over the traffic (the disk memo absorbs repeat synthesis).
        new_hints = synthesize_hints(
            ProfileSet(scaled),
            self.workflow.chain,
            budget=None,
            exploration=exploration,
            workflow_name=self.workflow.name,
        )
        in_flight = max(0, len(self._in_flight) - 1)  # minus the completer
        self.adapter.replace_hints(new_hints)  # resets the supervisor
        self.profiles = ProfileSet(
            {**{f: self.profiles[f] for f in self.profiles.functions()},
             **scaled}
        )
        # Fresh windows: the next estimate (if drift persists) should be
        # measured against the tables just deployed, not diluted by
        # samples that predate the swap.
        for window in self._lat_windows.values():
            window.clear()
        self.swaps += 1
        self.events.emit(
            "swap",
            swap=self.swaps,
            completed=self.completed,
            in_flight=in_flight,
            ratios={f: round(r, 4) for f, r in ratios.items()},
        )

    # -- metrics -------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Live metrics as a plain dict (percentile_summary-compatible
        latency keys plus SLO attainment, cost and miss-rate counters)."""
        if self.completed == 0:
            raise ExperimentError("no completed requests to snapshot yet")
        out = self.latency.snapshot()
        out["arrivals"] = float(self.arrivals)
        out["completed"] = float(self.completed)
        out["in_flight"] = float(len(self._in_flight))
        out["slo_attainment"] = self.slo.rate
        out["slo_attainment_windowed"] = self.slo.windowed_rate
        out["violation_rate"] = 1.0 - self.slo.rate
        out["mean_allocated_millicores"] = self.cost.mean
        out["total_millicore_cost"] = self.cost.total
        out["mean_slack"] = self.slack.mean
        out["swaps"] = float(self.swaps)
        if self.adapter is not None:
            sup = self.adapter.supervisor
            out["miss_rate"] = sup.miss_rate
            out["cumulative_miss_rate"] = sup.cumulative_miss_rate
        else:
            out["miss_rate"] = 0.0
        if self.router is not None and self.router.routed:
            # Fleet accounting, mirroring the sweep extras' fixed keys.
            router = self.router
            out["fleet_spillovers"] = float(router.spillovers)
            out["fleet_failovers"] = float(router.failovers)
            out["fleet_remote_fraction"] = (
                (router.spillovers + router.failovers) / router.routed
            )
            out["fleet_rtt_penalty_ms"] = (
                router.rtt_total_ms / router.routed
            )
            for region, name in enumerate(self.fleet.regions):
                out[f"fleet_share_{name}"] = (
                    router.region_counts[region] / router.routed
                )
        return out

    # -- main loop -----------------------------------------------------------
    async def run(self) -> ServingReport:
        """Serve until a bound trips; returns the final report."""
        cfg = self.config
        t0 = time.perf_counter()
        start_fields: dict[str, _t.Any] = dict(
            workflow=self.workflow.name,
            policy=self.policy.name,
            source=cfg.source.label,
            slo_ms=self.slo_ms,
            seed=cfg.seed,
            time_scale=cfg.time_scale,
        )
        if self.fleet is not None:
            start_fields["fleet"] = self.fleet.label
            start_fields["routing"] = self.fleet.routing
        self.events.emit("start", **start_fields)
        if cfg.faults is not None:
            self.events.emit(
                "fault",
                fault=cfg.faults.label,
                fault_kind=cfg.faults.kind,
                effective_source=self.effective_source.label,
            )
        try:
            for arrival_ms, home in self._arrivals:
                if (
                    cfg.max_requests is not None
                    and self.arrivals >= cfg.max_requests
                ):
                    break
                if (
                    cfg.max_seconds is not None
                    and time.perf_counter() - t0 >= cfg.max_seconds
                ):
                    break
                if cfg.time_scale > 0:
                    target = t0 + arrival_ms / 1000.0 / cfg.time_scale
                    delay = target - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                rtt_ms = 0.0
                served = home
                if self.router is not None:
                    served, rtt_ms = self.router.route(home, arrival_ms)
                request = self._make_request(self.arrivals, arrival_ms)
                self.arrivals += 1
                if self.fleet is not None:
                    self.events.emit(
                        "arrival",
                        request_id=request.request_id,
                        arrival_ms=round(arrival_ms, 3),
                        workset_scale=self._workset_scale,
                        home=self.fleet.regions[home],
                        served=self.fleet.regions[served],
                        rtt_ms=rtt_ms,
                    )
                else:
                    self.events.emit(
                        "arrival",
                        request_id=request.request_id,
                        arrival_ms=round(arrival_ms, 3),
                        workset_scale=self._workset_scale,
                    )
                task = asyncio.ensure_future(self._serve(request, rtt_ms))
                self._in_flight.add(task)
                task.add_done_callback(self._in_flight.discard)
                await asyncio.sleep(0)
            # Drain: no request is dropped — every ingested arrival
            # completes, including those mid-flight during a hot swap.
            while self._in_flight:
                await asyncio.gather(*list(self._in_flight))
            snapshot = self.snapshot()
            self.events.emit("snapshot", **snapshot)
            wall = time.perf_counter() - t0
            self.events.emit(
                "stop",
                arrivals=self.arrivals,
                completed=self.completed,
                swaps=self.swaps,
                wall_seconds=round(wall, 3),
            )
            return ServingReport(
                workflow=self.workflow.name,
                policy=self.policy.name,
                source=cfg.source.label,
                arrivals=self.arrivals,
                completed=self.completed,
                dropped=self.arrivals - self.completed,
                swaps=self.swaps,
                snapshot=snapshot,
                wall_seconds=wall,
            )
        finally:
            self.events.close()


def run_reference_service(
    config: ServingConfig,
    workflow: Workflow | None = None,
    profiles: ProfileSet | None = None,
) -> ServingReport:
    """Build a :class:`ReferenceServingLoop` and run it to completion."""
    loop = ReferenceServingLoop(config, workflow=workflow, profiles=profiles)
    return asyncio.run(loop.run())
