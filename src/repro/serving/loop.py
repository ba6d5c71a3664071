"""The always-on serving loop: ingest, size, observe, adapt.

:class:`ServingLoop` serves an *unbounded* arrival stream through the
analytic kernel (:meth:`~repro.runtime.executor.AnalyticExecutor.
_serve_batch`), with bounded-memory metrics (:mod:`repro.metrics.
streaming`) instead of retained outcome lists, and with the paper's §III-D
regeneration loop running online.

**The order.** Requests interleave in a fixed wavefront. Each admitted
request advances one stage per round: round ``n`` admits request ``n``,
completes request ``n - L`` (``L`` is the chain length), then decides
stage ``L-1, ..., 0`` of requests ``n-L+1, ..., n``. Once admissions stop,
the rounds go on without them until every admitted request has completed,
so none is dropped. Every decision is a hint lookup, and the adapter's
supervisor accounts the lookups in this order.

**Swap at the next completion.** When the supervisor's sliding miss-rate
window crosses the threshold, the loop acts at the next completion: it
re-profiles from its recent latency window, re-synthesises hints (through
the :func:`~repro.synthesis.generator.synthesize_hints` disk memo) and
hot-swaps the adapter's tables. Every decision from that round on uses the
new tables; requests in flight continue from their next stage.

**Blocks and rollback.** Nothing else couples requests, so the loop serves
admitted requests ahead, in blocks of ``DEFAULT_STREAM_CHUNK``, through
the kernel under the live tables with the supervisor detached. It then
replays the block in wavefront order: the hits into the supervisor, the
completions into the metrics, the events into the log. A swap rolls back
only the decisions of later rounds and serves them again under the new
tables; requests mid-walk resume from their next stage (optimistic
execution with rollback, as in Jefferson's Time Warp, TOPLAS 1985).
Policies that are not ``vector_safe`` are served one request per block.

**Columns end to end.** A block is drawn as columns: each stage's
dynamics come from that stage's stream in one
:meth:`~repro.functions.model.FunctionModel.sample_dynamics_many` call
(the same scalar draws, in the same order, as one request at a time) into
a :class:`~repro.workflow.request.RequestBatch`, which the kernel reads
without building a request object. Admission stays per round (pacing, the
wall-clock bound and the fleet router are per arrival), but completions
are accounted per *span*, the rounds between two snapshot or swap
boundaries: e2e latency, allocation, SLO verdict and slack are computed as
columns in the scalar float order and folded by the estimators'
``add_many`` (the same recurrences as ``add``). The span's arrival and
decision events enter the :class:`~repro.serving.events.EventLog` as
columns, so on the unpaced ``serve-drift`` run (20,000 requests) no
per-request dict is ever built unless the events are read or written.
The replay went from ~1.3 s to ~0.7 s on a 2-vCPU VM, with the same
snapshot bytes.

**Pacing.** ``time_scale=0`` serves as fast as the machine allows and
replays bit-identically for a fixed seed. ``time_scale > 0`` paces
admissions against the wall clock (1.0 = real time, 60.0 = a minute of
trace per second); the decisions are the unpaced ones, so a paced run
differs from an unpaced one only in wall-clock fields.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import typing as _t
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..adapter.supervisor import HitMissSupervisor
from ..cluster.faults import FaultSpec, compile_region_failover
from ..errors import ExperimentError
from ..fleet.routing import StreamRouter
from ..fleet.runner import region_arrival
from ..fleet.topology import FleetConfig
from ..metrics.streaming import StreamingMoments, StreamingSummary, WindowedRate
from ..policies.registry import JANUS_EXPLORATIONS, POLICIES
from ..profiling.profiles import LatencyProfile, ProfileSet
from ..profiling.profiler import profile_workflow
from ..rng import RngFactory, child_seed
from ..runtime.executor import DEFAULT_STREAM_CHUNK, AnalyticExecutor
from ..runtime.results import OutcomeColumns
from ..scenarios.registry import scenario_workflow
from ..synthesis.generator import HeadExploration, synthesize_hints
from ..traces.workload import ArrivalSpec
from ..workflow.catalog import Workflow
from ..workflow.request import RequestBatch
from .events import EventLog
from .sources import arrival_source, fleet_arrival_source

__all__ = ["ServingConfig", "ServingLoop", "ServingReport", "run_service"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving run.

    ``source`` is an :class:`ArrivalSpec` (build one with
    :func:`repro.scenarios.matrix.parse_arrival` from tokens like
    ``diurnal@8`` or ``replay@trace.jsonl``). ``time_scale=0`` disables
    wall-clock pacing — the stream is served as fast as the machine
    allows, which is what bounded CI runs want. ``workset_schedule``
    deterministically drifts the workload mid-run: ``((after_n, scale),
    ...)`` multiplies drawn working sets by ``scale`` from request index
    ``after_n`` on — the forcing function for adaptation tests.
    """

    workflow: str = "IA"
    policy: str = "Janus"
    source: ArrivalSpec = field(
        default_factory=lambda: ArrivalSpec(kind="poisson", rate_per_s=50.0)
    )
    seed: int = 0
    samples: int = 2000
    slo_scale: float = 1.0
    max_requests: int | None = None
    max_seconds: float | None = None
    time_scale: float = 0.0
    metrics_every: int = 500
    percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    slo_window: int = 1000
    miss_threshold: float = 0.01
    miss_window: int = 200
    min_samples: int = 50
    adapt: bool = True
    latency_window: int = 512
    workset_schedule: tuple[tuple[int, float], ...] = ()
    event_log: str | None = None
    #: Arrival-side fault injection: a ``storm`` :class:`FaultSpec`
    #: superimposes a flash crowd on the declared ``source`` (multiplied
    #: rate inside a window around the diurnal peak), and a
    #: ``region-failover`` spec darkens one fleet region for a window of
    #: the first source period (fleet runs only). Cluster-side kinds
    #: (preempt/crash/straggler/contention) need the DES platform — run
    #: them through a sweep with ``--executor cluster`` instead.
    faults: FaultSpec | None = None
    #: Serve a multi-region fleet instead of one stream: per-region
    #: phase-offset sources heap-merge into one arrival stream, each
    #: arrival is routed by the fleet's :class:`~repro.fleet.routing
    #: .RoutingPolicy` under the live occupancy proxy, and remote-served
    #: requests pay the topology RTT on their latency. Fleet counters
    #: (spillovers/failovers/shares) join every metrics snapshot.
    fleet: FleetConfig | None = None

    def __post_init__(self) -> None:
        if self.max_requests is not None and self.max_requests < 1:
            raise ExperimentError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ExperimentError(
                f"max_seconds must be > 0, got {self.max_seconds}"
            )
        if self.max_requests is None and self.max_seconds is None:
            raise ExperimentError(
                "an unbounded run needs an explicit opt-in: set "
                "max_requests and/or max_seconds (use max_seconds=inf "
                "for a true always-on service)"
            )
        if self.time_scale < 0:
            raise ExperimentError(
                f"time_scale must be >= 0, got {self.time_scale}"
            )
        if self.metrics_every < 1:
            raise ExperimentError(
                f"metrics_every must be >= 1, got {self.metrics_every}"
            )
        if self.slo_scale <= 0:
            raise ExperimentError(
                f"slo_scale must be > 0, got {self.slo_scale}"
            )
        if self.latency_window < 1:
            raise ExperimentError(
                f"latency_window must be >= 1, got {self.latency_window}"
            )
        if self.slo_window < 1:
            raise ExperimentError(
                f"slo_window must be >= 1, got {self.slo_window}"
            )
        if not self.percentiles or not all(
            0.0 < p < 100.0 for p in self.percentiles
        ):
            raise ExperimentError(
                f"percentiles must be non-empty and each in (0, 100), got "
                f"{self.percentiles}"
            )
        if not 0.0 < self.miss_threshold <= 1.0:
            raise ExperimentError(
                f"miss_threshold must be in (0, 1], got {self.miss_threshold}"
            )
        if self.miss_window < 1:
            raise ExperimentError(
                f"miss_window must be >= 1, got {self.miss_window}"
            )
        if not 1 <= self.min_samples <= self.miss_window:
            raise ExperimentError(
                f"min_samples must be in [1, miss_window={self.miss_window}] "
                f"(the drift trigger could never fire otherwise), got "
                f"{self.min_samples}"
            )
        last = -1
        for after_n, scale in self.workset_schedule:
            if after_n <= last:
                raise ExperimentError(
                    f"workset_schedule indices must ascend: "
                    f"{self.workset_schedule}"
                )
            if scale <= 0:
                raise ExperimentError(
                    f"workset scale must be > 0, got {scale}"
                )
            last = after_n
        if self.faults is not None and self.faults.kind == "region-failover":
            if self.fleet is None or len(self.fleet.regions) < 2:
                raise ExperimentError(
                    f"fault {self.faults.label!r} needs a fleet with >= 2 "
                    f"regions to drain to — pass fleet=FleetConfig(...) "
                    f"(CLI: --fleet regions=3,...)"
                )
        elif self.faults is not None and self.faults.kind != "storm":
            raise ExperimentError(
                f"serving injects arrival-side faults only (storm, plus "
                f"region-failover on a fleet); fault kind "
                f"{self.faults.kind!r} needs the DES cluster platform — "
                f"run it through a sweep with --executor cluster"
            )


@dataclass(frozen=True)
class ServingReport:
    """What a bounded serving run amounted to."""

    workflow: str
    policy: str
    source: str
    arrivals: int
    completed: int
    dropped: int
    swaps: int
    snapshot: dict[str, float]
    wall_seconds: float


class _Ahead:
    """Requests served ahead of the replay: ``base <= k < end``.

    Per request: its columns (a :class:`RequestBatch`), its home region
    and, once admitted, its cross-region RTT; per request and stage, the
    kernel's size, start offset, duration and hint hit.
    """

    def __init__(
        self, nodes: tuple[str, ...], stages: int, with_hits: bool
    ) -> None:
        empty = np.empty((0, len(nodes)), dtype=np.float64)
        self.base = self.end = 0
        self.batch = RequestBatch(
            nodes, [], [], [], [], empty, empty, empty
        )
        self.homes = np.empty(0, dtype=np.int64)
        self.rtts = np.empty(0, dtype=np.float64)
        self.sizes = np.empty((0, stages), dtype=np.int64)
        self.offsets = np.empty((0, stages), dtype=np.float64)
        self.durations = np.empty((0, stages), dtype=np.float64)
        self.hits = np.empty((0, stages), dtype=bool) if with_hits else None

    def keep(self, lo: int, hi: int) -> None:
        """Drop every request outside ``[lo, hi)``."""
        a, b = lo - self.base, hi - self.base
        self.base = lo
        self.batch = self.batch[a:b]
        self.end = lo + len(self.batch)
        self.homes = self.homes[a:b]
        self.rtts = self.rtts[a:b]
        self.sizes = self.sizes[a:b]
        self.offsets = self.offsets[a:b]
        self.durations = self.durations[a:b]
        if self.hits is not None:
            self.hits = self.hits[a:b]

    def append(
        self,
        batch: RequestBatch,
        homes: np.ndarray,
        columns: OutcomeColumns,
        hits: np.ndarray | None,
    ) -> None:
        self.batch = self.batch.concatenate(batch)
        self.end += len(batch)
        self.homes = np.concatenate([self.homes, homes])
        self.rtts = np.concatenate([self.rtts, np.zeros(len(batch))])
        self.sizes = np.concatenate([self.sizes, columns.sizes])
        self.offsets = np.concatenate([self.offsets, columns.offsets])
        self.durations = np.concatenate([self.durations, columns.durations])
        if self.hits is not None:
            self.hits = np.concatenate([self.hits, hits])

    def splice(
        self,
        first: int,
        stage: int,
        columns: OutcomeColumns,
        hits: np.ndarray | None,
    ) -> None:
        """Overwrite stages ``stage..`` of requests ``first..`` (as many as
        ``columns`` holds) with a fresh serve."""
        rows = slice(first - self.base, first - self.base + columns.n)
        self.sizes[rows, stage:] = columns.sizes
        self.offsets[rows, stage:] = columns.offsets
        self.durations[rows, stage:] = columns.durations
        if self.hits is not None:
            self.hits[rows, stage:] = hits


class ServingLoop:
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
        self._executor = AnalyticExecutor(self.workflow)

        # Drift detection runs on the policy's adapter when it has one
        # (the Janus family); other policies serve without adaptation.
        self.adapter = getattr(self.policy, "adapter", None)
        if self.adapter is not None:
            self.adapter.supervisor = HitMissSupervisor(
                miss_threshold=config.miss_threshold,
                min_samples=config.min_samples,
                window=config.miss_window,
            )

        # A storm fault reshapes the declared source into its flash-crowd
        # counterpart; everything downstream (labels in the start event,
        # the report) keeps the declared source so runs stay comparable.
        self.effective_source = config.source
        if config.faults is not None and config.faults.kind == "storm":
            from ..scenarios.matrix import storm_arrival

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
        self._nodes = tuple(self.workflow.dag.nodes)
        self._stage_rngs = {
            name: factory.stream("dynamics", name)
            for name in self._nodes
        }
        # workset_schedule as a step function of the request index.
        self._drift_after = np.asarray(
            [after_n for after_n, _ in config.workset_schedule],
            dtype=np.int64,
        )
        self._drift_scales = (1.0, *(s for _, s in config.workset_schedule))

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
        # Admitted and not yet done; a request counts until its completion
        # (metrics, swap, snapshot) is over.
        self._in_flight = 0

        # Replay state.
        self._stages = len(self.workflow.chain)
        self._ahead = _Ahead(
            self._nodes, self._stages, with_hits=self.adapter is not None
        )
        self._open = True
        self._exhausted = False
        #: Requests whose arrival event is in the log.
        self._logged = 0
        #: ``(served region, rtt_ms)`` of fleet arrivals not yet logged.
        self._routes: list[tuple[int, float]] = []
        #: Round whose completion swaps the tables, once the supervisor
        #: has notified and until it happens.
        self._swap_round: int | None = None
        #: Rounds before this one are in the latency windows.
        self._windowed = 0

    # -- request construction ----------------------------------------------
    def _scale_index(self, ids: np.ndarray) -> np.ndarray:
        """Per request index, the position in ``_drift_scales`` of its
        workset scale: the last schedule step at or before it, else 1.0."""
        return np.searchsorted(self._drift_after, ids, side="right")

    def _make_batch(self, first: int, arrivals: np.ndarray) -> RequestBatch:
        # Mirrors :func:`repro.traces.workload.generate_requests`: each
        # stage's dynamics are drawn request by request from that stage's
        # stream, so the stream is identical however the loop is paced,
        # adapted or blocked.
        n, width = len(arrivals), len(self._nodes)
        ids = np.arange(first, first + n, dtype=np.int64)
        scales = np.asarray(self._drift_scales, dtype=np.float64)[
            self._scale_index(ids)
        ]
        worksets = np.empty((n, width), dtype=np.float64, order="F")
        noise = np.empty_like(worksets)
        for j, name in enumerate(self._nodes):
            drawn, noise[:, j] = self.workflow.model(
                name
            ).sample_dynamics_many(self._stage_rngs[name], n)
            worksets[:, j] = drawn * scales
        return RequestBatch(
            self._nodes,
            ids,
            arrivals,
            np.full(n, self.slo_ms),
            np.ones(n, dtype=np.int64),
            worksets,
            noise,
            np.ones_like(worksets),
            workflow=self.workflow.name,
        )

    # -- serving ahead -----------------------------------------------------
    def _serve(
        self,
        requests: RequestBatch,
        start: int = 0,
        offsets: np.ndarray | None = None,
    ) -> tuple[OutcomeColumns, np.ndarray | None]:
        """One kernel call under the live tables; the hint hits come back
        per request and stage instead of reaching the supervisor."""
        if self.adapter is None:
            return self._executor._serve_batch(
                self.policy, requests, start, offsets
            ), None
        with self.adapter.detached() as captured:
            columns = self._executor._serve_batch(
                self.policy, requests, start, offsets
            )
        return columns, np.column_stack([hits for _, hits in captured])

    def _serve_ahead(self) -> None:
        """Pull and serve the next block of arrivals."""
        ahead = self._ahead
        ahead.keep(self.completed, ahead.end)
        want = DEFAULT_STREAM_CHUNK if self.policy.vector_safe else 1
        if self.config.max_requests is not None:
            want = min(want, self.config.max_requests - ahead.end)
        pulled = list(itertools.islice(self._arrivals, want))
        if len(pulled) < want:
            self._exhausted = True
        if not pulled:
            return
        arrivals = np.fromiter(
            (t for t, _ in pulled), dtype=np.float64, count=len(pulled)
        )
        homes = np.fromiter(
            (home for _, home in pulled), dtype=np.int64, count=len(pulled)
        )
        batch = self._make_batch(ahead.end, arrivals)
        ahead.append(batch, homes, *self._serve(batch))

    def _serve_again(self, round_: int) -> None:
        """Roll back every decision of ``round_`` and later: serve it again
        under the tables just deployed."""
        ahead = self._ahead
        # Requests mid-walk resume from the stage this round decides.
        for k in range(round_ - self._stages + 1, min(round_, ahead.end)):
            stage, row = round_ - k, k - ahead.base
            columns, hits = self._serve(
                ahead.batch[row : row + 1],
                start=stage,
                offsets=ahead.offsets[row, stage : stage + 1],
            )
            ahead.splice(k, stage, columns, hits)
        if round_ < ahead.end:
            columns, hits = self._serve(ahead.batch[round_ - ahead.base :])
            ahead.splice(round_, 0, columns, hits)

    # -- replay --------------------------------------------------------------
    async def _admit(self, t0: float) -> bool:
        """Admit the next request, or close admissions when a bound trips
        or the source runs dry; returns whether one was admitted."""
        cfg = self.config
        ahead = self._ahead
        index = self.arrivals
        if (
            cfg.max_requests is not None and index >= cfg.max_requests
        ) or (
            cfg.max_seconds is not None
            and time.perf_counter() - t0 >= cfg.max_seconds
        ):
            return self._close()
        if index == ahead.end and not self._exhausted:
            self._serve_ahead()
        if index == ahead.end:
            return self._close()
        row = index - ahead.base
        arrival_ms = ahead.batch.arrivals.item(row)
        if cfg.time_scale > 0:
            target = t0 + arrival_ms / 1000.0 / cfg.time_scale
            delay = target - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        if self.router is not None:
            served, rtt_ms = self.router.route(
                ahead.homes.item(row), arrival_ms
            )
            ahead.rtts[row] = rtt_ms
            self._routes.append((served, rtt_ms))
        self.arrivals += 1
        self._in_flight += 1
        return True

    def _close(self) -> bool:
        self._open = False
        # Requests served ahead but never admitted are forgotten.
        self._ahead.keep(self._ahead.base, self.arrivals)
        return False

    def _complete_span(self, first: int, stop: int) -> None:
        """Log the arrivals and account the completions of rounds
        ``[first, stop)``; the last completion may swap and snapshot.

        Round ``n`` admits request ``n`` and completes request ``n - L``;
        its arrival event comes before its decision event. No completion
        but the last one can swap or snapshot (the span and swap
        boundaries of :meth:`_replay` see to that), so the metrics fold
        each column at once.
        """
        ahead, stages = self._ahead, self._stages
        base = ahead.base
        blocks = []
        if self.arrivals > self._logged:
            rows = slice(self._logged - base, self.arrivals - base)
            ids = np.arange(self._logged, self.arrivals, dtype=np.int64)
            self._logged = self.arrivals
            fields: dict[str, _t.Any] = {
                "request_id": ids,
                "arrival_ms": [
                    round(t, 3) for t in ahead.batch.arrivals[rows].tolist()
                ],
                "workset_scale": [
                    self._drift_scales[i]
                    for i in self._scale_index(ids).tolist()
                ],
            }
            if self.fleet is not None:
                regions = self.fleet.regions
                fields["home"] = [
                    regions[h] for h in ahead.homes[rows].tolist()
                ]
                fields["served"] = [regions[s] for s, _ in self._routes]
                fields["rtt_ms"] = [rtt for _, rtt in self._routes]
                self._routes.clear()
            blocks.append(("arrival", 2 * ids, fields))
        done = self.completed
        stop_k = max(done, min(stop - stages, self.arrivals))
        if stop_k > done:
            rows = slice(done - base, stop_k - base)
            arrivals = ahead.batch.arrivals[rows]
            # A remote-routed request pays the cross-region hop as a
            # timeline shift (same law as the batch fleet evaluator): e2e
            # latency grows by exactly the RTT while the sizing walk never
            # sees it.
            e2e_ms = (
                arrivals
                + ahead.rtts[rows]
                + ahead.offsets[rows, -1]
                + ahead.durations[rows, -1]
                - arrivals
            )
            sizes = ahead.sizes[rows].copy()
            allocated = sizes.sum(axis=1)
            slo_met = e2e_ms <= self.slo_ms
            self.latency.add_many(e2e_ms)
            self.slo.add_many(slo_met)
            self.cost.add_many(allocated)
            self.slack.add_many(1.0 - e2e_ms / self.slo_ms)
            ids = np.arange(done, stop_k, dtype=np.int64)
            blocks.append((
                "decision",
                2 * (ids + stages) + 1,
                {
                    "request_id": ids,
                    "e2e_ms": [round(x, 3) for x in e2e_ms.tolist()],
                    "slo_met": slo_met,
                    "allocated_millicores": allocated,
                    "sizes": sizes,
                },
            ))
        if blocks:
            self.events.extend(*blocks)
        if stop_k == done:
            return
        self.completed = stop_k
        # Every completion but the last is over.
        self._in_flight -= stop_k - done - 1
        round_ = stop_k - 1 + stages
        if round_ == self._swap_round:
            self._swap_round = None
            self._extend_windows(round_)
            self._resynthesize()
            self._serve_again(round_)
        if self.completed % self.config.metrics_every == 0:
            self.events.emit("snapshot", **self.snapshot())
        self._in_flight -= 1

    def _record(self, first: int, stop: int) -> None:
        """Account the hint lookups of rounds ``[first, stop)`` in
        wavefront order; a notification schedules the swap."""
        if self.adapter is None or stop <= first:
            return
        ahead = self._ahead
        rounds = np.arange(first, stop)[:, None]
        # Round r decides requests r-L+1..r, i.e. stages L-1..0.
        ks = rounds + np.arange(1 - self._stages, 1)
        valid = (ks >= 0) & (ks < ahead.end)
        ks, rounds = ks[valid], np.broadcast_to(rounds, valid.shape)[valid]
        fired = self.adapter.supervisor.record_many(
            ahead.hits[ks - ahead.base, rounds - ks]
        )
        if fired is not None and self.config.adapt:
            # The next completion is in the following round, or in round L
            # if nothing has completed yet.
            self._swap_round = max(int(rounds[fired]) + 1, self._stages)

    def _extend_windows(self, stop: int) -> None:
        """Bring the latency windows up to the decisions of rounds
        before ``stop``."""
        ahead = self._ahead
        first, self._windowed = self._windowed, stop
        for j, window in enumerate(self._lat_windows.values()):
            lo, hi = max(first - j, 0), min(stop - j, ahead.end)
            lo = max(lo, hi - self.config.latency_window)
            if hi > lo:
                rows = slice(lo - ahead.base, hi - ahead.base)
                window.extend(
                    zip(
                        ahead.durations[rows, j].tolist(),
                        ahead.sizes[rows, j].tolist(),
                    )
                )

    def _span_end(self, first: int) -> int:
        """Rounds ``[first, end)`` whose lookups can be accounted at once:
        none of them but ``first`` snapshots the supervisor, and every
        request they decide has been served ahead."""
        every = self.config.metrics_every
        low = max(first + 1 - self._stages, 0)
        end = ((low + every) // every) * every - 1 + self._stages
        if self._open:
            return min(end, self._ahead.end)
        return min(end, self.arrivals + self._stages)

    async def _replay(self, t0: float) -> None:
        """Replay rounds until admissions close and every request is done.

        Each round's events (admission, completion) come before its
        lookups. A span accounts the lookups of all its rounds first, then
        replays their events; no round after the first reads the
        supervisor, except the one that swaps, which ends the span.
        """
        supervisor = self.adapter.supervisor if self.adapter else None
        first, replayed = 0, False
        while self._open or self.completed < self.arrivals:
            if not replayed:
                if self._open:
                    await self._admit(t0)
                self._complete_span(first, first + 1)
            end = self._span_end(first)
            saved = supervisor.save() if supervisor is not None else None
            swap_round = self._swap_round
            self._record(first, end)
            nxt, replayed = end, False
            for round_ in range(first + 1, end):
                closed = self._open and not await self._admit(t0)
                if closed:
                    # A wall-clock bound closed admissions mid-span: the
                    # lookups of requests never admitted were accounted.
                    if supervisor is not None:
                        supervisor.restore(saved)
                    self._swap_round = swap_round
                    self._record(first, round_)
                if closed or round_ == self._swap_round:
                    nxt, replayed = round_, True
                    break
            # The completions of the span's rounds, the breaking one
            # included.
            self._complete_span(first + 1, nxt + replayed)
            self._extend_windows(nxt)
            first = nxt

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
        in_flight = max(0, self._in_flight - 1)  # minus the completer
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
        out["in_flight"] = float(self._in_flight)
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
            await self._replay(t0)
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


def run_service(
    config: ServingConfig,
    workflow: Workflow | None = None,
    profiles: ProfileSet | None = None,
) -> ServingReport:
    """Build a :class:`ServingLoop` and run it to completion."""
    loop = ServingLoop(config, workflow=workflow, profiles=profiles)
    return asyncio.run(loop.run())
