"""Per-request execution state and outcome records."""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import FunctionModelError, WorkflowError
from ..functions.model import InvocationDynamics
from ..types import Millicores, Milliseconds

__all__ = ["StageRecord", "WorkflowRequest", "RequestBatch", "RequestOutcome"]


@dataclass(frozen=True)
class StageRecord:
    """What happened in one stage of one request."""

    function: str
    size: Millicores
    start_ms: Milliseconds
    end_ms: Milliseconds
    cold_start_ms: Milliseconds = 0.0

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise WorkflowError(
                f"stage {self.function}: end {self.end_ms} < start {self.start_ms}"
            )

    @property
    def execution_ms(self) -> Milliseconds:
        """Wall-clock stage duration (includes any cold start)."""
        return self.end_ms - self.start_ms


@dataclass
class WorkflowRequest:
    """One triggering event of a workflow, with its pre-drawn dynamics.

    The per-stage :class:`InvocationDynamics` are sampled when the request is
    created so that every sizing policy replays identical randomness (common
    random numbers) and the Optimal oracle can evaluate counterfactual
    allocations.
    """

    request_id: int
    arrival_ms: Milliseconds
    slo_ms: Milliseconds
    stage_dynamics: dict[str, InvocationDynamics]
    concurrency: int = 1
    #: Name of the workflow this request triggers. Informational (empty
    #: for hand-built requests): executors resolve stages through their
    #: own workflow, but recording a stream back out as a trace
    #: (:func:`repro.traces.trace_file.trace_from_requests`) needs the
    #: attribution — especially for merged multi-tenant/multi-workflow
    #: streams.
    workflow: str = ""

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise WorkflowError(f"SLO must be > 0, got {self.slo_ms}")
        if self.concurrency < 1:
            raise WorkflowError(f"concurrency must be >= 1, got {self.concurrency}")
        if not self.stage_dynamics:
            raise WorkflowError("request must carry dynamics for >= 1 stage")

    def dynamics_for(self, function: str) -> InvocationDynamics:
        """Dynamics of ``function`` for this request."""
        try:
            return self.stage_dynamics[function]
        except KeyError:
            raise WorkflowError(
                f"request {self.request_id} has no dynamics for {function!r}"
            )


def _first(values: np.ndarray, bad: np.ndarray) -> _t.Any:
    return values[bad].flat[0].item()


class RequestBatch(_t.Sequence[WorkflowRequest]):
    """A batch of requests as columns, the form the analytic kernel reads.

    ``ids``, ``arrivals``, ``slos`` and ``concurrency`` hold one value per
    request; ``worksets``, ``noise`` and ``interference`` hold one per
    request and node, shaped ``(n, len(nodes))`` with each node's column
    contiguous. Construction runs the checks of :class:`WorkflowRequest`
    and :class:`~repro.functions.model.InvocationDynamics` over the
    columns, raising the same errors.

    The batch is a sequence of :class:`WorkflowRequest` rows, built on
    first access: only per-request policy hooks and the Optimal oracle
    read them. A batch gathered from request objects
    (:meth:`from_requests`) yields those objects. A slice is a batch over
    views of the same columns.
    """

    def __init__(
        self,
        nodes: _t.Sequence[str],
        ids: np.ndarray,
        arrivals: np.ndarray,
        slos: np.ndarray,
        concurrency: np.ndarray,
        worksets: np.ndarray,
        noise: np.ndarray,
        interference: np.ndarray,
        workflow: str = "",
    ) -> None:
        self.nodes = tuple(nodes)
        if not self.nodes:
            raise WorkflowError("request must carry dynamics for >= 1 stage")
        self.ids = np.asarray(ids, dtype=np.int64)
        self.arrivals = np.asarray(arrivals, dtype=np.float64)
        self.slos = np.asarray(slos, dtype=np.float64)
        self.concurrency = np.asarray(concurrency, dtype=np.int64)
        shape = (len(self.ids), len(self.nodes))
        self.worksets = np.asfortranarray(worksets, dtype=np.float64)
        self.noise = np.asfortranarray(noise, dtype=np.float64)
        self.interference = np.asfortranarray(interference, dtype=np.float64)
        for column in (self.arrivals, self.slos, self.concurrency):
            if column.shape != shape[:1]:
                raise WorkflowError(
                    f"request columns of {column.shape} for {shape[0]} "
                    f"requests"
                )
        for column in (self.worksets, self.noise, self.interference):
            if column.shape != shape:
                raise WorkflowError(
                    f"dynamics columns of {column.shape}, want {shape}"
                )
        bad = self.worksets <= 0
        if bad.any():
            raise FunctionModelError(
                f"workset must be > 0: {_first(self.worksets, bad)}"
            )
        bad = self.interference < 1.0
        if bad.any():
            raise FunctionModelError(
                f"interference must be >= 1: {_first(self.interference, bad)}"
            )
        bad = self.slos <= 0
        if bad.any():
            raise WorkflowError(
                f"SLO must be > 0, got {_first(self.slos, bad)}"
            )
        bad = self.concurrency < 1
        if bad.any():
            raise WorkflowError(
                f"concurrency must be >= 1, got "
                f"{_first(self.concurrency, bad)}"
            )
        self.workflow = workflow
        self._rows: list[WorkflowRequest | None] = [None] * shape[0]

    @classmethod
    def from_requests(
        cls, requests: _t.Sequence[WorkflowRequest], nodes: _t.Sequence[str]
    ) -> "RequestBatch":
        """Gather request objects' columns for ``nodes``; rows are the
        objects themselves."""
        if isinstance(requests, RequestBatch):
            return requests
        n, nodes = len(requests), tuple(nodes)
        worksets = np.empty((n, len(nodes)), dtype=np.float64, order="F")
        noise = np.empty_like(worksets)
        interference = np.empty_like(worksets)
        for j, node in enumerate(nodes):
            dyns = [r.dynamics_for(node) for r in requests]
            worksets[:, j] = [d.workset for d in dyns]
            noise[:, j] = [d.noise_z for d in dyns]
            interference[:, j] = [d.interference for d in dyns]
        batch = cls(
            nodes,
            np.asarray([r.request_id for r in requests], dtype=np.int64),
            np.asarray([r.arrival_ms for r in requests], dtype=np.float64),
            np.asarray([r.slo_ms for r in requests], dtype=np.float64),
            np.asarray([r.concurrency for r in requests], dtype=np.int64),
            worksets,
            noise,
            interference,
        )
        batch._rows = list(requests)
        return batch

    def concatenate(self, other: "RequestBatch") -> "RequestBatch":
        """This batch followed by ``other`` (same nodes)."""
        if other.nodes != self.nodes:
            raise WorkflowError(
                f"cannot join batches over {self.nodes} and {other.nodes}"
            )
        out = self._view(slice(None))
        for name in ("ids", "arrivals", "slos", "concurrency"):
            setattr(out, name, np.concatenate(
                [getattr(self, name), getattr(other, name)]
            ))
        for name in ("worksets", "noise", "interference"):
            # Joined node-major, so each node's column stays contiguous.
            setattr(out, name, np.concatenate(
                [getattr(self, name).T, getattr(other, name).T], axis=1
            ).T)
        out._rows = self._rows + other._rows
        return out

    def _view(self, index: slice) -> "RequestBatch":
        out = object.__new__(RequestBatch)
        out.nodes, out.workflow = self.nodes, self.workflow
        for name in (
            "ids", "arrivals", "slos", "concurrency",
            "worksets", "noise", "interference",
        ):
            setattr(out, name, getattr(self, name)[index])
        out._rows = self._rows[index]
        return out

    def __len__(self) -> int:
        return len(self._rows)

    @_t.overload
    def __getitem__(self, index: int) -> WorkflowRequest: ...

    @_t.overload
    def __getitem__(self, index: slice) -> "RequestBatch": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._view(index)
        row = self._rows[index]
        if row is None:
            i = range(len(self._rows))[index]
            row = self._rows[i] = WorkflowRequest(
                request_id=self.ids.item(i),
                arrival_ms=self.arrivals.item(i),
                slo_ms=self.slos.item(i),
                stage_dynamics={
                    node: InvocationDynamics(
                        workset=self.worksets.item(i, j),
                        noise_z=self.noise.item(i, j),
                        interference=self.interference.item(i, j),
                    )
                    for j, node in enumerate(self.nodes)
                },
                concurrency=self.concurrency.item(i),
                workflow=self.workflow,
            )
        return row

    def __iter__(self) -> _t.Iterator[WorkflowRequest]:
        rows = self._rows
        for i, row in enumerate(rows):
            if row is None:
                self[i]  # builds the row into rows
        return iter(rows)

    def column(self, node: str) -> int:
        """Index of ``node``'s column in the dynamics arrays."""
        try:
            return self.nodes.index(node)
        except ValueError:
            rid = self.ids.item(0) if len(self.ids) else None
            raise WorkflowError(
                f"request {rid} has no dynamics for {node!r}"
            ) from None


@dataclass
class RequestOutcome:
    """Completed request: timings, allocations and SLO verdict."""

    request_id: int
    arrival_ms: Milliseconds
    slo_ms: Milliseconds
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def e2e_ms(self) -> Milliseconds:
        """End-to-end latency from arrival to last stage completion."""
        if not self.stages:
            return 0.0
        return self.stages[-1].end_ms - self.arrival_ms

    @property
    def slo_met(self) -> bool:
        """True when the end-to-end latency is within the SLO."""
        return self.e2e_ms <= self.slo_ms

    @property
    def slack(self) -> float:
        """Paper §II-A: ``1 - l / T`` (can be negative on violation)."""
        return 1.0 - self.e2e_ms / self.slo_ms

    @property
    def allocated_millicores(self) -> Millicores:
        """Sum of per-stage allocations — the paper's CPU consumption metric."""
        return int(sum(s.size for s in self.stages))

    @property
    def millicore_ms(self) -> float:
        """Resource-time product (millicore-milliseconds) across stages."""
        return float(sum(s.size * s.execution_ms for s in self.stages))

    def sizes(self) -> list[Millicores]:
        """Per-stage allocations in execution order."""
        return [s.size for s in self.stages]

    def stage_map(self) -> dict[str, StageRecord]:
        """Stage records keyed by function name."""
        return {s.function: s for s in self.stages}


def total_allocated(outcomes: _t.Iterable[RequestOutcome]) -> float:
    """Mean allocated millicores across outcomes (paper Fig. 5 metric)."""
    outcomes = list(outcomes)
    if not outcomes:
        return 0.0
    return sum(o.allocated_millicores for o in outcomes) / len(outcomes)
