"""Trace-driven (analytic) execution backend.

Serves a request stream against a workflow under a sizing policy. Every
request's stage randomness was drawn when the stream was generated, so the
backend is deterministic given (workflow, requests) and every policy sees
identical dynamics — the apples-to-apples comparison the paper's evaluation
relies on.

One batched kernel, :meth:`AnalyticExecutor._serve_batch`, serves every
analytic run and the always-on serving loop (:mod:`repro.serving.loop`,
which also resumes requests mid-walk). It walks ``(nodes, predecessor
indices)`` in execution order and evaluates each node across the *whole*
batch with one vectorised policy lookup (:meth:`~repro.policies.base.
SizingPolicy.sizes_for_node`) and one array latency-model evaluation. A
node starts when its last predecessor ends (the elementwise maximum of
their end offsets; zero for a root), so the same walk serves chains and
branching DAGs; stage records are materialised column-wise
(:class:`~repro.runtime.results.OutcomeColumns`).
Policies whose decisions depend on call interleaving across requests set
``vector_safe = False``: they run through the same kernel one request at a
time, since a batch of one *is* request-major order. The scalar
specification the kernel is pinned against lives in the test suite.

This backend models per-request latency exactly and resource consumption as
the per-stage allocations (the paper's CPU-millicore metric); queueing and
co-location effects are the domain of the DES cluster backend
(:mod:`repro.cluster`). Registered as ``"analytic"`` — the auto-selected
backend for chain workflows. It walks ``workflow.chain``, so on a branching
workflow it serves only the critical path (the documented chain
approximation); the ``"dag"`` subclass walks the full graph.
"""

from __future__ import annotations

import functools
import itertools
import typing as _t

import numpy as np

from ..errors import ExperimentError
from ..metrics.streaming import StreamingMoments, StreamingSummary
from ..policies.base import SizingPolicy
from ..workflow.catalog import Workflow
from ..workflow.request import RequestBatch, WorkflowRequest
from .registry import register_executor
from .results import (
    ColumnarRunResult,
    OutcomeColumns,
    RunResult,
    StreamingRunResult,
    collect_policy_extras,
)

__all__ = ["AnalyticExecutor", "DEFAULT_STREAM_CHUNK"]

#: Requests per batch on the streaming path: large enough to amortise the
#: per-stage vector dispatch, small enough to keep memory O(1) in the
#: stream length.
DEFAULT_STREAM_CHUNK = 2048


def _run_hooks(
    policy: SizingPolicy,
    requests: _t.Sequence[WorkflowRequest],
    hook: str,
) -> None:
    """Fire begin/end hooks for a batch, skipping un-overridden no-ops."""
    if getattr(type(policy), hook) is getattr(SizingPolicy, hook):
        return
    bound = getattr(policy, hook)
    for request in requests:
        bound(request)


@register_executor("analytic")
class AnalyticExecutor:
    """Replays request streams under a policy, node-batched across requests."""

    def __init__(self, workflow: Workflow, clamp_sizes: bool = True) -> None:
        self.workflow = workflow
        self.clamp_sizes = bool(clamp_sizes)

    def _walk(self) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
        """``(nodes, predecessor indices)`` in execution order: the chain,
        each stage waiting on the one before it."""
        nodes = tuple(self.workflow.chain)
        return nodes, tuple((j - 1,) if j else () for j in range(len(nodes)))

    # -- the kernel --------------------------------------------------------
    def _serve_batch(
        self,
        policy: SizingPolicy,
        requests: _t.Sequence[WorkflowRequest],
        start: int = 0,
        offsets: np.ndarray | None = None,
    ) -> OutcomeColumns:
        """Serve a batch node by node with vector policy/model evaluation.

        The kernel reads columns only: a plain request sequence is gathered
        into a :class:`~repro.workflow.request.RequestBatch` once, on
        entry. Assumes the policy is bound. Hooks fire begin-all /
        node-major / end-all; for ``vector_safe`` policies this is
        indistinguishable from request-major order, and a one-request
        batch *is* that order.

        ``start`` and ``offsets`` resume a path walk: the batch has already
        run nodes ``< start`` (so no begin hooks fire) and spent
        ``offsets[i]`` ms of request ``i`` on them. The result covers
        nodes ``start..`` only.
        """
        nodes, preds = self._walk()
        is_path = all(p == ((j - 1,) if j else ()) for j, p in enumerate(preds))
        if start and not is_path:
            raise ExperimentError("only a path walk can resume mid-walk")
        limits = self.workflow.limits
        batch = RequestBatch.from_requests(requests, nodes)
        n = len(batch)
        if not start:
            _run_hooks(policy, batch, "begin_request")
        width = len(nodes) - start
        sizes = np.empty((n, width), dtype=np.int64)
        start_offsets = np.empty((n, width), dtype=np.float64)
        durations = np.empty((n, width), dtype=np.float64)
        end_offsets: dict[int, np.ndarray] = {}
        for j in range(start, len(nodes)):
            fname = nodes[j]
            if j == start and offsets is not None:
                start_offset = np.asarray(offsets, dtype=np.float64)
            elif j > start and preds[j]:
                start_offset = functools.reduce(
                    np.maximum, [end_offsets[p] for p in preds[j]]
                )
            else:
                start_offset = np.zeros(n, dtype=np.float64)
            ks = np.asarray(
                policy.sizes_for_node(fname, batch, start_offset),
                dtype=np.int64,
            )
            if self.clamp_sizes:
                ks = limits.clamp_array(ks)
            else:
                on_grid = limits.contains_array(ks)
                if not bool(on_grid.all()):
                    bad = int(ks[np.flatnonzero(~on_grid)[0]])
                    raise ExperimentError(
                        f"{policy.name}: size {bad} off-grid for stage {fname}"
                    )
            c = batch.column(fname)
            exec_ms = self.workflow.model(fname).execution_times(
                ks,
                batch.worksets[:, c],
                batch.noise[:, c],
                batch.interference[:, c],
                batch.concurrency,
            )
            sizes[:, j - start] = ks
            start_offsets[:, j - start] = start_offset
            durations[:, j - start] = exec_ms
            end_offsets[j] = start_offset + exec_ms
        _run_hooks(policy, batch, "end_request")
        return OutcomeColumns(
            request_ids=batch.ids,
            arrivals=batch.arrivals,
            slos=batch.slos,
            functions=nodes[start:],
            sizes=sizes,
            offsets=start_offsets,
            durations=durations,
            # Off a path, stages are reported in completion order.
            branched=not is_path,
        )

    # -- public API --------------------------------------------------------
    def run(
        self, policy: SizingPolicy, requests: _t.Sequence[WorkflowRequest]
    ) -> RunResult:
        """Serve a whole stream and collect a :class:`RunResult`."""
        if not requests:
            raise ExperimentError("request stream is empty")
        policy.bind(self.workflow)
        if not policy.vector_safe:
            outcomes = [
                outcome
                for request in requests
                for outcome in self._serve_batch(policy, [request]).to_outcomes()
            ]
            return RunResult(
                policy_name=policy.name,
                outcomes=outcomes,
                extras=collect_policy_extras(policy),
            )
        return ColumnarRunResult(
            policy_name=policy.name,
            columns=self._serve_batch(policy, requests),
            extras=collect_policy_extras(policy),
        )

    def run_streaming(
        self,
        policy: SizingPolicy,
        requests: _t.Iterable[WorkflowRequest],
        chunk_size: int = DEFAULT_STREAM_CHUNK,
    ) -> StreamingRunResult:
        """Serve a stream folding each outcome into streaming estimators.

        The bounded-memory path for very large ``n_requests``: requests are
        served in fixed-size chunks through the kernel (O(chunk) memory,
        vector throughput; chunks of one for policies that are not
        ``vector_safe``) and only the streaming aggregates survive.
        Estimators consume per-request values in arrival order, so the
        result does not depend on the chunk size. Latency percentiles in
        the result are P² estimates (see :mod:`repro.metrics.streaming`).
        """
        if chunk_size < 1:
            raise ExperimentError(f"chunk_size must be >= 1, got {chunk_size}")
        policy.bind(self.workflow)
        if not policy.vector_safe:
            chunk_size = 1
        latency = StreamingSummary((50.0, 99.0))
        cost = StreamingMoments()
        slack = StreamingMoments()
        violations = 0
        n = 0
        iterator = iter(requests)
        while chunk := list(itertools.islice(iterator, chunk_size)):
            columns = self._serve_batch(policy, chunk)
            latency.add_many(columns.e2e_ms())
            cost.add_many(columns.allocated())
            slack.add_many(columns.slacks())
            violations += int(np.count_nonzero(~columns.slo_met()))
            n += len(chunk)
        if n == 0:
            raise ExperimentError("request stream is empty")
        return StreamingRunResult(
            policy_name=policy.name,
            n_requests=n,
            mean_allocated=cost.mean,
            p50_e2e_ms=latency.percentile(50.0),
            p99_e2e_ms=latency.percentile(99.0),
            violation_rate=violations / n,
            mean_slack=slack.mean,
            extras=collect_policy_extras(policy),
        )
