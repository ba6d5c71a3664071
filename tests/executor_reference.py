"""Reference walk for the analytic executors: one request at a time.

The executable specification of the batched kernel both analytic
executors run (:meth:`repro.runtime.executor.AnalyticExecutor._serve_batch`),
kept outside the package: the property suites and the ``analytic``
benchmark section pin the kernel against it. Each node starts when its
last predecessor ends (time zero for a root), is sized by the policy's
scalar :meth:`size_for_node` with that elapsed time, and ends ``exec_ms``
after it starts. A chain is the walk where every stage's one predecessor
is the stage before it.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ExperimentError
from repro.policies.base import SizingPolicy
from repro.workflow.catalog import Workflow
from repro.workflow.request import RequestOutcome, StageRecord, WorkflowRequest


def reference_walk(
    workflow: Workflow,
    policy: SizingPolicy,
    request: WorkflowRequest,
    dag: bool = False,
    clamp_sizes: bool = True,
) -> RequestOutcome:
    """Serve ``request``; ``dag`` walks the full graph, else the chain.

    Stages come back in completion order (a stable sort, so ties keep walk
    order); on a chain that is the walk order itself. The policy must be
    bound (``policy.bind(workflow)``).
    """
    if dag:
        nodes = workflow.dag.nodes
        preds = {name: workflow.dag.predecessors(name) for name in nodes}
    else:
        nodes = workflow.chain
        preds = {name: nodes[j - 1 : j] for j, name in enumerate(nodes)}
    limits = workflow.limits
    policy.begin_request(request)
    end_offsets: dict[str, float] = {}
    stages: list[StageRecord] = []
    for fname in nodes:
        start_offset = max((end_offsets[p] for p in preds[fname]), default=0.0)
        size = policy.size_for_node(fname, request, start_offset)
        if clamp_sizes:
            size = limits.clamp(size)
        elif not limits.contains(size):
            raise ExperimentError(
                f"{policy.name}: size {size} off-grid for stage {fname}"
            )
        exec_ms = workflow.model(fname).execution_time(
            size, request.dynamics_for(fname), request.concurrency
        )
        start = request.arrival_ms + start_offset
        stages.append(
            StageRecord(
                function=fname, size=size, start_ms=start, end_ms=start + exec_ms
            )
        )
        end_offsets[fname] = start_offset + exec_ms
    policy.end_request(request)
    stages.sort(key=lambda s: s.end_ms)
    return RequestOutcome(
        request_id=request.request_id,
        arrival_ms=request.arrival_ms,
        slo_ms=request.slo_ms,
        stages=stages,
    )


def reference_outcomes(
    workflow: Workflow,
    policy: SizingPolicy,
    requests: _t.Iterable[WorkflowRequest],
    dag: bool = False,
    clamp_sizes: bool = True,
) -> list[RequestOutcome]:
    """:func:`reference_walk` over a stream, binding ``policy`` once."""
    policy.bind(workflow)
    return [
        reference_walk(workflow, policy, r, dag=dag, clamp_sizes=clamp_sizes)
        for r in requests
    ]
