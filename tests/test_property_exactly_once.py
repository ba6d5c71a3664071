"""Exactly-once service across every executor.

A metamorphic property over the whole serving stack: relabel a request
stream's ids with arbitrary distinct integers (unordered, with gaps) and
every executor — the analytic kernel, its DAG form, the batching front end,
the DES cluster and the multi-tenant DES cluster — must serve each
relabelled id exactly once, on chain and DAG workflows alike, whether the
policy decides per request or for a whole column at once.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.multi import MultiTenantPlatform, TenantJob
from repro.cluster.platform import ClusterConfig, ServerlessPlatform
from repro.policies.base import SizingPolicy
from repro.policies.dag import DagFixedPolicy
from repro.runtime.batching import BatchingExecutor
from repro.runtime.dag_executor import DagAnalyticExecutor
from repro.runtime.executor import AnalyticExecutor
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.chain import chain_dag
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_function, small_limits


class ScalarSizes(SizingPolicy):
    """A fixed size per node, decided one request at a time."""

    def __init__(self, sizes: dict[str, int]) -> None:
        self.name = "scalar-sizes"
        self.sizes = sizes

    def size_for_node(self, node, request, elapsed_ms):
        return self.sizes[node]


def _workflow(dag_shape: bool) -> Workflow:
    names = [f"f{i}" for i in range(4 if dag_shape else 3)]
    models = {
        name: make_function(name, serial=40 + 10 * i, parallel=200 + 40 * i,
                            cold_start_ms=100.0)
        for i, name in enumerate(names)
    }
    if dag_shape:
        a, b, c, d = names
        dag = WorkflowDAG(names, [(a, b), (a, c), (b, d), (c, d)])
    else:
        dag = chain_dag(names)
    return Workflow(name="wf", dag=dag, functions=models, slo_ms=3000.0,
                    limits=small_limits())


def _analytic(wf, policy, requests):
    return AnalyticExecutor(wf).run(policy, requests).outcomes


def _dag_analytic(wf, policy, requests):
    return DagAnalyticExecutor(wf).run(policy, requests).outcomes


def _batching(wf, policy, requests):
    return BatchingExecutor(wf, max_batch=3, max_wait_ms=50.0).run(
        policy, requests
    ).outcomes


# One small VM keeps pods pending for capacity.
_CLUSTER = ClusterConfig(n_vms=1, vm_capacity_millicores=4000)


def _cluster(wf, policy, requests):
    return ServerlessPlatform(wf, _CLUSTER).run(policy, requests).outcomes


def _multi_tenant(wf, policy, requests):
    # The stream split between two tenants of one workflow on a shared
    # cluster; both tenants' outcomes together must cover it.
    platform = MultiTenantPlatform({"x": wf, "y": wf}, _CLUSTER)
    results = platform.run([
        TenantJob("x", policy, tuple(requests[0::2])),
        TenantJob("y", policy, tuple(requests[1::2])),
    ])
    return [o for result in results.values() for o in result.outcomes]


EXECUTORS = {
    "analytic": _analytic,
    "dag-analytic": _dag_analytic,
    "batching": _batching,
    "cluster": _cluster,
    "multi-tenant": _multi_tenant,
}


@pytest.mark.parametrize("dag_shape", [False, True], ids=["chain", "dag"])
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    vectorised=st.booleans(),
    n=st.integers(2, 12),
    rate=st.sampled_from([5.0, 40.0, 400.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_every_request_is_served_exactly_once(
    executor, dag_shape, vectorised, n, rate, seed, data
):
    wf = _workflow(dag_shape)
    sizes = {
        node: data.draw(st.sampled_from([1000, 2000, 3000]))
        for node in wf.dag.nodes
    }
    policy = DagFixedPolicy("fixed", sizes) if vectorised else ScalarSizes(sizes)
    stream = generate_requests(
        wf,
        WorkloadConfig(n_requests=n,
                       arrival=ArrivalSpec(kind="poisson", rate_per_s=rate)),
        seed=seed,
    )
    ids = data.draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n,
                             unique=True))
    relabelled = [
        dataclasses.replace(request, request_id=new)
        for request, new in zip(stream, ids)
    ]
    outcomes = EXECUTORS[executor](wf, policy, relabelled)
    assert collections.Counter(o.request_id for o in outcomes) == (
        collections.Counter(ids)
    )
