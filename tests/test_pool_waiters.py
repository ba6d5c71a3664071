"""The event-driven capacity wait against the polling reference.

A pending pod in :class:`~repro.cluster.pool.PoolManager` is woken only at
the retry-grid instants where a retry can change something. These tests
pin that against :class:`~tests.pool_polling_reference.PollingPoolManager`,
which retries on every grid instant: on small random saturated clusters
(faults, keep-alive, warm pools, autoscaling, tenants, chain and DAG
workflows) every outcome and every pool and fault counter must match
exactly. The pinned sweeps are configurations whose same-instant ties a
registration-order wake got wrong.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.cluster.accounting import ClusterAccounting
from repro.cluster.faults import parse_fault
from repro.cluster.multi import MultiTenantPlatform, TenantJob
from repro.cluster.platform import ClusterConfig, ServerlessPlatform
from repro.cluster.pod import Pod
from repro.cluster.pool import PoolManager, _grid_after
from repro.cluster.vm import VirtualMachine
from repro.errors import ClusterError
from repro.policies.base import SizingPolicy
from repro.sim import Simulator
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.chain import chain_dag
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_function, small_limits
from tests.pool_polling_reference import PollingPoolManager, polling_pools


class NodeSizes(SizingPolicy):
    """A fixed size per node (any topology)."""

    def __init__(self, sizes: dict[str, int]) -> None:
        self.name = "node-sizes"
        self.sizes = sizes

    def size_for_node(self, node, request, elapsed_ms):
        return self.sizes[node]


def _workflow(dag_shape: bool, sigma: float, cold_ms: float, tag: str) -> Workflow:
    names = [f"{tag}{i}" for i in range(4 if dag_shape else 3)]
    models = {
        name: make_function(
            name, serial=40 + 10 * i, parallel=200 + 40 * i, sigma=sigma,
            cold_start_ms=cold_ms,
        )
        for i, name in enumerate(names)
    }
    if dag_shape:
        a, b, c, d = names
        dag = WorkflowDAG(names, [(a, b), (a, c), (b, d), (c, d)])
    else:
        dag = chain_dag(names)
    return Workflow(
        name=f"wf-{tag}", dag=dag, functions=models, slo_ms=5000.0,
        limits=small_limits(),
    )


@st.composite
def saturated_cells(draw):
    n_vms = draw(st.integers(1, 3))
    faults = draw(st.sampled_from(
        [None, "preempt@60:400", "preempt@300:150", "contention@2"]
        + (["crash@300"] if n_vms >= 2 else [])
    ))
    config = ClusterConfig(
        n_vms=n_vms,
        vm_capacity_millicores=draw(st.sampled_from([3000, 4000, 5000])),
        warm_pool_size=draw(st.integers(0, 4)),
        keepalive_ms=draw(st.sampled_from([None, 0.0, 120.0])),
        autoscale=draw(st.booleans()),
        autoscaler_interval_ms=draw(st.sampled_from([250.0, 1000.0])),
        min_warm=draw(st.integers(0, 1)),
    )
    # Round cold starts and zero-noise functions put boots, finishes and
    # arrivals on the 10 ms retry grid, where same-instant order matters;
    # a cold start shorter than the retry interval lands between grid
    # instants' retries. A timer of exactly one retry interval is the one
    # tie the waiter queue does not order (see the pool module docstring),
    # so no cold start here equals it.
    sigma = draw(st.sampled_from([0.0, 0.1]))
    cold_ms = draw(st.sampled_from([0.0, 5.0, 200.0, 500.0]))
    if draw(st.booleans()):
        arrival = ArrivalSpec(
            kind="constant",
            interval_ms=draw(st.sampled_from([0.0, 10.0, 50.0, 120.0])),
        )
    else:
        arrival = ArrivalSpec(
            kind="poisson", rate_per_s=draw(st.sampled_from([20.0, 80.0]))
        )
    tenants = []
    for tag in ("a", "b")[: draw(st.integers(1, 2))]:
        wf = _workflow(draw(st.booleans()), sigma, cold_ms, tag)
        sizes = {
            name: draw(st.sampled_from([1000, 1500, 2000, 3000]))
            for name in wf.dag.nodes
        }
        requests = generate_requests(
            wf,
            WorkloadConfig(n_requests=draw(st.integers(4, 16)), arrival=arrival),
            seed=draw(st.integers(0, 2**16)),
        )
        tenants.append((tag, wf, sizes, requests))
    return config, faults, draw(st.integers(0, 2**16)), tenants


def _observe(results) -> list:
    """Every outcome plus the platform extras, for exact comparison."""
    observed = []
    for result in results:
        extras = dict(result.extras)
        # The one counter that is meant to differ: skipped retries are
        # never simulated.
        extras.pop("events_processed")
        observed.append((result.policy_name, result.outcomes, extras))
    return observed


def _serve(config, faults, fault_seed, tenants) -> list:
    spec = parse_fault(faults) if faults else None
    if len(tenants) == 1:
        _, wf, sizes, requests = tenants[0]
        platform = ServerlessPlatform(
            wf, config, faults=spec, fault_seed=fault_seed
        )
        return _observe([platform.run(NodeSizes(sizes), requests)])
    platform = MultiTenantPlatform(
        {tag: wf for tag, wf, _, _ in tenants}, config,
        faults=spec, fault_seed=fault_seed,
    )
    results = platform.run([
        TenantJob(tag, NodeSizes(sizes), tuple(requests))
        for tag, _, sizes, requests in tenants
    ])
    return _observe(results.values())


class TestAgainstPollingReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cell=saturated_cells())
    def test_runs_match_polling_exactly(self, cell):
        new = _serve(*cell)
        with polling_pools():
            reference = _serve(*cell)
        assert new == reference

    def test_reference_actually_throttles(self):
        # Guard against a vacuous suite: the generated cells saturate.
        wf = _workflow(False, 0.0, 200.0, "a")
        requests = generate_requests(
            wf,
            WorkloadConfig(n_requests=12,
                           arrival=ArrivalSpec(kind="constant", interval_ms=10.0)),
            seed=3,
        )
        config = ClusterConfig(n_vms=1, vm_capacity_millicores=3000,
                               autoscale=False)
        cell = (config, "preempt@300:150", 1,
                [("a", wf, {n: 2000 for n in wf.dag.nodes}, requests)])
        new = _serve(*cell)
        with polling_pools():
            reference = _serve(*cell)
        assert new == reference
        assert new[0][2]["throttled"] > 100
        assert new[0][2]["preemptions"] > 0


class TestRetryGrid:
    def test_grid_after_matches_repeated_addition(self):
        starts = [0.0, 3.3, 979.9999999999999, 1019.9999999999999,
                  1023.5, 4090.123456789, 65_530.0, 131_071.9]
        for d in starts:
            for span in (0.0, 7.0, 10.0, 640.0, 1e4, 2.5e5):
                x, n = d, 0
                while x < d + span:
                    x += 10.0
                    n += 1
                assert _grid_after(d, d + span, 10.0) == (x, n)

    @pytest.mark.parametrize("pool_cls", [PoolManager, PollingPoolManager])
    def test_merged_grids_keep_the_earlier_instant_first(self, pool_cls):
        # Two pods pend on integer and just-below-integer grids; the step
        # across 1024 ms rounds 1019.9999999999999 up to 1030.0, and from
        # there on the pod that was at the earlier instant retries first,
        # although it started waiting later.
        sim = Simulator()
        pool = pool_cls(
            sim, [VirtualMachine(0, 2000)],
            {"A": make_function("A", cold_start_ms=0.0)}, warm_pool_size=0,
        )
        placed = []

        def holder():
            pod = yield from pool.acquire("A", 2000)
            pod.start_invocation()
            yield sim.timeout(1500.0)
            pod.finish_invocation()
            pool.release(pod)

        def pending(name, at):
            yield sim.timeout(at)
            pod = yield from pool.acquire("A", 2000)
            placed.append((name, sim.now))
            pod.start_invocation()
            yield sim.timeout(100.0)
            pod.finish_invocation()
            pool.release(pod)

        sim.process(holder())
        sim.process(pending("integer grid", 980.0))
        sim.process(pending("just below", 989.9999999999999))
        sim.run()
        assert placed == [("just below", 1500.0), ("integer grid", 1600.0)]
        assert pool.throttled == 52 + 61


class TestIncrementalAccounting:
    """``VM.allocated``/``busy_allocated`` are kept in step, not re-summed."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["place", "evict", "resize", "start",
                                   "finish", "down", "up"]),
                  st.integers(0, 2), st.integers(1, 6)),
        max_size=60,
    ))
    def test_counters_match_resident_pods(self, ops):
        vms = [VirtualMachine(i, 5000) for i in range(3)]
        freed = []
        for vm in vms:
            vm.on_free = lambda vm=vm: freed.append(vm.vm_id)
        accounting = ClusterAccounting(Simulator(), vms)
        pods: list[Pod] = []
        for op, vm_idx, k in ops:
            vm = vms[vm_idx]
            resident = [p for p in pods if p.vm is vm]
            before = (vm.free, vm.up)
            freed.clear()
            try:
                if op == "place":
                    pod = Pod("F", 500 * k, vm)
                    vm.place(pod)
                    pod.warm_up()
                    pods.append(pod)
                elif op == "down":
                    vm.up = False
                elif op == "up":
                    vm.up = True
                elif resident:
                    pod = resident[k % len(resident)]
                    if op == "evict" and not pod.busy:
                        vm.evict(pod)
                        pods.remove(pod)
                    elif op == "resize":
                        vm.resize_pod(pod, 500 * k)
                    elif op == "start" and not pod.busy:
                        pod.start_invocation()
                    elif op == "finish" and pod.busy:
                        pod.finish_invocation()
            except ClusterError:
                pass  # over capacity / down VM: nothing changed
            for each in vms:
                on_vm = [p for p in pods if p.vm is each]
                assert each.allocated == sum(p.size for p in on_vm)
                assert each.busy_allocated == sum(
                    p.size for p in on_vm if p.busy
                )
            assert accounting.total_allocated() == sum(p.size for p in pods)
            assert accounting.total_busy() == sum(
                p.size for p in pods if p.busy
            )
            # The wake-up hook fires exactly when usable capacity grew.
            gained = vm.free > before[0] or (vm.up and not before[1])
            assert freed == ([vm.vm_id] if gained else [])


_PINNED_SWEEP = (
    "sweep --jobs 1 --no-cache --executor cluster --workflows IA,VA "
    "--tenants 2 --slo-scales 1.0 --requests 60 --arrivals poisson@6 "
    "--policies Janus,Optimal"
).split()


@pytest.mark.parametrize("extra", [
    "--cluster-config n_vms=1,keepalive_ms=500,autoscale=false,"
    "warm_pool_size=4 --faults none,preempt@3,contention@2 --seed 11",
    "--cluster-config n_vms=1,warm_pool_size=1 --faults preempt@8:1000 "
    "--seed 5",
    "--cluster-config n_vms=1,keepalive_ms=200,warm_pool_size=3,min_warm=0 "
    "--faults preempt@5 --seed 42",
], ids=["keepalive-warm4", "warm1-preempt", "keepalive-min0"])
def test_pinned_sweeps_match_polling_bytes(extra, tmp_path):
    def report(path, *contexts):
        with contextlib.ExitStack() as stack:
            for ctx in contexts:
                stack.enter_context(ctx)
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            assert cli_main([*_PINNED_SWEEP, *extra.split(),
                             "--json", str(path)]) == 0
        return path.read_bytes()

    new = report(tmp_path / "new.json")
    reference = report(tmp_path / "reference.json", polling_pools())
    assert new == reference
