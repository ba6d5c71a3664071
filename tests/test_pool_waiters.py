"""Pending pods in the cluster DES: one FIFO queue woken at capacity changes.

A cold start on a full cluster leaves the pod pending in
:class:`~repro.cluster.pool.PoolManager`'s queue until a capacity change
wakes it. On small random saturated clusters (faults, keep-alive, warm
pools, autoscaling, tenants, chain and DAG workflows) these properties pin
the queue down:

* every request yields exactly one outcome;
* no wakeup is lost: once an instant's events have all run, no pending pod
  fits an up VM, even with every parked pod reclaimed;
* FIFO: a pending pod is never placed while an older pending pod of no
  larger size still waits;
* ``throttled`` counts the acquisitions that waited and
  ``throttled_wait_ms`` sums their waits;
* two runs give identical results.
"""

from __future__ import annotations

import contextlib
import typing as _t
from dataclasses import dataclass
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import platform as _platform
from repro.cluster.accounting import ClusterAccounting
from repro.cluster.faults import parse_fault
from repro.cluster.multi import MultiTenantPlatform, TenantJob
from repro.cluster.platform import ClusterConfig, ServerlessPlatform
from repro.cluster.pod import Pod
from repro.cluster.pool import PoolManager
from repro.cluster.vm import VirtualMachine
from repro.errors import ClusterError, SimulationError
from repro.policies.base import SizingPolicy
from repro.sim import Event, Simulator
from repro.traces.workload import ArrivalSpec, WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.chain import chain_dag
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_function, small_limits


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
    # arrivals on shared instants, where same-instant order matters.
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


@dataclass(eq=False)
class _Pending:
    """One pending pod as the observed pool saw it."""

    seq: int
    size: int
    since: float
    placed_at: float | None = None


class _ObservedPool(PoolManager):
    """A pool that logs every pending pod and checks FIFO placement."""

    def __init__(self, sim, *args, **kwargs) -> None:
        super().__init__(sim, *args, **kwargs)
        sim.pools.append(self)
        self.pending: list[_Pending] = []
        self.violations: list[str] = []

    def _wait(self, function, size):
        event = super()._wait(function, size)
        entry = _Pending(len(self.pending), size, self.sim.now)
        self.pending.append(entry)
        event.add_callback(lambda _ev: self._placed(entry))
        return event

    def _placed(self, entry: _Pending) -> None:
        entry.placed_at = self.sim.now
        for older in self.pending[: entry.seq]:
            if older.placed_at is None and older.size <= entry.size:
                self.violations.append(
                    f"pod {entry.seq} ({entry.size} mc) placed at "
                    f"{self.sim.now} before pod {older.seq} ({older.size} mc)"
                )


class _SteppedSimulator(Simulator):
    """Runs one event at a time and, once an instant's events have all
    run, asserts that no pending pod could be placed. (A lost wakeup can
    leave a run with a periodic autoscaler spinning forever, so it fails
    at once.)"""

    __slots__ = ("pools",)

    def __init__(self) -> None:
        super().__init__()
        self.pools: list[_ObservedPool] = []

    def run(self, until=None):
        if not isinstance(until, Event):
            return super().run(until)
        while not until.processed:
            if not self._heap:
                raise SimulationError("ran out of events")
            self.step()
            if self.peek() > self.now:
                self._check_instant()
        if not until.ok:
            raise until.value
        return until.value

    def _check_instant(self) -> None:
        for pool in self.pools:
            parked: dict[int, int] = {}
            for entries in pool._warm.values():
                for entry in entries:
                    vm_id = entry.pod.vm.vm_id
                    parked[vm_id] = parked.get(vm_id, 0) + entry.pod.size
            for waiter in pool._waiters:
                for vm in pool.vms:
                    assert not (
                        vm.up
                        and waiter.size <= vm.free + parked.get(vm.vm_id, 0)
                    ), f"{waiter.size} mc pending at {self.now}, room on VM {vm.vm_id}"


@contextlib.contextmanager
def observed_platforms() -> _t.Iterator[list[_SteppedSimulator]]:
    """Build every cluster platform on a stepped simulator with an observed
    pool; yields the simulators as they are built."""
    sims: list[_SteppedSimulator] = []

    def make_sim() -> _SteppedSimulator:
        sims.append(_SteppedSimulator())
        return sims[-1]

    with mock.patch.object(_platform, "Simulator", make_sim), \
            mock.patch.object(_platform, "PoolManager", _ObservedPool):
        yield sims


def _observe(results) -> list:
    """Every outcome plus the platform extras, for exact comparison."""
    return [
        (result.policy_name, result.outcomes, result.extras)
        for result in results
    ]


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


_SATURATED = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPendingPodProperties:
    @_SATURATED
    @given(cell=saturated_cells())
    def test_pending_pods_fifo_without_lost_wakeups(self, cell):
        with observed_platforms() as sims:
            observed = _serve(*cell)
        # Every request yields exactly one outcome.
        served = sorted(
            sorted(o.request_id for o in outcomes) for _, outcomes, _ in observed
        )
        wanted = sorted(
            sorted(r.request_id for r in requests) for *_, requests in cell[3]
        )
        assert served == wanted
        # Platforms build their substrate once on construction and afresh
        # per run; the last one served.
        sim = sims[-1]
        (pool,) = sim.pools
        assert pool.violations == []
        # ``throttled`` counts the acquisitions that waited and
        # ``throttled_wait_ms`` sums their waits, in placement order. The
        # tenants of a multi-tenant run share the pool, so every result
        # carries the same counters.
        placed = sorted(
            pool.pending, key=lambda p: (p.placed_at, pool.pending.index(p))
        )
        assert all(p.placed_at is not None for p in pool.pending)
        for _, _, extras in observed:
            assert extras["throttled"] == len(pool.pending)
            assert extras["throttled_wait_ms"] == pool.throttled_wait_ms
        assert pool.throttled_wait_ms == sum(
            p.placed_at - p.since for p in placed
        )

    @_SATURATED
    @given(cell=saturated_cells())
    def test_runs_are_deterministic(self, cell):
        assert _serve(*cell) == _serve(*cell)

    def test_cells_actually_throttle(self):
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
        with observed_platforms() as sims:
            ((_, outcomes, extras),) = _serve(*cell)
        assert len(outcomes) == 12
        assert sims[-1].pools[0].violations == []
        assert extras["throttled"] >= 11
        assert extras["throttled_wait_ms"] > 0
        assert extras["preemptions"] > 0


class TestQueueOrder:
    @staticmethod
    def _pool(capacity: int) -> tuple[Simulator, PoolManager]:
        sim = Simulator()
        pool = PoolManager(
            sim, [VirtualMachine(0, capacity)],
            {"A": make_function("A", cold_start_ms=0.0)}, warm_pool_size=0,
        )
        return sim, pool

    def test_oldest_pending_pod_is_placed_first(self):
        sim, pool = self._pool(3000)
        placed = []

        def holder():
            pod = yield from pool.acquire("A", 3000)
            pod.start_invocation()
            yield sim.timeout(100.0)
            pod.finish_invocation()
            pool.release(pod)

        def pending(name, at, size):
            yield sim.timeout(at)
            pod = yield from pool.acquire("A", size)
            placed.append((name, sim.now))
            pod.start_invocation()
            yield sim.timeout(50.0)
            pod.finish_invocation()
            pool.release(pod)

        sim.process(holder())
        sim.process(pending("first", 10.0, 2000))
        sim.process(pending("second", 20.0, 2000))
        # A smaller pod behind them may take what the oldest leaves free.
        sim.process(pending("small", 30.0, 1000))
        sim.run()
        assert placed == [("first", 100.0), ("small", 100.0), ("second", 150.0)]
        assert pool.throttled == 3
        assert pool.throttled_wait_ms == (100 - 10) + (100 - 30) + (150 - 20)

    def test_cores_freed_and_taken_in_one_event_stay_taken(self):
        # A chain releasing one stage's pod and acquiring the next stage's
        # in the same event keeps the cores: the wake runs after it.
        sim, pool = self._pool(2000)
        order = []

        def chain():
            for _ in range(2):
                pod = yield from pool.acquire("A", 2000)
                order.append(("chain", sim.now))
                pod.start_invocation()
                yield sim.timeout(100.0)
                pod.finish_invocation()
                pool.release(pod)  # warm_pool_size=0: evicted at once

        def pending():
            yield sim.timeout(10.0)
            yield from pool.acquire("A", 2000)
            order.append(("pending", sim.now))

        sim.process(chain())
        sim.process(pending())
        sim.run()
        assert order == [("chain", 0.0), ("chain", 100.0), ("pending", 200.0)]
        assert (pool.throttled, pool.throttled_wait_ms) == (1, 190.0)


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
