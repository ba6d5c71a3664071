"""Warm-pod pool manager (Fission PoolManager-style, paper §V-A).

The paper deploys functions with Fission's PoolManager "due to its excellent
performance against cold starts": a pool of pre-booted generic pods is
specialised on demand, so most invocations find a warm instance. We model
this as a per-function warm pool with configurable pre-provisioned size;
when the pool is empty a new pod is created and pays the function's cold
start before serving.

Keep-alive (paper §VII second future-work item — the interplay between
runtime adaptation and function caching): parked pods expire after
``keepalive_ms`` of idleness, trading cold-start probability against the
idle millicore-time their reservations waste. The pool accounts that idle
cost explicitly (``idle_millicore_ms``) so caching strategies can be
compared quantitatively.

A cold start on a full cluster leaves the pod pending, as on a saturated
Kubernetes node. Pending pods wait in one FIFO queue. Capacity changes
while pods wait (an eviction, a resize down, a VM back up, a pod parked and
so open to reclamation) schedule a zero-delay wake, one at a time. It
runs after the event that made the change, so a chain that frees cores
and takes them again for its next stage in one event keeps them. The wake
then walks the queue oldest first: each pod that fits, after reclaiming
parked pods for it, is placed at once; the others keep their places. ``throttled`` counts
the waits (one per throttled acquisition, plus one whenever a boot lost to
a VM failure has to wait again), and ``throttled_wait_ms`` sums them.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import ClusterError
from ..functions.model import FunctionModel
from ..sim.engine import Simulator
from ..sim.events import Event
from ..types import Millicores
from .pod import Pod, PodState
from .vm import VirtualMachine

__all__ = ["PoolManager"]


@dataclass
class _Parked:
    """A warm pod sitting in the pool since ``parked_at``."""

    pod: Pod
    parked_at: float


@dataclass(eq=False)
class _Waiter:
    """A pod pending since ``since``; ``event`` fires with the VM it may
    be placed on."""

    function: str
    size: Millicores
    event: Event
    since: float


class PoolManager:
    """Creates, warms, parks and reclaims function pods across VMs."""

    def __init__(
        self,
        sim: Simulator,
        vms: _t.Sequence[VirtualMachine],
        functions: _t.Mapping[str, FunctionModel],
        warm_pool_size: int = 1,
        colocate_same_function: bool = True,
        keepalive_ms: float | None = None,
    ) -> None:
        if not vms:
            raise ClusterError("pool manager needs at least one VM")
        if warm_pool_size < 0:
            raise ClusterError(f"warm pool size must be >= 0: {warm_pool_size}")
        if keepalive_ms is not None and keepalive_ms < 0:
            raise ClusterError(f"keepalive must be >= 0: {keepalive_ms}")
        self.sim = sim
        self.vms = list(vms)
        self.functions = dict(functions)
        self.warm_pool_size = int(warm_pool_size)
        self.colocate_same_function = bool(colocate_same_function)
        self.keepalive_ms = keepalive_ms
        self._warm: dict[str, list[_Parked]] = {name: [] for name in functions}
        self.cold_starts = 0
        self.warm_hits = 0
        self.reclaimed = 0
        self.expired = 0
        self.throttled = 0
        #: Summed milliseconds of the ``throttled`` waits.
        self.throttled_wait_ms = 0.0
        #: Idle millicore-milliseconds spent by parked reservations.
        self.idle_millicore_ms = 0.0
        #: Installed by a :class:`~repro.cluster.faults.FaultInjector` so
        #: boot-interruption evictions land in the run's fault counters.
        self.fault_stats = None
        #: Pending pods, oldest first, and the scheduled wake, if any.
        self._waiters: list[_Waiter] = []
        self._wake: Event | None = None
        for vm in self.vms:
            vm.on_free = self._capacity_changed

    # -- placement policy -------------------------------------------------
    def _pick_vm(self, function: str, size: Millicores) -> VirtualMachine | None:
        """Choose a VM for a new pod, or ``None`` when nothing fits.

        Mirrors production packing (§II-B): prefer VMs already hosting the
        same function (tenant affinity), then best-fit by free capacity.
        """
        candidates = [vm for vm in self.vms if vm.fits(size)]
        if not candidates:
            return None
        if self.colocate_same_function:
            same = [
                vm for vm in candidates
                if vm.colocated_count(function, busy_only=False) > 0
            ]
            if same:
                return min(same, key=lambda vm: vm.free)
        return min(candidates, key=lambda vm: vm.free)

    # -- parked-pod lifecycle ------------------------------------------------
    def _unpark(self, function: str, idx: int) -> Pod:
        """Remove a parked pod, accounting its idle reservation time."""
        entry = self._warm[function].pop(idx)
        self.idle_millicore_ms += entry.pod.size * (
            self.sim.now - entry.parked_at
        )
        return entry.pod

    def _purge_expired(self, function: str) -> None:
        """Kill parked pods idle beyond the keep-alive TTL."""
        if self.keepalive_ms is None:
            return
        parked = self._warm[function]
        for idx in range(len(parked) - 1, -1, -1):
            if self.sim.now - parked[idx].parked_at > self.keepalive_ms:
                pod = self._unpark(function, idx)
                pod.vm.evict(pod)
                pod.kill()
                self.expired += 1

    def _reclaim_idle(self, needed: Millicores) -> None:
        """Evict parked warm pods until some VM can fit ``needed``.

        Idle-pod reclamation under capacity pressure — what a kubelet does
        before refusing a pending pod.
        """
        for function in self._warm:
            while self._warm[function]:
                if any(vm.fits(needed) for vm in self.vms):
                    return
                pod = self._unpark(function, 0)
                pod.vm.evict(pod)
                pod.kill()
                self.reclaimed += 1

    # -- pod acquisition -----------------------------------------------------
    def acquire(self, function: str, size: Millicores):
        """Process: obtain a ready pod of ``function`` resized to ``size``.

        Yields simulation events; returns a WARM pod. Warm-pool hits resize
        the parked pod in place; otherwise a cold start is paid.
        """
        if function not in self.functions:
            raise ClusterError(f"unknown function {function!r}")
        self._purge_expired(function)
        warm = self._warm[function]
        # A parked pod is only reusable when its VM has headroom for the
        # requested size (upsizing may exceed the VM under multi-tenant
        # pressure); scan newest-first for one that fits.
        for idx in range(len(warm) - 1, -1, -1):
            pod = warm[idx].pod
            if pod.vm.up and pod.vm.free + pod.size >= size:
                self._unpark(function, idx)
                self.warm_hits += 1
                self._resize(pod, size)
                return pod
        # Cold path: boot a fresh pod. Under capacity pressure, reclaim idle
        # pods first, then wait for running invocations to release cores
        # (the pod stays "pending", as on a saturated Kubernetes node). A VM
        # failing mid-boot loses the boot: evict and start over elsewhere.
        self.cold_starts += 1
        model = self.functions[function]
        while True:
            vm = self._pick_vm(function, size)
            if vm is None:
                self._reclaim_idle(size)
                vm = self._pick_vm(function, size)
            if vm is None:
                vm = yield self._wait(function, size)
            pod = Pod(function, size, vm)
            vm.place(pod)
            yield self.sim.timeout(model.cold_start_ms)
            if not vm.up:
                vm.evict(pod)
                pod.kill()
                if self.fault_stats is not None:
                    self.fault_stats.evictions += 1
                continue
            pod.warm_up()
            return pod

    # -- pending pods --------------------------------------------------------
    def _wait(self, function: str, size: Millicores) -> Event:
        """Queue a pending pod; the event fires with a VM that fits it."""
        self.throttled += 1
        waiter = _Waiter(function, size, self.sim.event(), self.sim.now)
        self._waiters.append(waiter)
        return waiter.event

    def _capacity_changed(self) -> None:
        """Hook: a VM gained capacity or a pod parked.

        Schedules one wake behind the running event, which may still take
        the capacity back (a chain frees cores and takes them again for its
        next stage in one event).
        """
        if self._waiters and self._wake is None:
            self._wake = self.sim.event()
            self._wake.callbacks = [self._woken]
            self._wake.succeed()

    def _woken(self, _event: Event) -> None:
        """Place every pending pod that fits, oldest first.

        A pod that does not fit has reclaimed every parked pod, so the rest
        of the walk can only take capacity: the capacity changes it makes
        need no further wake.
        """
        now = self.sim.now
        waiting = []
        for waiter in self._waiters:
            self._reclaim_idle(waiter.size)
            vm = self._pick_vm(waiter.function, waiter.size)
            if vm is None:
                waiting.append(waiter)
            else:
                self.throttled_wait_ms += now - waiter.since
                # Synchronous, so the pod is placed before the next waiter
                # looks for room.
                waiter.event.succeed_now(vm)
        self._waiters = waiting
        self._wake = None

    def _resize(self, pod: Pod, size: Millicores) -> None:
        if pod.size != size:
            pod.vm.resize_pod(pod, size)

    def release(self, pod: Pod) -> None:
        """Return a pod after an invocation; park or reclaim it."""
        if pod.state is not PodState.WARM:
            raise ClusterError(
                f"released pod {pod.pod_id} must be WARM, is {pod.state.value}"
            )
        if not pod.vm.up:
            # The VM failed in the same instant the invocation finished
            # (the finish won the race); never park onto a down VM.
            pod.vm.evict(pod)
            pod.kill()
            if self.fault_stats is not None:
                self.fault_stats.evictions += 1
            return
        self._purge_expired(pod.function)
        warm = self._warm[pod.function]
        keepalive_disabled = self.keepalive_ms is not None and self.keepalive_ms == 0
        if len(warm) < self.warm_pool_size and not keepalive_disabled:
            warm.append(_Parked(pod=pod, parked_at=self.sim.now))
            # A pending pod may reclaim it.
            self._capacity_changed()
        else:
            pod.vm.evict(pod)
            pod.kill()

    # -- fault handling ------------------------------------------------------
    def evict_parked_on(self, vm: VirtualMachine) -> int:
        """Kill every parked pod on a failed ``vm``; returns the count.

        Called by the fault injector when a VM goes down — parked warm
        state on that VM is lost (later acquisitions will cold-start
        elsewhere), which is exactly the cold-start-storm mechanism a real
        preemption triggers.
        """
        evicted = 0
        for function in self._warm:
            parked = self._warm[function]
            for idx in range(len(parked) - 1, -1, -1):
                if parked[idx].pod.vm is vm:
                    pod = self._unpark(function, idx)
                    vm.evict(pod)
                    pod.kill()
                    evicted += 1
        return evicted

    # -- introspection ------------------------------------------------------
    def warm_count(self, function: str) -> int:
        """Parked warm pods for ``function``."""
        return len(self._warm.get(function, []))

    @property
    def cold_start_rate(self) -> float:
        """Fraction of acquisitions that paid a cold start."""
        total = self.cold_starts + self.warm_hits
        return self.cold_starts / total if total else 0.0
