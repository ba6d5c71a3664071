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

Pending pods (a cold start on a full cluster) retry placement on a fixed
``retry_interval_ms`` grid, the way a kubelet re-queues an unschedulable
pod. A retry that cannot change anything — no up VM has room for the pod
and no parked pod could be reclaimed for it — only counts as one more
``throttled`` interval, so it is never simulated: pending pods sharing grid
instants form a :class:`_Phase`, and capacity changes (evictions, resizes
down, parking, VM recovery) schedule one wake event at the first grid
instant where a retry can matter. The wake retries every pod due at that
instant in the order the retries would have run, so results are identical
to retrying on every grid instant. The one order this does not reproduce
is that of a timer of exactly one retry interval firing on a grid instant
(a 10 ms cold start or invocation): it is taken to come after the retries
scheduled in the same earlier instant as itself.
"""

from __future__ import annotations

import functools
import math
import typing as _t
from dataclasses import dataclass

from ..errors import ClusterError
from ..functions.model import FunctionModel
from ..sim.engine import Simulator
from ..sim.events import Event, Timeout
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
    """A pending pod; ``event`` fires with the VM it may be placed on."""

    function: str
    size: Millicores
    event: Event


def _grid_after(d: float, t: float, step: float) -> tuple[float, int]:
    """``d`` advanced by repeated ``d += step`` until ``d >= t``, and the
    number of steps.

    Bit-identical to the plain loop. With a whole-number ``step`` (and
    times below 2**53), every grid point short of the next power of two is
    an exact float, so a run of steps there collapses into one exact
    addition; only a step across a power of two can round. Long waits then
    cost O(powers of two crossed), not O(steps).
    """
    n = 0
    jump = float(step).is_integer()
    while d < t:
        if jump and t - d > 64 * step:
            top = math.ldexp(1.0, math.frexp(d)[1])
            # Whole steps landing strictly below both ``top`` and ``t``.
            m = int((min(top, t) - d) / step) - 1
            if m > 0:
                d += step * m
                n += m
                continue
        d += step
        n += 1
    return d, n


def _crossings(d: float, until: float, step: float) -> dict[float, tuple[float, float]]:
    """For each power of two the grid from ``d`` crosses on its way to
    ``until``: the grid points just below and just above it."""
    out = {}
    while True:
        top = math.ldexp(1.0, math.frexp(d)[1])
        below, _ = _grid_after(d, top - step, step)
        while below + step < top:
            below += step
        if below + step > until:
            return out
        d = below + step
        out[top] = (below, d)


class _Phase:
    """Pending pods that retry at the same grid instants.

    ``due`` is the next instant whose retries have not run; the instant
    after it is ``due + interval`` in floats, exactly as a sleeping retry
    loop computes it from ``origin``. Pods that start waiting *at* ``due``
    retry from the next instant on, before the due retries (``ahead``) or
    after them (``behind``), depending on which came first.
    """

    __slots__ = ("origin", "due", "members", "ahead", "behind", "wake")

    def __init__(self, due: float) -> None:
        self.origin = due
        self.due = due
        self.members: list[_Waiter] = []
        self.ahead: list[_Waiter] = []
        self.behind: list[_Waiter] = []
        #: The scheduled wake event at ``due``, if any.
        self.wake: Event | None = None

    def advance(self, due: float) -> None:
        """Move on to the grid instant ``due``; late joiners take their
        places in line."""
        if self.ahead or self.behind:
            self.members = self.ahead + self.members + self.behind
            self.ahead = []
            self.behind = []
        self.due = due


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
        #: Idle millicore-milliseconds spent by parked reservations.
        self.idle_millicore_ms = 0.0
        #: Retry grid of a pending pod on a full cluster: ``throttled``
        #: counts one per waited interval, and a pending pod starts at the
        #: first grid instant after capacity frees up.
        self.retry_interval_ms = 10.0
        #: Installed by a :class:`~repro.cluster.faults.FaultInjector` so
        #: boot-interruption evictions land in the run's fault counters.
        self.fault_stats = None
        self._phases: list[_Phase] = []
        #: The phase whose wake is running (its retries are in progress).
        self._polling: _Phase | None = None
        #: The event whose capacity changes await their wake decisions,
        #: and whether it came before the retries due at its instant.
        self._unsettled_by: Event | None = None
        self._unsettled_early = False
        for vm in self.vms:
            vm.before_change = self._flush
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
        self._flush()
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
            self._flush()
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
        """Queue a pending pod; the event fires with a VM that fits it.

        The pod retries from one interval after now. It joins the phase
        whose grid already runs through that instant, so retries due at
        the same instant keep a single order.
        """
        self.throttled += 1
        self._sync()
        now = self.sim.now
        first = now + self.retry_interval_ms
        waiter = _Waiter(function, size, self.sim.event())
        for phase in self._phases:
            if phase.due == now:
                # The phase's retries at ``now`` are still ahead in the
                # event order unless the current event was scheduled after
                # the phase's previous retries ran.
                if self._scheduled_before_last_instant():
                    phase.ahead.append(waiter)
                else:
                    phase.behind.append(waiter)
                break
            if phase.due == first:
                phase.members.append(waiter)
                break
        else:
            phase = _Phase(first)
            phase.members.append(waiter)
            self._phases.append(phase)
        return waiter.event

    def _scheduled_before_last_instant(self) -> bool:
        """Whether the running event was scheduled more than one retry
        interval ago — i.e. before the retries one instant back ran, so
        it precedes the retries due now."""
        event = self.sim.active_event
        return isinstance(event, Timeout) and event.delay > self.retry_interval_ms

    def _sync(self) -> None:
        """Bring every phase up to now and fuse phases on the same instant.

        Retries skipped before now could place nothing: each only counts
        as a throttled interval. Two grids can become one when a step
        across a power of two rounds; from then on the phase that was at
        the earlier instant before that step retries first.
        """
        now = self.sim.now
        step = self.retry_interval_ms
        stepped = False
        for phase in self._phases:
            if phase.due < now:
                due, n = _grid_after(phase.due, now, step)
                self.throttled += len(phase.members)
                phase.advance(due)
                self.throttled += (n - 1) * len(phase.members)
                stepped = True
        if not stepped:
            return
        by_due: dict[float, list[_Phase]] = {}
        for phase in self._phases:
            by_due.setdefault(phase.due, []).append(phase)
        if len(by_due) == len(self._phases):
            return
        for due, group in by_due.items():
            if len(group) == 1:
                continue
            group.sort(key=functools.cmp_to_key(
                lambda x, y: -1 if self._retries_first(x, y, due) else 1
            ))
            head = group[0]
            for other in group[1:]:
                head.members += other.members
                head.ahead += other.ahead
                head.behind += other.behind
                head.wake = head.wake or other.wake
                self._phases.remove(other)

    def _retries_first(self, x: _Phase, y: _Phase, due: float) -> bool:
        """Whether ``x`` retried before ``y`` where their grids joined."""
        step = self.retry_interval_ms
        cx = _crossings(x.origin, due, step)
        cy = _crossings(y.origin, due, step)
        for top in sorted(cx.keys() & cy.keys()):
            if cx[top][1] == cy[top][1]:
                return cx[top][0] < cy[top][0]
        return x.origin < y.origin

    def _capacity_changed(self) -> None:
        """Hook: a VM gained capacity or a pod parked.

        Wakes are decided once the running event is done with the pool —
        a chain often frees cores and takes them again for its next stage
        in one event, which no retry can observe.
        """
        if not self._phases:
            return
        self._settle_other()
        if self._unsettled_by is None:
            self._unsettled_by = self.sim.active_event
            self._unsettled_early = self._scheduled_before_last_instant()
            settle = self.sim.event()
            settle.callbacks = [lambda _ev: self._settle_other()]
            settle.succeed()

    def _settle_other(self) -> None:
        """Decide the wakes a change made by an earlier event calls for."""
        if (
            self._unsettled_by is not None
            and self._unsettled_by is not self.sim.active_event
        ):
            self._settle()

    def _settle(self) -> None:
        """Schedule a wake for every phase whose next retry can do
        something: place a waiter on an up VM, or — for the phase due
        first — reclaim a parked pod."""
        early = self._unsettled_early
        self._unsettled_by = None
        self._sync()
        now = self.sim.now
        room = max((vm.free for vm in self.vms if vm.up), default=-1)
        first = None
        for phase in self._phases:
            if phase.wake is None and phase.due == now and not early:
                # Its retries at ``now`` ran before the change.
                self.throttled += len(phase.members)
                phase.advance(now + self.retry_interval_ms)
            if first is None or phase.due < first.due:
                first = phase
            if phase.wake is None and any(
                w.size <= room
                for w in phase.members + phase.ahead + phase.behind
            ):
                self._schedule_wake(phase)
        if first is not None and first.wake is None and any(
            self._warm.values()
        ):
            self._schedule_wake(first)

    def _flush(self) -> None:
        """Run the scheduled retries due now that precede the running event.

        Called before anything this pool can see changes. The polling loop
        ran a retry due now before every event scheduled after the retry's
        previous instant, so such an event must find those retries done.
        """
        if self._polling is not None:
            return
        self._settle_other()
        now = self.sim.now
        if not any(p.wake is not None and p.due == now for p in self._phases):
            return
        if self._scheduled_before_last_instant():
            return
        self._sync()
        for phase in self._phases:
            if phase.wake is not None and phase.due == now:
                self._run_retries(phase)
                return

    def _schedule_wake(self, phase: _Phase) -> None:
        wake = self.sim.event()
        wake.callbacks = [lambda _ev: self._woken(phase, wake)]
        phase.wake = self.sim.schedule_at(wake, phase.due)

    def _holding(self, wake: Event) -> _Phase | None:
        return next((p for p in self._phases if p.wake is wake), None)

    def _woken(self, phase: _Phase, wake: Event) -> None:
        self._settle_other()
        if phase.wake is not wake:
            # Fused into another phase, or already run by a flush.
            phase = self._holding(wake)
            if phase is None:
                return
        if not self._futile(phase):
            self._sync()
            phase = self._holding(wake)
            if phase is None:
                return  # fused into a phase with its own wake now
        self._run_retries(phase)

    def _futile(self, phase: _Phase) -> bool:
        """Whether every retry of ``phase`` due now must fail untouched."""
        if any(self._warm.values()):
            return False
        room = max((vm.free for vm in self.vms if vm.up), default=-1)
        return all(w.size > room for w in phase.members)

    def _run_retries(self, phase: _Phase) -> None:
        """Run the retries of ``phase`` due now, in order."""
        phase.wake = None
        if self._futile(phase):
            # The capacity that woke it is gone again.
            self.throttled += len(phase.members)
            phase.advance(phase.due + self.retry_interval_ms)
            return
        self._polling = phase
        waiting = []
        for waiter in phase.members:
            self._reclaim_idle(waiter.size)
            vm = self._pick_vm(waiter.function, waiter.size)
            if vm is None:
                self.throttled += 1
                waiting.append(waiter)
            else:
                # The pending pod places and starts booting right here.
                waiter.event.succeed_now(vm)
        phase.members = waiting
        phase.advance(phase.due + self.retry_interval_ms)
        self._polling = None
        if not phase.members:
            self._phases.remove(phase)
        self._unsettled_early = False
        self._settle()

    def _resize(self, pod: Pod, size: Millicores) -> None:
        if pod.size != size:
            pod.vm.resize_pod(pod, size)

    def release(self, pod: Pod) -> None:
        """Return a pod after an invocation; park or reclaim it."""
        if pod.state is not PodState.WARM:
            raise ClusterError(
                f"released pod {pod.pod_id} must be WARM, is {pod.state.value}"
            )
        self._flush()
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
