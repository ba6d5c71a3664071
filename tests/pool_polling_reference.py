"""Reference pool for the cluster DES: pending pods poll for capacity.

This is the capacity wait :class:`~repro.cluster.pool.PoolManager` ran
before pending pods moved to an event-driven waiter queue. A pending pod
sleeps ``retry_interval_ms`` between attempts and retries reclamation and
placement on every grid instant, whether or not anything changed. It is
kept here, outside the package, as the executable specification the
differential suite and the ``cluster`` benchmark section pin the waiter
queue against: every outcome and every pool counter must come out
identical.
"""

from __future__ import annotations

import contextlib
import typing as _t
from unittest import mock

from repro.cluster import platform as _platform
from repro.cluster.pod import Pod
from repro.cluster.pool import PoolManager
from repro.errors import ClusterError
from repro.types import Millicores


class PollingPoolManager(PoolManager):
    """A :class:`PoolManager` whose pending pods poll every interval."""

    def acquire(self, function: str, size: Millicores):
        if function not in self.functions:
            raise ClusterError(f"unknown function {function!r}")
        self._purge_expired(function)
        warm = self._warm[function]
        for idx in range(len(warm) - 1, -1, -1):
            pod = warm[idx].pod
            if pod.vm.up and pod.vm.free + pod.size >= size:
                self._unpark(function, idx)
                self.warm_hits += 1
                self._resize(pod, size)
                return pod
        self.cold_starts += 1
        model = self.functions[function]
        while True:
            vm = self._pick_vm(function, size)
            if vm is None:
                self._reclaim_idle(size)
                vm = self._pick_vm(function, size)
            while vm is None:
                self.throttled += 1
                yield self.sim.timeout(self.retry_interval_ms)
                self._reclaim_idle(size)
                vm = self._pick_vm(function, size)
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


@contextlib.contextmanager
def polling_pools() -> _t.Iterator[None]:
    """Build every cluster platform's pool as a :class:`PollingPoolManager`."""
    with mock.patch.object(_platform, "PoolManager", PollingPoolManager):
        yield
