"""Virtual machines: capacity, pod placement and co-location tracking."""

from __future__ import annotations

import typing as _t

from ..errors import ClusterError
from ..types import Millicores

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .pod import Pod

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """A VM hosting function pods, with millicore capacity accounting."""

    def __init__(self, vm_id: int, capacity_millicores: Millicores) -> None:
        if capacity_millicores <= 0:
            raise ClusterError(f"VM capacity must be > 0, got {capacity_millicores}")
        self.vm_id = int(vm_id)
        self.capacity = int(capacity_millicores)
        self._pods: dict[int, "Pod"] = {}
        #: Millicores reserved by resident pods, kept in step by
        #: :meth:`place`, :meth:`evict` and :meth:`resize_pod`.
        self.allocated: Millicores = 0
        #: Millicores reserved by resident pods that are executing, kept in
        #: step by the pods' BUSY transitions.
        self.busy_allocated: Millicores = 0
        self._up = True
        #: Transient execution slowdown (>= 1.0) while straggling.
        self.slowdown = 1.0
        #: Hook the pool manager installs to wake pending pods: runs once the
        #: VM gained usable capacity (a pod evicted, a pod resized down, or
        #: the VM back up).
        self.on_free: _t.Callable[[], None] | None = None

    # -- capacity ----------------------------------------------------------
    @property
    def up(self) -> bool:
        """Availability flag flipped by fault injection (preemption/crash).

        A down VM refuses placement; recovery restores it empty.
        """
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        was_up, self._up = self._up, bool(value)
        if self._up and not was_up:
            self._freed()

    @property
    def free(self) -> Millicores:
        """Unreserved millicores."""
        return self.capacity - self.allocated

    def fits(self, size: Millicores) -> bool:
        """Whether a pod of ``size`` can be placed here (never on a down VM)."""
        return self._up and size <= self.capacity - self.allocated

    def _freed(self) -> None:
        if self.on_free is not None:
            self.on_free()

    # -- placement ----------------------------------------------------------
    def place(self, pod: "Pod") -> None:
        """Admit a pod; raises when capacity would be exceeded."""
        if pod.pod_id in self._pods:
            raise ClusterError(f"pod {pod.pod_id} already on VM {self.vm_id}")
        if not self.fits(pod.size):
            raise ClusterError(
                f"VM {self.vm_id}: pod of {pod.size} mc exceeds free {self.free} mc"
            )
        self._pods[pod.pod_id] = pod
        self.allocated += pod.size

    def evict(self, pod: "Pod") -> None:
        """Remove a pod."""
        if pod.pod_id not in self._pods:
            raise ClusterError(f"pod {pod.pod_id} not on VM {self.vm_id}")
        del self._pods[pod.pod_id]
        self.allocated -= pod.size
        self._freed()

    def resize_pod(self, pod: "Pod", new_size: Millicores) -> None:
        """Adjust a resident pod's reservation (vertical scaling)."""
        if pod.pod_id not in self._pods:
            raise ClusterError(f"pod {pod.pod_id} not on VM {self.vm_id}")
        if new_size <= 0:
            raise ClusterError(f"size must be > 0, got {new_size}")
        delta = new_size - pod.size
        if delta > self.free:
            raise ClusterError(
                f"VM {self.vm_id}: resize by +{delta} mc exceeds free {self.free} mc"
            )
        pod._size = int(new_size)
        self.allocated += delta
        if pod.busy:
            self.busy_allocated += delta
        if delta < 0:
            self._freed()

    # -- co-location ---------------------------------------------------------
    def pods(self) -> list["Pod"]:
        """Resident pods."""
        return list(self._pods.values())

    @property
    def num_pods(self) -> int:
        return len(self._pods)

    def colocated_count(self, function: str, busy_only: bool = True) -> int:
        """Instances of ``function`` on this VM (optionally only busy ones).

        Busy instances are the ones actively contending — the count driving
        the interference model.
        """
        return sum(
            1
            for p in self._pods.values()
            if p.function == function and (p.busy or not busy_only)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualMachine(id={self.vm_id}, pods={self.num_pods}, "
            f"alloc={self.allocated}/{self.capacity})"
        )
