"""Function pods (instances)."""

from __future__ import annotations

import enum
import typing as _t

from ..errors import ClusterError
from ..types import Millicores

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .vm import VirtualMachine

__all__ = ["PodState", "Pod"]


class PodState(enum.Enum):
    """Lifecycle of a function instance."""

    COLD = "cold"  # created, container still starting
    WARM = "warm"  # idle, ready to serve
    BUSY = "busy"  # executing an invocation
    DEAD = "dead"  # reclaimed


class Pod:
    """One function instance pinned to a VM with a millicore reservation."""

    _next_id = 0

    def __init__(self, function: str, size: Millicores, vm: "VirtualMachine") -> None:
        if size <= 0:
            raise ClusterError(f"pod size must be > 0, got {size}")
        self.pod_id = Pod._next_id
        Pod._next_id += 1
        self.function = str(function)
        self._size = int(size)
        self.vm = vm
        self.state = PodState.COLD
        self.invocations_served = 0

    @property
    def size(self) -> Millicores:
        """Current millicore reservation."""
        return self._size

    @property
    def busy(self) -> bool:
        return self.state is PodState.BUSY

    @property
    def alive(self) -> bool:
        return self.state is not PodState.DEAD

    # -- transitions ---------------------------------------------------------
    def warm_up(self) -> None:
        """COLD -> WARM (container finished booting)."""
        self._transition(PodState.COLD, PodState.WARM)

    def start_invocation(self) -> None:
        """WARM -> BUSY."""
        self._transition(PodState.WARM, PodState.BUSY)
        self.vm.busy_allocated += self._size

    def finish_invocation(self) -> None:
        """BUSY -> WARM."""
        self._transition(PodState.BUSY, PodState.WARM)
        self.vm.busy_allocated -= self._size
        self.invocations_served += 1

    def kill(self) -> None:
        """Any live state -> DEAD (idle reclamation / scale-in)."""
        if self.state is PodState.DEAD:
            raise ClusterError(f"pod {self.pod_id} already dead")
        if self.state is PodState.BUSY:
            raise ClusterError(f"cannot kill busy pod {self.pod_id}")
        self.state = PodState.DEAD

    def preempt(self) -> None:
        """BUSY -> DEAD: the hosting VM failed mid-invocation.

        The only sanctioned way to lose a busy pod — ``kill`` refuses it so
        scale-in can never silently drop in-flight work.
        """
        self._transition(PodState.BUSY, PodState.DEAD)
        self.vm.busy_allocated -= self._size

    def _transition(self, expected: PodState, target: PodState) -> None:
        if self.state is not expected:
            raise ClusterError(
                f"pod {self.pod_id} ({self.function}): cannot go "
                f"{self.state.value} -> {target.value}"
            )
        self.state = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pod(id={self.pod_id}, fn={self.function}, size={self.size}, "
            f"state={self.state.value}, vm={self.vm.vm_id})"
        )
