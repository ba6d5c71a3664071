"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-list design (as used by SimPy and most
HPC network/cluster simulators): an :class:`Event` is a one-shot triggerable
object carrying a value; callbacks registered on an event run when the
simulator pops it off the event heap.

Hot-path notes: every simulated request churns through many short-lived
events, so the per-event footprint matters. The callback list is allocated
lazily (most events carry zero or one listener), and the composite events
dispatch through bound methods plus an index table instead of allocating one
closure per child event.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from ..errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]


class Event:
    """A one-shot occurrence inside a simulation.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran). An event may only be triggered once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_processed", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        # NOTE: these field initialisations are mirrored (inlined) in
        # Timeout.__init__ — a new field or invariant here must be added
        # there too, or every Timeout is born with a missing slot.
        self.sim = sim
        #: Listener callables, or ``None`` while no listener registered.
        self.callbacks: list[_t.Callable[["Event"], None]] | None = None
        self._value: _t.Any = None
        self._triggered = False
        self._processed = False
        self._ok = True

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (see :meth:`fail`)."""
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The payload the event was triggered with."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: _t.Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-time units."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def succeed_now(self, value: _t.Any = None) -> "Event":
        """Trigger the event and run its callbacks before returning.

        For handing a resource to a waiting process at an exact place in
        the current instant: a process waiting on this event resumes inside
        the call, so whatever it schedules next is ordered as if it had
        been running all along. The event never enters the heap, so it does
        not count as a processed event.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._process()
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def _process(self) -> None:
        """Run callbacks; invoked by the simulator only."""
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: _t.Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event was already processed the callback runs immediately,
        so late subscribers never deadlock.
        """
        if self._processed:
            cb(self)
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # Timeouts are born triggered; the fields are assigned inline instead
        # of going through Event.__init__ + succeed, and the heap push is
        # inlined past Simulator._schedule (whose negative-delay guard is
        # the check above) — one call frame per timeout each, the single
        # hottest allocation path in cluster runs.
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._triggered = True
        self._processed = False
        self._ok = True
        self.delay = delay = float(delay)
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1


class AllOf(Event):
    """Composite event that triggers when all child events have processed."""

    __slots__ = ("_pending", "_results", "_slots", "_children")

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed(value=[])
            return
        self._results: list[_t.Any] = [None] * len(events)
        # Result slot per child, keyed by identity; a child passed twice
        # holds a stack of slots, one popped per completion. Keeping the
        # children referenced pins their ids for the composite's lifetime.
        self._children = events
        slots: dict[int, list[int]] = {}
        for i, ev in enumerate(events):
            slots.setdefault(id(ev), []).append(i)
        self._slots = slots
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        self._results[self._slots[id(ev)].pop()] = ev.value
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed(value=self._results)


class AnyOf(Event):
    """Composite event that triggers when any child event processes."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: _t.Sequence[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if not self._triggered:
            self.succeed(value=ev.value)
