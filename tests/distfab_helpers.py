"""Top-level callables the distributed-fabric tests ship to worker agents.

Worker agents are fresh ``python -m repro.scenarios.worker`` processes,
so a function dispatched to them must be importable by module name —
closures and test-local defs cannot cross that boundary. Tests that
launch real subprocess workers put this directory on the workers'
``PYTHONPATH`` (see ``test_distributed.py``) and reference these helpers
instead. In-thread worker tests don't need this module: same-process
unpickling resolves the test module through ``sys.modules``.
"""

from __future__ import annotations

import os
import time


def double(x: int) -> int:
    return 2 * x


def slow_double(item: tuple[float, float]) -> float:
    value, delay = item
    time.sleep(delay)
    return 2 * value


def rendezvous(item: tuple[str, int, float]) -> int:
    """Double ``value`` once two distinct worker processes have joined.

    Each call writes its process id into the shared directory ``where``
    and waits, up to ``timeout`` seconds, until two distinct ids are
    there. A worker pulls one task at a time, so while the first worker
    waits here the second must connect and take a task: both serve.
    """
    where, value, timeout = item
    with open(os.path.join(where, str(os.getpid())), "w", encoding="utf-8"):
        pass
    deadline = time.monotonic() + timeout
    while len(os.listdir(where)) < 2:
        if time.monotonic() > deadline:
            raise TimeoutError(f"no second worker joined within {timeout} s")
        time.sleep(0.01)
    return 2 * value


def crash_once(item: tuple[str | None, int]) -> int:
    """Die hard (``os._exit``, no cleanup) the first time the marked item
    runs; any re-dispatch — or any unmarked item — succeeds."""
    marker, value = item
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("died here")
        os._exit(17)
    return value * 2


class Costed:
    """Item with a declared cost estimate, for dispatch-order tests."""

    def __init__(
        self,
        value: int,
        cost: float = 1.0,
        delay: float = 0.0,
        out_dir: str | None = None,
        poison: int | None = None,
    ) -> None:
        self.value = value
        self.cost = cost
        self.delay = delay
        self.out_dir = out_dir
        self.poison = poison

    def cost_estimate(self) -> float:
        return self.cost


def eval_costed(item: Costed) -> int:
    """Sleep ``delay``; raise for the poisoned value, else touch
    ``<out_dir>/<value>.done`` (when configured) and return the value.
    The sentinel files let fail-fast tests count how much of the queue
    actually evaluated after the first error."""
    time.sleep(item.delay)
    if item.poison is not None and item.value == item.poison:
        raise ValueError(f"poisoned item {item.value}")
    if item.out_dir:
        path = os.path.join(item.out_dir, f"{item.value}.done")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ok")
    return item.value
