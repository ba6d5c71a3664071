"""The provider-side adapter (paper §III-D).

When a stage of a workflow request finishes, the platform reports the
elapsed time; the adapter derives the remaining budget ``SLO - elapsed``,
searches the condensed hints table of the remaining sub-workflow, and
returns the size for the next head function. A miss (budget below the
table's covered range — unexpected runtime dynamics) scales the function to
``Kmax`` to protect the SLO.

The adapter is stateless with respect to individual requests (the platform
traces per-request elapsed time), which is what makes it trivially
horizontally scalable (§V-A implementation note).
"""

from __future__ import annotations

import contextlib
import time
import typing as _t
from dataclasses import dataclass

import numpy as np  # noqa: F401  (annotations for the batched API)

from ..errors import AdapterError
from ..synthesis.hints import WorkflowHints
from ..types import Millicores, Milliseconds
from .supervisor import HitMissSupervisor

__all__ = ["AdaptationDecision", "JanusAdapter"]


@dataclass(frozen=True)
class AdaptationDecision:
    """The adapter's answer for one stage of one request."""

    stage_index: int
    function: str
    size: Millicores
    hit: bool
    budget_ms: Milliseconds
    decision_latency_ms: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AdapterError(f"decision size must be > 0, got {self.size}")


class JanusAdapter:
    """Online resource adaptation for one deployed workflow."""

    def __init__(
        self,
        hints: WorkflowHints,
        slo_ms: Milliseconds,
        supervisor: HitMissSupervisor | None = None,
    ) -> None:
        if slo_ms <= 0:
            raise AdapterError(f"SLO must be > 0, got {slo_ms}")
        self.hints = hints
        self.slo_ms = float(slo_ms)
        self.supervisor = supervisor or HitMissSupervisor()
        self._decision_latencies_ms: list[float] = []
        self._captured: list[tuple[int, np.ndarray]] | None = None

    @property
    def num_stages(self) -> int:
        """Number of functions in the workflow chain."""
        return self.hints.num_stages

    # ------------------------------------------------------------------
    def decide(
        self, stage_index: int, budget_ms: Milliseconds
    ) -> AdaptationDecision:
        """Size the head of the sub-workflow starting at ``stage_index``.

        ``budget_ms`` is the remaining time budget (SLO minus elapsed). A
        non-positive budget is already a violation in the making; the adapter
        still answers (with ``Kmax``) so the request completes as fast as
        possible.
        """
        t0 = time.perf_counter()
        table = self.hints.table_for_stage(stage_index)
        result = table.lookup(budget_ms)
        latency_ms = (time.perf_counter() - t0) * 1e3
        self._decision_latencies_ms.append(latency_ms)
        self.supervisor.record(result.hit)
        return AdaptationDecision(
            stage_index=stage_index,
            function=table.head_function,
            size=result.size,
            hit=result.hit,
            budget_ms=float(budget_ms),
            decision_latency_ms=latency_ms,
        )

    def decide_many(
        self, stage_index: int, budgets_ms: "np.ndarray"
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Batched :meth:`decide` for one stage across many requests.

        Returns ``(sizes, hits)`` arrays aligned with ``budgets_ms``. The
        supervisor sees every hit/miss and the latency log gains one entry
        per decision (the amortised per-decision cost of the vector lookup),
        so the §V-H overhead accounting keeps its one-row-per-decision shape.
        """
        t0 = time.perf_counter()
        table = self.hints.table_for_stage(stage_index)
        sizes, hits = table.lookup_many(budgets_ms)
        if self._captured is not None:
            self._captured.append((stage_index, hits))
            return sizes, hits
        latency_ms = (time.perf_counter() - t0) * 1e3
        n = int(sizes.size)
        if n:
            self._decision_latencies_ms.extend([latency_ms / n] * n)
            self.supervisor.record_many(hits)
        return sizes, hits

    @contextlib.contextmanager
    def detached(self) -> _t.Iterator[list[tuple[int, "np.ndarray"]]]:
        """Look up without recording, for callers that account later.

        Inside the block :meth:`decide_many` leaves the supervisor and the
        latency log alone and appends ``(stage_index, hits)`` to the
        yielded list instead, so the caller can replay the hits into the
        supervisor in whatever order the lookups are deemed to happen.
        """
        captured: list[tuple[int, np.ndarray]] = []
        self._captured = captured
        try:
            yield captured
        finally:
            self._captured = None

    def initial_decision(self) -> AdaptationDecision:
        """Decision for the first stage: the budget is the full SLO."""
        return self.decide(0, self.slo_ms)

    def on_stage_complete(
        self, completed_stage: int, elapsed_ms: Milliseconds
    ) -> AdaptationDecision | None:
        """Re-adapt after ``completed_stage`` finished ``elapsed_ms`` into
        the request. Returns ``None`` when the workflow is complete."""
        if elapsed_ms < 0:
            raise AdapterError(f"elapsed time must be >= 0, got {elapsed_ms}")
        next_stage = completed_stage + 1
        if next_stage >= self.num_stages:
            return None
        return self.decide(next_stage, self.slo_ms - elapsed_ms)

    # -- diagnostics ------------------------------------------------------
    def decision_latencies_ms(self) -> list[float]:
        """All measured decision latencies (for the §V-H overhead study)."""
        return list(self._decision_latencies_ms)

    def replace_hints(self, hints: WorkflowHints) -> None:
        """Swap in regenerated tables (asynchronous regeneration, §III-D)."""
        if hints.num_stages != self.hints.num_stages:
            raise AdapterError(
                f"regenerated hints have {hints.num_stages} stages, "
                f"expected {self.hints.num_stages}"
            )
        self.hints = hints
        self.supervisor.reset()
