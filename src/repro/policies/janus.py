"""The Janus policy family: Janus, Janus-, Janus+ (paper §V-A baselines).

Each variant wraps the full developer/provider pipeline:

1. profile the workflow (done by the caller, shared across policies),
2. synthesize hints with the variant's exploration mode,
3. serve requests through a provider-side :class:`JanusAdapter`.

Variants differ only in percentile exploration during synthesis:
``Janus-`` pins heads to P99, ``Janus`` explores the head, ``Janus+``
explores head and next-to-head (much slower to synthesize, Fig. 6b).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..adapter.adapter import JanusAdapter
from ..adapter.supervisor import HitMissSupervisor
from ..errors import PolicyError
from ..profiling.profiles import ProfileSet
from ..synthesis.budget import BudgetRange
from ..synthesis.generator import HeadExploration, synthesize_hints
from ..synthesis.hints import WorkflowHints
from ..types import Millicores, Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import WorkflowRequest
from .base import SizingPolicy

__all__ = ["JanusPolicy", "janus", "janus_minus", "janus_plus"]


class JanusPolicy(SizingPolicy):
    """Late-binding adaptation driven by synthesized hint tables."""

    late_binding = True

    def __init__(
        self,
        workflow: Workflow,
        hints: WorkflowHints,
        slo_ms: Milliseconds | None = None,
        name: str = "Janus",
        miss_threshold: float = 0.01,
    ) -> None:
        if hints.num_stages != workflow.num_functions:
            raise PolicyError(
                f"{name}: hints cover {hints.num_stages} stages, workflow has "
                f"{workflow.num_functions}"
            )
        self.name = name
        self.workflow = workflow
        self.stage_order = tuple(workflow.chain)
        self.adapter = JanusAdapter(
            hints,
            slo_ms if slo_ms is not None else workflow.slo_ms,
            HitMissSupervisor(miss_threshold=miss_threshold),
        )

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        budget = self.adapter.slo_ms - elapsed_ms
        return self.adapter.decide(self._stage_index(node), budget).size

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: "np.ndarray",
    ) -> "np.ndarray":
        budgets = self.adapter.slo_ms - np.asarray(elapsed_ms, dtype=np.float64)
        sizes, _ = self.adapter.decide_many(self._stage_index(node), budgets)
        return sizes

    # -- diagnostics -------------------------------------------------------
    @property
    def hints(self) -> WorkflowHints:
        """The currently deployed hint tables."""
        return self.adapter.hints

    @property
    def hit_rate(self) -> float:
        """Fraction of hint-table lookups that hit."""
        return self.adapter.supervisor.hit_rate

    @property
    def synthesis_seconds(self) -> float:
        """Offline synthesis time of the deployed tables (Fig. 6b)."""
        return self.adapter.hints.synthesis_seconds


def _build(
    workflow: Workflow,
    profiles: ProfileSet,
    exploration: HeadExploration,
    name: str,
    budget: BudgetRange | None,
    concurrency: int,
    weight: float,
    slo_ms: Milliseconds | None,
    enforce_resilience: bool = True,
    hints: WorkflowHints | None = None,
) -> JanusPolicy:
    if hints is None:
        hints = synthesize_hints(
            profiles,
            workflow.chain,
            budget=budget,
            concurrency=concurrency,
            weight=weight,
            exploration=exploration,
            enforce_resilience=enforce_resilience,
            workflow_name=workflow.name,
        )
    return JanusPolicy(workflow, hints, slo_ms=slo_ms, name=name)


def janus(
    workflow: Workflow,
    profiles: ProfileSet,
    budget: BudgetRange | None = None,
    concurrency: int = 1,
    weight: float = 1.0,
    slo_ms: Milliseconds | None = None,
    enforce_resilience: bool = True,
    hints: WorkflowHints | None = None,
) -> JanusPolicy:
    """Janus: head-function percentile exploration (the paper's system).

    Pass pre-synthesized ``hints`` to deploy existing tables instead of
    running synthesis again.
    """
    return _build(
        workflow, profiles, HeadExploration.HEAD_ONLY, "Janus",
        budget, concurrency, weight, slo_ms, enforce_resilience, hints,
    )


def janus_minus(
    workflow: Workflow,
    profiles: ProfileSet,
    budget: BudgetRange | None = None,
    concurrency: int = 1,
    weight: float = 1.0,
    slo_ms: Milliseconds | None = None,
    enforce_resilience: bool = True,
    hints: WorkflowHints | None = None,
) -> JanusPolicy:
    """Janus-: exploration disabled, heads pinned to P99."""
    return _build(
        workflow, profiles, HeadExploration.NONE, "Janus-",
        budget, concurrency, weight, slo_ms, enforce_resilience, hints,
    )


def janus_plus(
    workflow: Workflow,
    profiles: ProfileSet,
    budget: BudgetRange | None = None,
    concurrency: int = 1,
    weight: float = 1.0,
    slo_ms: Milliseconds | None = None,
    enforce_resilience: bool = True,
    hints: WorkflowHints | None = None,
) -> JanusPolicy:
    """Janus+: head and next-to-head exploration (costly synthesis)."""
    return _build(
        workflow, profiles, HeadExploration.HEAD_PLUS_NEXT, "Janus+",
        budget, concurrency, weight, slo_ms, enforce_resilience, hints,
    )
