"""Early-binding baselines: GrandSLAM, GrandSLAM+ and worst-case P99.

All early-binding policies fix function sizes at deployment time from the
anchor-percentile (P99) profiles and never change them (paper §II-A):

* :class:`GrandSLAMPolicy` — one *identical* size for every function (the
  paper's description of GrandSLAM [41]): the smallest uniform ``k`` with
  ``sum_i L_i(P99, k) <= SLO``.
* :class:`GrandSLAMPlusPolicy` — GrandSLAM "enhanced by removing the
  constraint of identical sizes": per-function sizes minimising total
  millicores subject to the same P99-sum constraint (solved exactly with the
  suffix DP).
* :class:`WorstCasePolicy` — every function at ``Kmax``; the most
  conservative plan and an upper bound for sanity checks.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..errors import PolicyError
from ..profiling.profiles import ProfileSet
from ..synthesis.dp import ChainDP
from ..types import Millicores, Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import WorkflowRequest
from .base import SizingPolicy

__all__ = ["FixedPlanPolicy", "GrandSLAMPolicy", "GrandSLAMPlusPolicy", "WorstCasePolicy"]


class FixedPlanPolicy(SizingPolicy):
    """Base for early binding: a fixed per-stage allocation vector."""

    late_binding = False

    def __init__(self, name: str, plan: _t.Sequence[Millicores]) -> None:
        if not plan:
            raise PolicyError("plan may not be empty")
        if any(k <= 0 for k in plan):
            raise PolicyError(f"plan sizes must be positive: {plan}")
        self.name = name
        self.plan = [int(k) for k in plan]

    def _planned(self, node: str) -> Millicores:
        stage_index = self._stage_index(node)
        if not 0 <= stage_index < len(self.plan):
            raise PolicyError(
                f"{self.name}: stage {stage_index} outside plan of {len(self.plan)}"
            )
        return self.plan[stage_index]

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        return self._planned(node)

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: np.ndarray,
    ) -> np.ndarray:
        return np.full(len(requests), self._planned(node), dtype=np.int64)

    @property
    def total_millicores(self) -> int:
        """Sum of the fixed allocation (the policy's constant consumption)."""
        return sum(self.plan)


class WorstCasePolicy(FixedPlanPolicy):
    """Everything at Kmax — the ultra-conservative upper bound."""

    def __init__(self, workflow: Workflow) -> None:
        super().__init__(
            "WorstCase", [workflow.limits.kmax] * workflow.num_functions
        )
        self.stage_order = tuple(workflow.chain)
        self._kmax = int(workflow.limits.kmax)

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        # Kmax regardless of the node, so the upper bound also serves
        # off-critical-path branches of DAG workflows.
        return self._kmax

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: np.ndarray,
    ) -> np.ndarray:
        return np.full(len(requests), self._kmax, dtype=np.int64)


class GrandSLAMPolicy(FixedPlanPolicy):
    """Identical sizes: smallest uniform k with the P99 sum within the SLO."""

    def __init__(
        self,
        workflow: Workflow,
        profiles: ProfileSet,
        concurrency: int = 1,
        slo_ms: Milliseconds | None = None,
    ) -> None:
        slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        chain_profiles = profiles.for_chain(workflow.chain)
        anchor = profiles.percentiles.anchor
        k_grid = profiles.limits.grid()
        totals = np.sum(
            [prof.latency_row(anchor, concurrency) for prof in chain_profiles],
            axis=0,
        )
        feasible = np.flatnonzero(totals <= slo)
        if feasible.size == 0:
            raise PolicyError(
                f"GrandSLAM: no uniform size meets SLO {slo} ms "
                f"(best {float(totals.min()):.0f} ms at Kmax)"
            )
        k = int(k_grid[feasible[0]])
        super().__init__("GrandSLAM", [k] * len(chain_profiles))
        self.stage_order = tuple(workflow.chain)


class GrandSLAMPlusPolicy(FixedPlanPolicy):
    """Per-function sizes minimising total millicores under the P99 sum."""

    def __init__(
        self,
        workflow: Workflow,
        profiles: ProfileSet,
        concurrency: int = 1,
        slo_ms: Milliseconds | None = None,
    ) -> None:
        slo = int(float(slo_ms if slo_ms is not None else workflow.slo_ms))
        chain_profiles = profiles.for_chain(workflow.chain)
        dp = ChainDP(chain_profiles, slo, concurrency)
        plan = dp.allocation(0, slo)
        if plan is None:
            raise PolicyError(
                f"GrandSLAM+: no allocation meets SLO {slo} ms even at Kmax"
            )
        super().__init__("GrandSLAM+", plan)
        self.stage_order = tuple(workflow.chain)
