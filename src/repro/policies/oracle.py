"""The Optimal oracle — "the best that can be achieved in any late-binding
solution" (paper §V-A).

The oracle sees each request's realised execution dynamics *in advance*
(possible here because requests carry their pre-drawn
:class:`InvocationDynamics`) and solves, per request, the minimum-resource
allocation whose *actual* stage times fit the SLO:

    min sum_i k_i   s.t.   sum_i t_i(k_i; request) <= SLO.

On the uniform CPU grid a plan's cost is ``N*kmin + step*sum(size index)``,
so only ``N*(K-1)+1`` costs are possible. The solver therefore runs over the
*cost* axis, not the budget axis: suffix tables ``S[j][c]`` hold the
minimum duration of stages ``j..N-1`` whose size indices sum to ``c``
(a min-plus merge per stage — the multiple-choice-knapsack recurrence), the
cheapest cost is the smallest ``c`` with ``S[0][c] <= SLO``, and a forward
pass picks, stage by stage, the smallest index that still completes within
budget at exactly that cost. The result is the lexicographically smallest
minimum-cost feasible plan over integer-ms (ceil'd) actual durations, in
O(N*K*C) per request whatever the SLO. When even Kmax everywhere cannot meet
the SLO (an inherently slow request), the oracle allocates Kmax — the
violation is unavoidable for any policy.

Requests are solved lazily in batches: :meth:`OraclePolicy.begin_request`
only registers a request, and the first sizing call solves every pending
request at once with one latency-model evaluation per stage.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..errors import PolicyError
from ..types import Millicores, Milliseconds
from ..workflow.catalog import Workflow
from ..workflow.request import WorkflowRequest
from .base import SizingPolicy

__all__ = ["OraclePolicy", "cheapest_plans"]

#: Requests solved per vector pass; bounds the solver's working memory.
_SOLVE_CHUNK = 2048


def cheapest_plans(durations: np.ndarray, tmax: int) -> np.ndarray:
    """Size indices of each request's cheapest plan within ``tmax`` ms.

    ``durations`` is ``int64[R, N, K]``: the duration of stage ``j`` of
    request ``r`` at size index ``i``, on a uniform size grid. Returns
    ``int64[R, N]``: per request, the lexicographically smallest plan among
    those with the minimum index sum and total duration ``<= tmax``, or
    ``K-1`` everywhere when no plan fits. Durations need not be monotone
    in the size index.
    """
    num_r, n, num_k = durations.shape
    rows = np.arange(num_r)
    # suffix[j][r, c]: min duration of stages j.. with index sum c. Every
    # sum is reachable, so no sentinel survives the merge.
    suffix: list[np.ndarray] = [np.empty(0)] * n + [
        np.zeros((num_r, 1), dtype=np.int64)
    ]
    for j in range(n - 1, -1, -1):
        nxt = suffix[j + 1]
        width = nxt.shape[1]
        cur = np.full(
            (num_r, width + num_k - 1), np.iinfo(np.int64).max, dtype=np.int64
        )
        for i in range(num_k):
            window = cur[:, i : i + width]
            np.minimum(window, durations[:, j, i : i + 1] + nxt, out=window)
        suffix[j] = cur

    fits = suffix[0] <= tmax
    feasible = fits.any(axis=1)
    cost = fits.argmax(axis=1)
    budget = np.full(num_r, tmax, dtype=np.int64)
    offsets = np.arange(num_k)
    plan = np.empty((num_r, n), dtype=np.int64)
    for j in range(n):
        nxt = suffix[j + 1]
        width = nxt.shape[1]
        rest = cost[:, None] - offsets
        valid = (rest >= 0) & (rest < width)
        tail = np.take_along_axis(nxt, np.clip(rest, 0, width - 1), axis=1)
        stage = durations[:, j, :]
        ok = valid & (stage + tail <= budget[:, None])
        pick = ok.argmax(axis=1)
        plan[:, j] = pick
        budget -= stage[rows, pick]
        cost -= pick
    plan[~feasible] = num_k - 1
    return plan


class OraclePolicy(SizingPolicy):
    """Per-request exhaustive-optimal allocation (clairvoyant)."""

    late_binding = True
    name = "Optimal"

    def __init__(self, workflow: Workflow, slo_ms: Milliseconds | None = None) -> None:
        self.workflow = workflow
        self.stage_order = tuple(workflow.chain)
        self.slo_ms = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        self._models = [workflow.model(f) for f in self.stage_order]
        self._pending: dict[int, WorkflowRequest] = {}
        self._plan: dict[int, list[Millicores]] = {}
        self._k_grid = workflow.limits.grid()

    # ------------------------------------------------------------------
    def _actual_durations(
        self, requests: _t.Sequence[WorkflowRequest]
    ) -> np.ndarray:
        """``int64[R, N, K]``: ceil of actual stage time per allocation."""
        num_r, num_k = len(requests), self._k_grid.size
        ks = np.tile(self._k_grid, num_r)
        concurrencies = np.repeat(
            np.fromiter((r.concurrency for r in requests), np.int64, num_r), num_k
        )
        out = np.empty((num_r, len(self._models), num_k), dtype=np.int64)
        for j, model in enumerate(self._models):
            dyns = [r.dynamics_for(model.name) for r in requests]
            times = model.execution_times(
                ks,
                np.repeat([d.workset for d in dyns], num_k).astype(np.float64),
                np.repeat([d.noise_z for d in dyns], num_k).astype(np.float64),
                np.repeat([d.interference for d in dyns], num_k).astype(
                    np.float64
                ),
                concurrencies,
            )
            out[:, j, :] = np.ceil(times).reshape(num_r, num_k)
        return out

    def _solve_pending(self) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        tmax = int(self.slo_ms)
        for start in range(0, len(pending), _SOLVE_CHUNK):
            chunk = pending[start : start + _SOLVE_CHUNK]
            plans = self._k_grid[
                cheapest_plans(self._actual_durations(chunk), tmax)
            ].tolist()
            for request, plan in zip(chunk, plans):
                self._plan[request.request_id] = plan

    def _size(self, request: WorkflowRequest, stage_index: int) -> Millicores:
        if self._pending:
            self._solve_pending()
        plan = self._plan.get(request.request_id)
        if plan is None:
            raise PolicyError(
                f"Oracle: begin_request not called for request {request.request_id}"
            )
        if not 0 <= stage_index < len(plan):
            raise PolicyError(f"Oracle: stage {stage_index} out of range")
        return plan[stage_index]

    # -- policy interface ------------------------------------------------
    def begin_request(self, request: WorkflowRequest) -> None:
        self._plan.pop(request.request_id, None)
        self._pending[request.request_id] = request

    def size_for_node(
        self,
        node: str,
        request: WorkflowRequest,
        elapsed_ms: Milliseconds,
    ) -> Millicores:
        return self._size(request, self._stage_index(node))

    def sizes_for_node(
        self,
        node: str,
        requests: _t.Sequence[WorkflowRequest],
        elapsed_ms: np.ndarray,
    ) -> np.ndarray:
        stage_index = self._stage_index(node)
        return np.fromiter(
            (self._size(r, stage_index) for r in requests),
            dtype=np.int64,
            count=len(requests),
        )

    def end_request(self, request: WorkflowRequest) -> None:
        self._pending.pop(request.request_id, None)
        self._plan.pop(request.request_id, None)
