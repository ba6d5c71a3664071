"""Reference solver for the Optimal oracle: the dense budget-axis DP.

This is the per-request dynamic program the oracle ran before it moved to
the batched cost-axis solver (:func:`repro.policies.oracle.cheapest_plans`).
It is kept here, outside the package, as the executable specification the
property suite and the ``oracle`` benchmark section pin the fast solver
against: a backward shift-and-min DP over a 1 ms budget grid whose
first-occurrence ``argmin`` selects the lexicographically smallest
minimum-cost feasible plan.
"""

from __future__ import annotations

import numpy as np

from repro.workflow.catalog import Workflow
from repro.workflow.request import WorkflowRequest


def budget_dp_plan(durations: np.ndarray, tmax: int, k_vals: np.ndarray) -> list[int]:
    """Size indices of the cheapest plan with ``sum(durations) <= tmax``.

    ``durations`` is ``int64[N, K]``; ``k_vals`` the size grid. Returns
    ``K-1`` everywhere when no plan fits.
    """
    n, num_k = durations.shape
    size = tmax + 1
    k_vals = np.asarray(k_vals, dtype=np.float64)
    cost = np.full((n, size), np.inf)
    argk = np.full((n, size), -1, dtype=np.int32)
    for j in range(n - 1, -1, -1):
        if j == n - 1:
            for ki in range(num_k - 1, -1, -1):
                d = int(durations[j, ki])
                if d <= tmax:
                    cost[j, d:] = k_vals[ki]
                    argk[j, d:] = ki
            continue
        cand = np.full((num_k, size), np.inf)
        for ki in range(num_k):
            d = int(durations[j, ki])
            if d <= tmax:
                cand[ki, d:] = k_vals[ki] + cost[j + 1, : size - d]
        best = np.argmin(cand, axis=0).astype(np.int32)
        best_cost = cand[best, np.arange(size)]
        cost[j] = best_cost
        argk[j] = np.where(np.isfinite(best_cost), best, -1)

    if not np.isfinite(cost[0, tmax]):
        return [num_k - 1] * n
    plan: list[int] = []
    budget = tmax
    for j in range(n):
        ki = int(argk[j, budget])
        plan.append(ki)
        budget -= int(durations[j, ki])
    return plan


def request_durations(workflow: Workflow, request: WorkflowRequest) -> np.ndarray:
    """``int64[N, K]``: ceil of one request's actual stage times per size."""
    k_grid = workflow.limits.grid()
    num_k = k_grid.size
    rows = []
    for fname in workflow.chain:
        dyn = request.dynamics_for(fname)
        times = workflow.model(fname).execution_times(
            k_grid,
            np.full(num_k, dyn.workset),
            np.full(num_k, dyn.noise_z),
            np.full(num_k, dyn.interference),
            np.full(num_k, request.concurrency, dtype=np.int64),
        )
        rows.append(np.ceil(times).astype(np.int64))
    return np.stack(rows)


def reference_plan(
    workflow: Workflow, request: WorkflowRequest, slo_ms: float
) -> list[int]:
    """The oracle's plan for ``request`` in millicores, solved per request."""
    k_grid = workflow.limits.grid()
    indices = budget_dp_plan(
        request_durations(workflow, request), int(slo_ms), k_grid
    )
    return [int(k_grid[i]) for i in indices]
