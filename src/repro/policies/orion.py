"""ORION-like distribution-aware early binding (Mahgoub et al., OSDI'22).

ORION's key idea (as summarised in the paper's related work): model each
function's latency as a *distribution* and size the DAG so that the
end-to-end P99 of the *convolution* meets the SLO, rather than summing
per-function P99s. Because the sum of independent stage latencies
concentrates, the convolution's P99 is below the sum of P99s — ORION
therefore provisions less than GrandSLAM+ while still meeting the SLO,
which is exactly the ordering Table I reports.

Implementation: each function's latency distribution at size ``k`` is
reconstructed from the profiled percentile table by inverse-CDF
interpolation over common uniform draws (common random numbers keep the
estimate monotone in ``k``), and a greedy coordinate descent shrinks the
allocation one step at a time while the Monte-Carlo end-to-end P99 stays
within the SLO. The search result depends only on the policy's inputs, so
it is memoised in process: rebuilding ORION for a configuration already
seen returns a fresh policy carrying the same plan.
"""

from __future__ import annotations

import collections

import numpy as np

from ..errors import PolicyError
from ..profiling.profiles import LatencyProfile, ProfileSet
from ..rng import derive_rng
from ..types import Milliseconds
from ..workflow.catalog import Workflow
from .early_binding import FixedPlanPolicy

__all__ = ["OrionPolicy"]

#: Greedy-shrink results ``(plan, e2e_p99_ms)`` keyed by every input of the
#: search, least recently used first.
_PLAN_MEMO: collections.OrderedDict[tuple, tuple[tuple[int, ...], float]] = (
    collections.OrderedDict()
)
_PLAN_MEMO_SIZE = 64


def _inverse_cdf_samples(
    profile: LatencyProfile,
    k_index: int,
    uniforms: np.ndarray,
    concurrency: int,
) -> np.ndarray:
    """Latency draws at size index ``k_index`` via percentile interpolation."""
    plane = profile.plane(concurrency)  # (P, K)
    p_grid = profile.percentiles.as_array()
    return np.interp(uniforms, p_grid, plane[:, k_index])


def _greedy_shrink(
    workflow_name: str,
    chain_profiles: list[LatencyProfile],
    profiles: ProfileSet,
    concurrency: int,
    slo: float,
    mc_samples: int,
    seed: int,
    target_percentile: float | None,
    safety_margin: float,
) -> tuple[tuple[int, ...], float]:
    """The ORION plan for one configuration and its Monte-Carlo E2E P99."""
    # ORION sizes against a deflated SLO target. The real system keeps a
    # safety cushion because its distribution model is fitted offline and
    # must absorb bundling/placement effects it does not capture; without
    # the cushion the Monte-Carlo convolution tracks the true P99 so
    # closely that estimation noise alone produces >1% violations.
    target = slo * (1.0 - safety_margin)
    limits = profiles.limits
    anchor = (
        target_percentile
        if target_percentile is not None
        else profiles.percentiles.anchor
    )
    rng = derive_rng(seed, "orion", workflow_name)
    # Common uniforms per stage: one latency sample matrix per (stage, k).
    uniforms = [
        rng.uniform(
            profiles.percentiles.percentiles[0],
            profiles.percentiles.percentiles[-1],
            size=mc_samples,
        )
        for _ in chain_profiles
    ]
    num_k = limits.num_options
    # samples[i][ki] -> vector of latencies for stage i at size index ki
    samples = [
        np.stack(
            [
                _inverse_cdf_samples(prof, ki, uniforms[i], concurrency)
                for ki in range(num_k)
            ]
        )
        for i, prof in enumerate(chain_profiles)
    ]

    k_idx = [num_k - 1] * len(chain_profiles)  # start from Kmax everywhere

    def e2e_p99(indices: list[int]) -> float:
        total = np.zeros(mc_samples)
        for i, ki in enumerate(indices):
            total += samples[i][ki]
        return float(np.percentile(total, anchor))

    if e2e_p99(k_idx) > target:
        if e2e_p99(k_idx) > slo:
            raise PolicyError(
                f"ORION: SLO {slo} ms infeasible even at Kmax "
                f"(E2E P{anchor:g} = {e2e_p99(k_idx):.0f} ms)"
            )
        # Kmax fits the SLO but not the cushioned target: deploy Kmax.
        target = slo

    # Greedy shrink: repeatedly take the single-stage downsize that keeps
    # the convolved P99 within the SLO, preferring the largest millicore
    # saving (all steps save `limits.step`, so any feasible stage works;
    # pick the one leaving the most SLO headroom).
    improved = True
    while improved:
        improved = False
        best_stage = -1
        best_headroom = -np.inf
        for i in range(len(chain_profiles)):
            if k_idx[i] == 0:
                continue
            trial = list(k_idx)
            trial[i] -= 1
            p99 = e2e_p99(trial)
            if p99 <= target and target - p99 > best_headroom:
                best_headroom = target - p99
                best_stage = i
        if best_stage >= 0:
            k_idx[best_stage] -= 1
            improved = True

    return tuple(int(limits.grid()[ki]) for ki in k_idx), e2e_p99(k_idx)


class OrionPolicy(FixedPlanPolicy):
    """Distribution-convolution early binding."""

    def __init__(
        self,
        workflow: Workflow,
        profiles: ProfileSet,
        concurrency: int = 1,
        slo_ms: Milliseconds | None = None,
        mc_samples: int = 4000,
        seed: int = 7,
        target_percentile: float | None = None,
        safety_margin: float = 0.10,
    ) -> None:
        if not 0.0 <= safety_margin < 1.0:
            raise PolicyError(f"safety margin must be in [0, 1): {safety_margin}")
        slo = float(slo_ms if slo_ms is not None else workflow.slo_ms)
        chain = workflow.chain
        chain_profiles = profiles.for_chain(chain)
        key = (
            workflow.name,
            tuple(chain),
            tuple(p.digest() for p in chain_profiles),
            concurrency,
            slo,
            mc_samples,
            seed,
            target_percentile,
            safety_margin,
        )
        memo = _PLAN_MEMO.get(key)
        if memo is None:
            memo = _greedy_shrink(
                workflow.name, chain_profiles, profiles, concurrency, slo,
                mc_samples, seed, target_percentile, safety_margin,
            )
            _PLAN_MEMO[key] = memo
            if len(_PLAN_MEMO) > _PLAN_MEMO_SIZE:
                _PLAN_MEMO.popitem(last=False)
        else:
            _PLAN_MEMO.move_to_end(key)
        plan, e2e_p99_ms = memo
        super().__init__("ORION", plan)
        self.stage_order = tuple(chain)
        self.e2e_p99_ms = e2e_p99_ms
        self.slo_ms = slo
