"""The Optimal oracle's batched cost-axis solver and its lazy batching.

* :func:`cheapest_plans` is pinned plan-for-plan against the dense
  budget-axis DP it replaced (``tests/oracle_reference.py``) and against a
  brute-force lexicographic search, on random chains with non-monotone
  durations, forced ties, budgets from 0 to beyond every plan, and the Kmax
  fallback.
* Metamorphic optimality: on every request the oracle allocates no more
  than any registry policy that met the SLO on that request.
* Lazy batching: ``begin_request`` only registers, the first sizing call
  solves every pending request, and no call order across requests (scalar,
  batched, interleaved as in the cluster and batching executors) changes a
  plan.
* The ORION plan memo returns identical plans on a hit and never conflates
  configurations that differ in any input.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.policies import oracle as oracle_mod
from repro.policies import orion as orion_mod
from repro.policies.oracle import OraclePolicy, cheapest_plans
from repro.policies.orion import OrionPolicy
from repro.profiling.profiler import Profiler, ProfilerConfig
from repro.rng import RngFactory
from repro.runtime.batching import BatchingExecutor
from repro.runtime.driver import build_policy_suite
from repro.runtime.executor import AnalyticExecutor
from repro.runtime.registry import get_executor
from repro.traces.workload import WorkloadConfig, generate_requests
from tests.conftest import make_chain_workflow, tiny_percentiles
from tests.executor_reference import reference_outcomes
from tests.oracle_reference import budget_dp_plan, reference_plan


def brute_force_plan(durations: np.ndarray, tmax: int) -> list[int]:
    """Lexicographically first plan of minimum index sum within ``tmax``."""
    n, num_k = durations.shape
    combos = np.array(list(itertools.product(range(num_k), repeat=n)))
    totals = durations[np.arange(n), combos].sum(axis=1)
    feasible = totals <= tmax
    if not feasible.any():
        return [num_k - 1] * n
    costs = combos.sum(axis=1)
    best = costs[feasible].min()
    return combos[np.flatnonzero(feasible & (costs == best))[0]].tolist()


@st.composite
def solver_cases(draw, max_duration: int = 40):
    """A batch of random chains sharing ``(N, K)`` plus one budget."""
    n = draw(st.integers(1, 5))
    num_k = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 4))
    top = draw(st.integers(1, max_duration))
    flat = draw(
        st.lists(
            st.integers(1, top),
            min_size=rows * n * num_k,
            max_size=rows * n * num_k,
        )
    )
    durations = np.array(flat, dtype=np.int64).reshape(rows, n, num_k)
    tmax = draw(st.integers(0, n * top + 2))
    return durations, tmax


def check_against_references(durations: np.ndarray, tmax: int) -> None:
    num_k = durations.shape[2]
    k_vals = 1000 + 100 * np.arange(num_k)
    got = cheapest_plans(durations, tmax).tolist()
    for row, plan in zip(durations, got):
        assert plan == budget_dp_plan(row, tmax, k_vals)
        assert plan == brute_force_plan(row, tmax)


class TestCheapestPlans:
    @settings(max_examples=300, deadline=None)
    @given(solver_cases())
    def test_matches_dp_and_brute_force(self, case):
        check_against_references(*case)

    @settings(max_examples=150, deadline=None)
    @given(solver_cases(max_duration=3))
    def test_forced_ties(self, case):
        check_against_references(*case)

    @settings(max_examples=50, deadline=None)
    @given(solver_cases())
    def test_budget_beyond_every_plan_takes_kmin(self, case):
        durations, _ = case
        tmax = int(durations.max(axis=2).sum(axis=1).max())
        plans = cheapest_plans(durations, tmax)
        assert not plans.any()
        check_against_references(durations, tmax)

    @settings(max_examples=50, deadline=None)
    @given(solver_cases())
    def test_infeasible_budget_falls_back_to_kmax(self, case):
        durations, _ = case
        tmax = int(durations.min(axis=2).sum(axis=1).min()) - 1
        plans = cheapest_plans(durations, tmax)
        assert (plans == durations.shape[2] - 1).all()
        check_against_references(durations, tmax)

    def test_rows_solved_independently(self):
        rng = np.random.default_rng(3)
        durations = rng.integers(1, 30, size=(64, 4, 6))
        batch = cheapest_plans(durations, 60)
        for row, plan in zip(durations, batch):
            assert plan.tolist() == cheapest_plans(row[None], 60)[0].tolist()

    def test_non_monotone_durations(self):
        # A larger size may be *slower*; the solver must not skip it.
        durations = np.array([[[5, 9, 2], [4, 1, 7]]])
        assert cheapest_plans(durations, 6).tolist() == [[0, 1]]
        assert cheapest_plans(durations, 3).tolist() == [[2, 1]]


def _stage_sizes(result) -> dict[int, list[int]]:
    return {
        o.request_id: [s.size for s in o.stages] for o in result.outcomes
    }


class TestOracleOptimality:
    def test_matches_reference_on_workflow_streams(
        self, ia_workflow, small_workflow
    ):
        for wf in (ia_workflow, small_workflow):
            for scale in (0.7, 1.0, 1.3):
                slo = wf.slo_ms * scale
                requests = generate_requests(
                    wf, WorkloadConfig(n_requests=60), seed=int(scale * 10)
                )
                result = AnalyticExecutor(wf).run(
                    OraclePolicy(wf, slo_ms=slo), requests
                )
                sizes = _stage_sizes(result)
                for r in requests:
                    assert sizes[r.request_id] == reference_plan(wf, r, slo)

    def test_never_above_any_policy_that_met_the_slo(
        self, small_workflow, small_profiles, small_budget
    ):
        wf = small_workflow
        requests = generate_requests(wf, WorkloadConfig(n_requests=200), seed=21)
        executor = AnalyticExecutor(wf)
        suite = build_policy_suite(wf, small_profiles, budget=small_budget)
        oracle = executor.run(suite.pop("Optimal"), requests).allocated()
        # The oracle plans on integer-ms (ceil'd) durations against
        # int(SLO); a plan that met the SLO with this much slack is
        # feasible on that grid too.
        margin = len(wf.chain) + 1
        assert suite
        for policy in suite.values():
            result = executor.run(policy, requests)
            met = result.e2e_ms() <= wf.slo_ms - margin
            assert met.any()
            assert (oracle[met] <= result.allocated()[met]).all(), policy.name


class TestOracleLazyBatch:
    def test_scalar_and_batched_runs_agree(self, small_workflow):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=50), seed=4
        )
        executor = AnalyticExecutor(small_workflow)
        batched = executor.run(OraclePolicy(small_workflow), requests)
        scalar = reference_outcomes(
            small_workflow, OraclePolicy(small_workflow), requests
        )
        assert _stage_sizes(batched) == {
            o.request_id: [s.size for s in o.stages] for o in scalar
        }

    def test_solve_chunks_agree_with_one_batch(self, small_workflow, monkeypatch):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=30), seed=5
        )
        executor = AnalyticExecutor(small_workflow)
        whole = executor.run(OraclePolicy(small_workflow), requests)
        monkeypatch.setattr(oracle_mod, "_SOLVE_CHUNK", 7)
        chunked = executor.run(OraclePolicy(small_workflow), requests)
        assert _stage_sizes(chunked) == _stage_sizes(whole)

    def test_sizing_without_begin_raises(self, small_workflow):
        requests = generate_requests(
            small_workflow, WorkloadConfig(n_requests=2), seed=1
        )
        oracle = OraclePolicy(small_workflow)
        oracle.begin_request(requests[0])
        with pytest.raises(PolicyError, match="begin_request not called"):
            oracle.size_for_node("F0", requests[1], 0.0)
        with pytest.raises(PolicyError, match="begin_request not called"):
            oracle.sizes_for_node("F0", requests, np.zeros(2))

    def test_stage_out_of_range_raises(self, small_workflow):
        request = generate_requests(
            small_workflow, WorkloadConfig(n_requests=1), seed=1
        )[0]
        oracle = OraclePolicy(small_workflow)
        # Bound to a longer chain, the oracle is asked for a stage its plan
        # does not have.
        oracle.bind(make_chain_workflow(n=4))
        oracle.begin_request(request)
        with pytest.raises(PolicyError, match="out of range"):
            oracle.size_for_node("F3", request, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_hooks_give_reference_plans(self, small_workflow, seed):
        wf = small_workflow
        requests = generate_requests(wf, WorkloadConfig(n_requests=25), seed=seed)
        oracle = OraclePolicy(wf)
        rng = np.random.default_rng(seed)
        waiting = list(requests)
        active: dict[int, list[int]] = {}
        done: dict[int, list[int]] = {}
        by_id = {r.request_id: r for r in requests}
        n = len(wf.chain)
        while waiting or active:
            move = rng.integers(3)
            if waiting and (move == 0 or not active):
                request = waiting.pop(0)
                oracle.begin_request(request)
                active[request.request_id] = []
                continue
            rid = list(active)[rng.integers(len(active))]
            sizes = active[rid]
            if len(sizes) < n:
                node = wf.chain[len(sizes)]
                sizes.append(oracle.size_for_node(node, by_id[rid], 0.0))
            else:
                oracle.end_request(by_id[rid])
                done[rid] = active.pop(rid)
        for r in requests:
            assert done[r.request_id] == reference_plan(wf, r, wf.slo_ms)

    def test_cluster_executor_gives_reference_plans(self, small_workflow):
        wf = small_workflow
        # Arrivals far faster than service, so requests overlap in flight.
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=30, arrival_rate_per_s=50.0), seed=6
        )
        result = get_executor("cluster", wf).run(OraclePolicy(wf), requests)
        sizes = _stage_sizes(result)
        for r in requests:
            assert sizes[r.request_id] == reference_plan(wf, r, wf.slo_ms)

    def test_batching_executor_sizes_by_oldest_member(self, small_workflow):
        wf = small_workflow
        requests = generate_requests(
            wf, WorkloadConfig(n_requests=30, arrival_rate_per_s=20.0), seed=2
        )
        executor = BatchingExecutor(wf, max_batch=3)
        result = executor.run(OraclePolicy(wf), requests)
        sizes = _stage_sizes(result)
        for batch in executor.form_batches(requests):
            plan = reference_plan(wf, batch[0], wf.slo_ms)
            assert all(sizes[r.request_id] == plan for r in batch)

    def test_end_request_clears_pending(self, small_workflow):
        request = generate_requests(
            small_workflow, WorkloadConfig(n_requests=1), seed=1
        )[0]
        oracle = OraclePolicy(small_workflow)
        oracle.begin_request(request)
        oracle.end_request(request)
        assert not oracle._pending and not oracle._plan


class TestOrionMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        orion_mod._PLAN_MEMO.clear()
        yield
        orion_mod._PLAN_MEMO.clear()

    def test_hit_returns_identical_plan_on_a_fresh_instance(
        self, small_workflow, small_profiles
    ):
        first = OrionPolicy(small_workflow, small_profiles)
        assert len(orion_mod._PLAN_MEMO) == 1
        second = OrionPolicy(small_workflow, small_profiles)
        assert len(orion_mod._PLAN_MEMO) == 1
        assert second is not first and second.plan is not first.plan
        assert second.plan == first.plan
        assert second.e2e_p99_ms == first.e2e_p99_ms
        second.plan[0] = 0  # no state shared with later builds
        assert OrionPolicy(small_workflow, small_profiles).plan == first.plan

    @staticmethod
    def assert_separate_entries(build_base, build_variant):
        """Building the variant after the base equals building it cold, and
        differs from the base, so a key missing the varied input fails."""
        base = build_base()
        warm = build_variant()
        orion_mod._PLAN_MEMO.clear()
        cold = build_variant()
        assert (warm.plan, warm.e2e_p99_ms) == (cold.plan, cold.e2e_p99_ms)
        assert (cold.plan, cold.e2e_p99_ms) != (base.plan, base.e2e_p99_ms)

    @pytest.mark.parametrize(
        "variant",
        [
            {"slo_ms": 1375.0},
            {"safety_margin": 0.0},
            {"safety_margin": 0.2},
            {"mc_samples": 1000},
            {"seed": 8},
            {"target_percentile": 75.0},
        ],
    )
    def test_configurations_do_not_collide(
        self, small_workflow, small_profiles, variant
    ):
        # At this SLO the cushion binds, so every variant changes the result.
        wf = small_workflow.with_slo(1100.0)
        self.assert_separate_entries(
            lambda: OrionPolicy(wf, small_profiles),
            lambda: OrionPolicy(wf, small_profiles, **variant),
        )

    def test_keyed_on_effective_slo(self, small_workflow, small_profiles):
        # slo_ms=None means "the workflow's SLO": two workflows that differ
        # only in SLO must not share an entry.
        tight = small_workflow.with_slo(1100.0)
        loose = small_workflow.with_slo(1375.0)
        self.assert_separate_entries(
            lambda: OrionPolicy(tight, small_profiles),
            lambda: OrionPolicy(loose, small_profiles),
        )
        assert OrionPolicy(loose, small_profiles).slo_ms == 1375.0

    def test_keyed_on_workflow_name(self, small_workflow, small_profiles):
        wf = small_workflow.with_slo(1100.0)
        renamed = dataclasses.replace(wf, name="renamed")
        self.assert_separate_entries(
            lambda: OrionPolicy(wf, small_profiles),
            lambda: OrionPolicy(renamed, small_profiles),
        )

    def test_keyed_on_profiles_and_concurrency(self, small_workflow):
        def profiles(seed):
            cfg = ProfilerConfig(
                limits=small_workflow.limits,
                percentiles=tiny_percentiles(),
                concurrencies=(1, 2),
                samples=300,
            )
            return Profiler(cfg).profile_models(
                small_workflow.models_in_order(), RngFactory(seed).fork("tests")
            )

        first, second = profiles(11), profiles(12)
        self.assert_separate_entries(
            lambda: OrionPolicy(small_workflow, first),
            lambda: OrionPolicy(small_workflow, second),
        )
        self.assert_separate_entries(
            lambda: OrionPolicy(small_workflow, first, concurrency=1),
            lambda: OrionPolicy(small_workflow, first, concurrency=2),
        )

    def test_memo_is_bounded(self, small_workflow, small_profiles):
        for i in range(orion_mod._PLAN_MEMO_SIZE + 5):
            OrionPolicy(small_workflow, small_profiles, seed=i, mc_samples=200)
        assert len(orion_mod._PLAN_MEMO) == orion_mod._PLAN_MEMO_SIZE

    def test_infeasible_configuration_is_not_memoised(
        self, small_workflow, small_profiles
    ):
        with pytest.raises(PolicyError):
            OrionPolicy(small_workflow, small_profiles, slo_ms=10.0)
        assert not orion_mod._PLAN_MEMO
