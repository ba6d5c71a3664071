"""DAG workflow support: synthesis, policies, parallel execution.

The paper's §VII names complex workflows as future work; this suite covers
the extension: per-function hint tables over downstream critical paths,
DAG-aware policies, and the branch-parallel analytic executor.
"""

import numpy as np
import pytest

from repro.errors import PolicyError, SynthesisError
from repro.policies.dag import (
    DagFixedPolicy,
    DagGrandSLAMPolicy,
    DagJanusPolicy,
)
from repro.profiling.profiler import Profiler, ProfilerConfig
from repro.profiling.profiles import ProfileSet
from repro.rng import RngFactory
from repro.runtime.dag_executor import DagAnalyticExecutor
from repro.synthesis.dag import downstream_chain, synthesize_dag_hints
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.catalog import Workflow
from repro.workflow.dag import WorkflowDAG
from tests.conftest import make_function, small_limits, tiny_percentiles


@pytest.fixture(scope="module")
def diamond_workflow():
    """A -> (B heavy | C light) -> D diamond."""
    dag = WorkflowDAG(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )
    functions = {
        "A": make_function("A", serial=40, parallel=260, sigma=0.08, gamma=0.2),
        "B": make_function("B", serial=80, parallel=520, sigma=0.08, gamma=0.2),
        "C": make_function("C", serial=20, parallel=120, sigma=0.08, gamma=0.2),
        "D": make_function("D", serial=40, parallel=240, sigma=0.08, gamma=0.2),
    }
    return Workflow(
        name="diamond", dag=dag, functions=functions,
        slo_ms=1450.0, limits=small_limits(),
    )


@pytest.fixture(scope="module")
def diamond_profiles(diamond_workflow):
    cfg = ProfilerConfig(
        limits=diamond_workflow.limits,
        percentiles=tiny_percentiles(),
        samples=600,
    )
    profiler = Profiler(cfg)
    factory = RngFactory(13).fork("diamond")
    return ProfileSet({
        name: profiler.profile_function(
            diamond_workflow.model(name), factory.stream(name)
        )
        for name in diamond_workflow.dag.nodes
    })


@pytest.fixture(scope="module")
def diamond_requests(diamond_workflow):
    return generate_requests(
        diamond_workflow, WorkloadConfig(n_requests=150), seed=31
    )


class TestDownstreamChain:
    def test_critical_path_through_heavy_branch(
        self, diamond_workflow, diamond_profiles
    ):
        weights = {
            n: diamond_profiles[n].latency(99, 1000)
            for n in diamond_workflow.dag.nodes
        }
        chain = downstream_chain(diamond_workflow.dag, "A", weights)
        assert chain == ["A", "B", "D"]  # B is the heavy branch

    def test_light_branch_chain(self, diamond_workflow, diamond_profiles):
        weights = {
            n: diamond_profiles[n].latency(99, 1000)
            for n in diamond_workflow.dag.nodes
        }
        assert downstream_chain(diamond_workflow.dag, "C", weights) == ["C", "D"]
        assert downstream_chain(diamond_workflow.dag, "D", weights) == ["D"]

    def test_unknown_function_rejected(self, diamond_workflow):
        with pytest.raises(SynthesisError):
            downstream_chain(diamond_workflow.dag, "Z", {})


class TestDagSynthesis:
    def test_table_per_function(self, diamond_workflow, diamond_profiles):
        hints = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        assert set(hints.tables) == {"A", "B", "C", "D"}
        assert hints.chains["A"] == ("A", "B", "D")
        assert hints.total_rows > 0
        assert hints.synthesis_seconds > 0

    def test_chain_degenerates_to_suffix_tables(
        self, small_workflow, small_profiles
    ):
        # On a chain workflow the per-function tables equal the classic
        # per-suffix tables.
        from repro.synthesis.generator import synthesize_hints

        dag_hints = synthesize_dag_hints(small_workflow, small_profiles)
        chain_hints = synthesize_hints(small_profiles, small_workflow.chain)
        for j, fname in enumerate(small_workflow.chain):
            a = dag_hints.table_for(fname)
            b = chain_hints.table_for_stage(j)
            # Same decisions wherever both tables cover the budget.
            lo = max(a.tmin_ms, b.tmin_ms)
            hi = min(a.tmax_ms, b.tmax_ms)
            for budget in np.linspace(lo, hi, 25):
                assert a.lookup(budget).size == b.lookup(budget).size

    def test_unknown_function_lookup_rejected(
        self, diamond_workflow, diamond_profiles
    ):
        hints = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        with pytest.raises(SynthesisError):
            hints.table_for("Z")

    def test_json_round_trip(self, diamond_workflow, diamond_profiles):
        from repro.synthesis.dag import DagWorkflowHints

        hints = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        restored = DagWorkflowHints.from_json(hints.to_json())
        assert set(restored.tables) == set(hints.tables)
        assert restored.chains == hints.chains
        assert restored.metadata == hints.metadata
        for name in hints.tables:
            assert restored.tables[name].rows() == hints.tables[name].rows()
            assert restored.tables[name].kmax == hints.tables[name].kmax


class TestDagHintsMemo:
    def test_memory_memo_returns_shared_object(
        self, diamond_workflow, diamond_profiles
    ):
        from repro.synthesis.dag import (
            clear_dag_hints_cache,
            dag_hints_cache_stats,
        )

        clear_dag_hints_cache()
        before = dag_hints_cache_stats()
        first = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        again = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        assert again is first
        after = dag_hints_cache_stats()
        assert after["syntheses"] == before["syntheses"] + 1
        assert after["memory_hits"] == before["memory_hits"] + 1

    def test_knobs_key_the_memo(self, diamond_workflow, diamond_profiles):
        from repro.synthesis.dag import clear_dag_hints_cache
        from repro.synthesis.generator import HeadExploration

        clear_dag_hints_cache()
        base = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        pinned = synthesize_dag_hints(
            diamond_workflow, diamond_profiles,
            exploration=HeadExploration.NONE,
        )
        assert pinned is not base

    def test_disk_layer_round_trips_without_resynthesis(
        self, diamond_workflow, diamond_profiles, tmp_path
    ):
        from repro.synthesis.dag import (
            clear_dag_hints_cache,
            dag_hints_cache_stats,
            set_dag_hints_cache_dir,
        )

        set_dag_hints_cache_dir(tmp_path)
        try:
            clear_dag_hints_cache()
            live = synthesize_dag_hints(diamond_workflow, diamond_profiles)
            assert list(tmp_path.iterdir())  # persisted
            clear_dag_hints_cache()  # cold memory, warm disk
            before = dag_hints_cache_stats()
            restored = synthesize_dag_hints(
                diamond_workflow, diamond_profiles
            )
            after = dag_hints_cache_stats()
            assert after["disk_hits"] == before["disk_hits"] + 1
            assert after["syntheses"] == before["syntheses"]
            for name in live.tables:
                assert (
                    restored.tables[name].rows() == live.tables[name].rows()
                )
        finally:
            set_dag_hints_cache_dir(None)

    def test_torn_disk_entry_is_a_miss(
        self, diamond_workflow, diamond_profiles, tmp_path
    ):
        from repro.synthesis.dag import (
            clear_dag_hints_cache,
            set_dag_hints_cache_dir,
        )

        set_dag_hints_cache_dir(tmp_path)
        try:
            clear_dag_hints_cache()
            live = synthesize_dag_hints(diamond_workflow, diamond_profiles)
            [entry] = list(tmp_path.iterdir())
            entry.write_text("{torn")
            clear_dag_hints_cache()
            healed = synthesize_dag_hints(diamond_workflow, diamond_profiles)
            for name in live.tables:
                assert healed.tables[name].rows() == live.tables[name].rows()
        finally:
            set_dag_hints_cache_dir(None)


class TestDagExecutor:
    def test_parallel_branches_overlap(self, diamond_workflow, diamond_requests):
        policy = DagFixedPolicy(
            "fixed", {n: 2000 for n in diamond_workflow.dag.nodes}
        )
        executor = DagAnalyticExecutor(diamond_workflow)
        outcome = executor.run(policy, diamond_requests[:1]).outcomes[0]
        by_name = outcome.stage_map()
        # B and C both start when A ends.
        assert by_name["B"].start_ms == pytest.approx(by_name["A"].end_ms)
        assert by_name["C"].start_ms == pytest.approx(by_name["A"].end_ms)
        # D starts when the slower branch ends.
        assert by_name["D"].start_ms == pytest.approx(
            max(by_name["B"].end_ms, by_name["C"].end_ms)
        )

    def test_e2e_is_critical_path(self, diamond_workflow, diamond_requests):
        policy = DagFixedPolicy(
            "fixed", {n: 2000 for n in diamond_workflow.dag.nodes}
        )
        outcome = DagAnalyticExecutor(diamond_workflow).run(
            policy, diamond_requests[:1]
        ).outcomes[0]
        by_name = outcome.stage_map()
        assert outcome.e2e_ms == pytest.approx(
            by_name["D"].end_ms - outcome.arrival_ms
        )
        # The chain-sum of all stages exceeds the critical path (overlap).
        assert outcome.e2e_ms < sum(s.execution_ms for s in outcome.stages)

    def test_missing_plan_entry_rejected(self, diamond_workflow, diamond_requests):
        policy = DagFixedPolicy("partial", {"A": 1000})
        with pytest.raises(PolicyError):
            DagAnalyticExecutor(diamond_workflow).run(
                policy, diamond_requests[:1]
            )

    def test_empty_stream_rejected(self, diamond_workflow):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            DagAnalyticExecutor(diamond_workflow).run(
                DagFixedPolicy("f", {"A": 1000}), []
            )


class TestDagPolicies:
    def test_grandslam_dag_meets_slo(
        self, diamond_workflow, diamond_profiles, diamond_requests
    ):
        policy = DagGrandSLAMPolicy(diamond_workflow, diamond_profiles)
        result = DagAnalyticExecutor(diamond_workflow).run(
            policy, diamond_requests
        )
        assert result.violation_rate <= 0.01 + 1e-9

    def test_grandslam_dag_infeasible_rejected(
        self, diamond_workflow, diamond_profiles
    ):
        with pytest.raises(PolicyError):
            DagGrandSLAMPolicy(diamond_workflow, diamond_profiles, slo_ms=10.0)

    def test_janus_dag_meets_slo_and_saves(
        self, diamond_workflow, diamond_profiles, diamond_requests
    ):
        hints = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        janus_pol = DagJanusPolicy(diamond_workflow, hints)
        early = DagGrandSLAMPolicy(diamond_workflow, diamond_profiles)
        executor = DagAnalyticExecutor(diamond_workflow)
        janus_res = executor.run(janus_pol, diamond_requests)
        early_res = executor.run(early, diamond_requests)
        assert janus_res.violation_rate <= 0.01 + 1e-9
        assert janus_res.mean_allocated < early_res.mean_allocated
        assert janus_pol.hit_rate > 0.9

    def test_janus_dag_requires_full_tables(
        self, diamond_workflow, diamond_profiles
    ):
        hints = synthesize_dag_hints(diamond_workflow, diamond_profiles)
        del hints.tables["D"], hints.chains["D"]
        with pytest.raises(PolicyError):
            DagJanusPolicy(diamond_workflow, hints)

    def test_fixed_policy_validation(self):
        with pytest.raises(PolicyError):
            DagFixedPolicy("x", {})
        with pytest.raises(PolicyError):
            DagFixedPolicy("x", {"A": 0})
