"""Sizing policies: early binders, ORION, Janus family, Optimal oracle."""

import pytest

from repro.errors import PolicyError
from repro.policies.early_binding import (
    FixedPlanPolicy,
    GrandSLAMPlusPolicy,
    GrandSLAMPolicy,
    WorstCasePolicy,
)
from repro.policies.janus import JanusPolicy, janus, janus_minus, janus_plus
from repro.policies.oracle import OraclePolicy
from repro.policies.orion import OrionPolicy
from repro.runtime.executor import AnalyticExecutor
from repro.synthesis.generator import synthesize_hints
from repro.traces.workload import WorkloadConfig, generate_requests


@pytest.fixture(scope="module")
def requests_small(request):
    wf = request.getfixturevalue("small_workflow")
    return generate_requests(wf, WorkloadConfig(n_requests=150), seed=9)


class TestFixedPlan:
    def test_constant_sizes(self, small_workflow, requests_small):
        policy = FixedPlanPolicy("fixed", [1000, 2000, 3000])
        policy.bind(small_workflow)
        req = requests_small[0]
        assert policy.size_for_node("F0", req, 0.0) == 1000
        assert policy.size_for_node("F2", req, 500.0) == 3000
        assert policy.total_millicores == 6000

    def test_out_of_range_stage(self, small_workflow, requests_small):
        policy = FixedPlanPolicy("fixed", [1000])
        policy.bind(small_workflow)
        with pytest.raises(PolicyError, match="outside plan"):
            policy.size_for_node("F1", requests_small[0], 0.0)

    def test_validation(self):
        with pytest.raises(PolicyError):
            FixedPlanPolicy("x", [])
        with pytest.raises(PolicyError):
            FixedPlanPolicy("x", [0])

    def test_worst_case(self, small_workflow):
        policy = WorstCasePolicy(small_workflow)
        assert policy.plan == [3000, 3000, 3000]


class TestGrandSLAM:
    def test_uniform_sizes(self, small_workflow, small_profiles):
        policy = GrandSLAMPolicy(small_workflow, small_profiles)
        assert len(set(policy.plan)) == 1  # identical sizes by construction

    def test_meets_p99_budget(self, small_workflow, small_profiles):
        policy = GrandSLAMPolicy(small_workflow, small_profiles)
        total = sum(
            small_profiles[f].latency(99, k)
            for f, k in zip(small_workflow.chain, policy.plan)
        )
        assert total <= small_workflow.slo_ms

    def test_minimal_uniform(self, small_workflow, small_profiles):
        policy = GrandSLAMPolicy(small_workflow, small_profiles)
        k = policy.plan[0]
        if k > small_workflow.limits.kmin:
            smaller = k - small_workflow.limits.step
            total = sum(
                small_profiles[f].latency(99, smaller)
                for f in small_workflow.chain
            )
            assert total > small_workflow.slo_ms

    def test_infeasible_slo_rejected(self, small_workflow, small_profiles):
        with pytest.raises(PolicyError):
            GrandSLAMPolicy(small_workflow, small_profiles, slo_ms=10.0)

    def test_plus_never_worse(self, small_workflow, small_profiles):
        gs = GrandSLAMPolicy(small_workflow, small_profiles)
        gsp = GrandSLAMPlusPolicy(small_workflow, small_profiles)
        assert gsp.total_millicores <= gs.total_millicores

    def test_plus_meets_budget(self, small_workflow, small_profiles):
        gsp = GrandSLAMPlusPolicy(small_workflow, small_profiles)
        total = sum(
            small_profiles[f].latency(99, k)
            for f, k in zip(small_workflow.chain, gsp.plan)
        )
        assert total <= small_workflow.slo_ms

    def test_plus_infeasible_rejected(self, small_workflow, small_profiles):
        with pytest.raises(PolicyError):
            GrandSLAMPlusPolicy(small_workflow, small_profiles, slo_ms=10.0)


class TestOrion:
    def test_cheaper_than_grandslam_plus(self, small_workflow, small_profiles):
        # The convolution concentrates, so ORION provisions less.
        orion = OrionPolicy(small_workflow, small_profiles, safety_margin=0.0)
        gsp = GrandSLAMPlusPolicy(small_workflow, small_profiles)
        assert orion.total_millicores <= gsp.total_millicores

    def test_meets_slo_on_common_randomness(
        self, small_workflow, small_profiles, requests_small
    ):
        orion = OrionPolicy(small_workflow, small_profiles)
        result = AnalyticExecutor(small_workflow).run(orion, requests_small)
        assert result.violation_rate <= 0.02

    def test_safety_margin_increases_allocation(
        self, small_workflow, small_profiles
    ):
        loose = OrionPolicy(small_workflow, small_profiles, safety_margin=0.0)
        tight = OrionPolicy(small_workflow, small_profiles, safety_margin=0.15)
        assert tight.total_millicores >= loose.total_millicores

    def test_invalid_margin(self, small_workflow, small_profiles):
        with pytest.raises(PolicyError):
            OrionPolicy(small_workflow, small_profiles, safety_margin=1.5)

    def test_infeasible_slo_rejected(self, small_workflow, small_profiles):
        with pytest.raises(PolicyError):
            OrionPolicy(small_workflow, small_profiles, slo_ms=10.0)


class TestOracle:
    def test_optimal_meets_slo_whenever_possible(
        self, small_workflow, requests_small
    ):
        oracle = OraclePolicy(small_workflow)
        result = AnalyticExecutor(small_workflow).run(oracle, requests_small)
        # With the calibrated workloads the SLO is always attainable.
        assert result.violation_rate == 0.0

    def test_never_more_than_worst_case(self, small_workflow, requests_small):
        executor = AnalyticExecutor(small_workflow)
        oracle = executor.run(OraclePolicy(small_workflow), requests_small)
        worst = executor.run(WorstCasePolicy(small_workflow), requests_small)
        assert oracle.mean_allocated <= worst.mean_allocated

    def test_cheapest_policy(self, small_workflow, small_profiles, requests_small):
        # The oracle lower-bounds every SLO-compliant policy on the same
        # randomness.
        executor = AnalyticExecutor(small_workflow)
        oracle = executor.run(OraclePolicy(small_workflow), requests_small)
        gsp = executor.run(
            GrandSLAMPlusPolicy(small_workflow, small_profiles), requests_small
        )
        assert oracle.mean_allocated <= gsp.mean_allocated + 1e-9

    def test_plan_is_feasible_per_request(self, small_workflow, requests_small):
        oracle = OraclePolicy(small_workflow)
        req = requests_small[0]
        oracle.begin_request(req)
        elapsed = 0.0
        for fname in small_workflow.chain:
            k = oracle.size_for_node(fname, req, elapsed)
            elapsed += small_workflow.model(fname).execution_time(
                k, req.dynamics_for(fname)
            )
        assert elapsed <= req.slo_ms + len(small_workflow.chain)  # ceil slack
        oracle.end_request(req)

    def test_requires_begin_request(self, small_workflow, requests_small):
        oracle = OraclePolicy(small_workflow)
        with pytest.raises(PolicyError):
            oracle.size_for_node("F0", requests_small[0], 0.0)

    def test_end_request_clears_state(self, small_workflow, requests_small):
        oracle = OraclePolicy(small_workflow)
        req = requests_small[0]
        oracle.begin_request(req)
        oracle.end_request(req)
        with pytest.raises(PolicyError):
            oracle.size_for_node("F0", req, 0.0)


class TestJanusFamily:
    def test_janus_complies_with_slo(
        self, small_workflow, small_profiles, requests_small
    ):
        policy = janus(small_workflow, small_profiles)
        result = AnalyticExecutor(small_workflow).run(policy, requests_small)
        assert result.violation_rate <= 0.01 + 1e-9

    def test_variant_ordering(self, small_workflow, small_profiles, requests_small):
        # Janus <= Janus- in consumption; Janus+ <= Janus (within noise).
        executor = AnalyticExecutor(small_workflow)
        res = {
            name: executor.run(pol, requests_small).mean_allocated
            for name, pol in {
                "janus": janus(small_workflow, small_profiles),
                "minus": janus_minus(small_workflow, small_profiles),
                "plus": janus_plus(small_workflow, small_profiles),
            }.items()
        }
        assert res["janus"] <= res["minus"] * 1.02
        assert res["plus"] <= res["janus"] * 1.02

    def test_hit_rate_high_in_distribution(
        self, small_workflow, small_profiles, requests_small
    ):
        policy = janus(small_workflow, small_profiles)
        AnalyticExecutor(small_workflow).run(policy, requests_small)
        assert policy.hit_rate >= 0.95

    def test_stage_count_mismatch_rejected(self, small_workflow, small_profiles):
        hints = synthesize_hints(small_profiles, ["F0", "F1"])
        with pytest.raises(PolicyError):
            JanusPolicy(small_workflow, hints)

    def test_synthesis_seconds_exposed(self, small_workflow, small_profiles):
        policy = janus(small_workflow, small_profiles)
        assert policy.synthesis_seconds > 0
