"""Runtime: analytic executor, run results, drivers."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.policies.early_binding import FixedPlanPolicy
from repro.runtime.driver import build_policy_suite, compare, run_policies
from repro.runtime.executor import AnalyticExecutor
from repro.runtime.results import RunResult
from repro.traces.workload import WorkloadConfig, generate_requests
from repro.workflow.request import RequestOutcome, StageRecord


@pytest.fixture(scope="module")
def requests_small(request):
    wf = request.getfixturevalue("small_workflow")
    return generate_requests(wf, WorkloadConfig(n_requests=80), seed=21)


class TestAnalyticExecutor:
    def test_outcome_bookkeeping(self, small_workflow, requests_small):
        policy = FixedPlanPolicy("fixed", [2000, 2000, 2000])
        executor = AnalyticExecutor(small_workflow)
        outcome = executor.run(policy, requests_small[:1]).outcomes[0]
        assert len(outcome.stages) == 3
        assert outcome.allocated_millicores == 6000
        # Stages are back-to-back.
        for a, b in zip(outcome.stages, outcome.stages[1:]):
            assert b.start_ms == pytest.approx(a.end_ms)

    def test_deterministic_replay(self, small_workflow, requests_small):
        policy = FixedPlanPolicy("fixed", [1500, 1500, 1500])
        executor = AnalyticExecutor(small_workflow)
        a = executor.run(policy, requests_small)
        b = executor.run(policy, requests_small)
        np.testing.assert_array_equal(a.e2e_ms(), b.e2e_ms())

    def test_common_random_numbers_across_policies(
        self, small_workflow, requests_small
    ):
        # Same request under more cores is never slower — only meaningful
        # because both policies see identical dynamics.
        executor = AnalyticExecutor(small_workflow)
        small = executor.run(
            FixedPlanPolicy("s", [1000, 1000, 1000]), requests_small
        )
        big = executor.run(
            FixedPlanPolicy("b", [3000, 3000, 3000]), requests_small
        )
        assert np.all(big.e2e_ms() <= small.e2e_ms() + 1e-9)

    def test_off_grid_size_clamped(self, small_workflow, requests_small):
        policy = FixedPlanPolicy("odd", [1234, 1234, 1234])
        executor = AnalyticExecutor(small_workflow)
        outcome = executor.run(policy, requests_small[:1]).outcomes[0]
        assert all(
            small_workflow.limits.contains(s.size) for s in outcome.stages
        )

    def test_off_grid_size_rejected_when_strict(
        self, small_workflow, requests_small
    ):
        policy = FixedPlanPolicy("odd", [1234, 1234, 1234])
        executor = AnalyticExecutor(small_workflow, clamp_sizes=False)
        with pytest.raises(ExperimentError):
            executor.run(policy, requests_small[:1])

    def test_empty_stream_rejected(self, small_workflow):
        with pytest.raises(ExperimentError):
            AnalyticExecutor(small_workflow).run(
                FixedPlanPolicy("x", [1000] * 3), []
            )


class TestRunResult:
    def make(self, latencies, slo=1000.0, sizes=2000):
        outcomes = [
            RequestOutcome(
                request_id=i, arrival_ms=0.0, slo_ms=slo,
                stages=[StageRecord("F", sizes, 0.0, lat)],
            )
            for i, lat in enumerate(latencies)
        ]
        return RunResult(policy_name="p", outcomes=outcomes)

    def test_percentiles_and_violations(self):
        res = self.make([100, 200, 2000])
        assert res.violation_rate == pytest.approx(1 / 3)
        assert res.e2e_percentile(50) == 200.0

    def test_mean_allocated(self):
        res = self.make([100, 100])
        assert res.mean_allocated == 2000.0

    def test_normalized_cpu(self):
        a = self.make([100], sizes=3000)
        b = self.make([100], sizes=1500)
        assert a.normalized_cpu(b) == pytest.approx(2.0)

    def test_reduction_vs(self):
        janus_r = self.make([100], sizes=1500)
        base = self.make([100], sizes=2000)
        optimal = self.make([100], sizes=1000)
        # (2000 - 1500) / 1000 = 50%
        assert janus_r.reduction_vs(base, optimal) == pytest.approx(0.5)

    def test_summary_keys(self):
        summary = self.make([100]).summary()
        assert {"mean_allocated_millicores", "p99_e2e_ms",
                "violation_rate"} <= set(summary)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            RunResult(policy_name="p", outcomes=[])


class TestDriver:
    def test_build_full_suite(self, small_workflow, small_profiles):
        suite = build_policy_suite(small_workflow, small_profiles)
        assert {"Optimal", "ORION", "Janus", "Janus-", "Janus+",
                "GrandSLAM", "GrandSLAM+"} == set(suite)

    def test_subset(self, small_workflow, small_profiles):
        suite = build_policy_suite(
            small_workflow, small_profiles, include=["Optimal", "Janus"]
        )
        assert set(suite) == {"Optimal", "Janus"}

    def test_unknown_policy_rejected(self, small_workflow, small_profiles):
        with pytest.raises(ExperimentError):
            build_policy_suite(small_workflow, small_profiles, include=["Nope"])

    def test_infeasible_baselines_skipped(self, small_workflow, small_profiles):
        # A tight SLO may knock out early binders, but late binding and the
        # oracle always build.
        suite = build_policy_suite(
            small_workflow, small_profiles, slo_ms=5.0,
            include=["Optimal", "GrandSLAM"],
        )
        assert "Optimal" in suite and "GrandSLAM" not in suite

    def test_run_and_compare(self, small_workflow, small_profiles, requests_small):
        suite = build_policy_suite(
            small_workflow, small_profiles, include=["Optimal", "GrandSLAM"]
        )
        results = run_policies(small_workflow, suite, requests_small)
        table = compare(results)
        assert table["Optimal"]["normalized_cpu"] == pytest.approx(1.0)
        assert table["GrandSLAM"]["normalized_cpu"] >= 1.0

    def test_compare_missing_baseline(self, small_workflow, small_profiles,
                                      requests_small):
        suite = build_policy_suite(
            small_workflow, small_profiles, include=["GrandSLAM"]
        )
        results = run_policies(small_workflow, suite, requests_small)
        with pytest.raises(ExperimentError):
            compare(results, baseline="Optimal")
