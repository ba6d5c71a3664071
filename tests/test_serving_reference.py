"""Differential suite: the served loop against the per-request asyncio loop.

:class:`repro.serving.ServingLoop` serves requests ahead in blocks through
the analytic kernel and replays them in wavefront order, rolling back at a
hint hot-swap; ``tests/serving_reference.py`` is the asyncio loop it
replaced, one task per request and one scalar decision per stage. Both
must agree on the report and on every event, field for field and type for
type, apart from the wall-clock ``wall_seconds``.
"""

import asyncio
import types

import pytest

from repro.profiling.profiler import profile_workflow
from repro.scenarios.matrix import parse_fault
from repro.scenarios.registry import scenario_workflow
from repro.serving import ServingConfig, ServingLoop, read_events
from repro.fleet.topology import FleetConfig
from repro.traces.workload import ArrivalSpec

from tests.serving_reference import ReferenceServingLoop

SAMPLES = 300


@pytest.fixture(scope="module")
def ia_profiles():
    return profile_workflow(scenario_workflow("IA"), seed=0, samples=SAMPLES)


def config(**overrides):
    base = dict(
        source=ArrivalSpec(kind="poisson", rate_per_s=50.0),
        max_requests=400,
        samples=SAMPLES,
        metrics_every=50,
        workset_schedule=((120, 4.0),),
        miss_threshold=0.05,
        miss_window=100,
        min_samples=30,
        latency_window=128,
    )
    base.update(overrides)
    return ServingConfig(**base)


def without_wall_clock(events):
    out = []
    for event in events:
        event = dict(event)
        event.pop("wall_seconds", None)
        out.append(event)
    return out


def run_both(cfg, profiles=None):
    """Run both loops on ``cfg``; returns ``(new, reference)`` as
    ``(loop, report)`` pairs after checking that they agree."""
    runs = []
    for cls in (ServingLoop, ReferenceServingLoop):
        loop = cls(cfg, profiles=profiles)
        runs.append((loop, asyncio.run(loop.run())))
    (new, new_report), (ref, ref_report) = runs
    assert new_report.snapshot == ref_report.snapshot
    assert repr(new_report.snapshot) == repr(ref_report.snapshot)
    assert (new_report.arrivals, new_report.completed, new_report.swaps) == (
        ref_report.arrivals, ref_report.completed, ref_report.swaps
    )
    assert repr(without_wall_clock(new.events.events)) == repr(
        without_wall_clock(ref.events.events)
    )
    return runs


def swap_events(loop):
    return [e for e in loop.events.events if e["kind"] == "swap"]


class TestPolicies:
    @pytest.mark.parametrize("adapt", [True, False])
    @pytest.mark.parametrize(
        "policy", ["Janus", "Janus-", "GrandSLAM", "Optimal"]
    )
    def test_policy_and_adaptation(self, ia_profiles, policy, adapt):
        (_, report), _ = run_both(
            config(policy=policy, adapt=adapt), ia_profiles
        )
        assert report.completed == 400
        if not adapt or policy in ("GrandSLAM", "Optimal"):
            assert report.swaps == 0


class TestSwaps:
    @pytest.mark.parametrize(
        "schedule,threshold,swaps",
        [
            ((), 0.05, 0),
            (((120, 4.0),), 0.1, 1),
            (((120, 4.0),), 0.01, 6),
            # Drift that outruns re-synthesis: a swap every few blocks'
            # worth of lookups, the last one during the drain.
            (((60, 3.0), (160, 6.0), (260, 12.0)), 0.05, 19),
        ],
    )
    def test_drift_schedules(self, ia_profiles, schedule, threshold, swaps):
        (_, report), _ = run_both(
            config(workset_schedule=schedule, miss_threshold=threshold),
            ia_profiles,
        )
        assert report.swaps == swaps

    def test_swap_lands_on_in_flight_requests(self, ia_profiles):
        (new, _), _ = run_both(config(), ia_profiles)
        assert any(s["in_flight"] >= 1 for s in swap_events(new))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(miss_window=20, min_samples=20),
            dict(miss_window=300, min_samples=1),
            dict(miss_threshold=0.01),
            dict(miss_threshold=1.0),
            dict(miss_threshold=0.2, miss_window=50, min_samples=5),
            # Latency windows shorter than the lookups accounted at once.
            dict(latency_window=16, metrics_every=200),
        ],
    )
    def test_supervisor_variants(self, ia_profiles, overrides):
        run_both(config(**overrides), ia_profiles)

    def test_snapshot_every_completion(self, ia_profiles):
        (_, report), _ = run_both(
            config(metrics_every=1, max_requests=250), ia_profiles
        )
        assert report.swaps >= 1

    def test_first_lookup_can_notify(self, ia_profiles):
        # Under a tight SLO the very first lookup (round 0) misses and
        # raises the drift flag; the swap waits for the first completion,
        # in round L. The flag then rises again after every swap.
        (new, report), _ = run_both(
            config(
                workset_schedule=((0, 10.0),),
                slo_scale=0.4,
                miss_window=1,
                min_samples=1,
                max_requests=30,
            ),
            ia_profiles,
        )
        assert report.swaps == 30
        assert swap_events(new)[0]["completed"] == 1


class TestBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_short_runs(self, ia_profiles, n):
        # IA is a three-stage chain: 1, 2, L and L+1 requests.
        (_, report), _ = run_both(config(max_requests=n), ia_profiles)
        assert report.completed == n


    @pytest.mark.parametrize("n", [5, 137, 138, 139, 300])
    def test_wall_clock_bound_rolls_back_to_its_admission(
        self, ia_profiles, monkeypatch, n
    ):
        # The clock trips max_seconds at the check before admitting
        # request n, in the middle of a block whose lookups were already
        # accounted ahead; the run must equal one bounded at n requests.
        # The first swap happens in round 138.
        calls = iter(range(10**9))

        def clock():
            # Call 0 is the run's start; call i + 1 checks admission i.
            return 0.0 if next(calls) <= n else 1e9

        monkeypatch.setattr(
            "repro.serving.loop.time",
            types.SimpleNamespace(perf_counter=clock),
        )
        loop = ServingLoop(config(max_seconds=1.0), profiles=ia_profiles)
        report = asyncio.run(loop.run())
        reference = ReferenceServingLoop(
            config(max_requests=n), profiles=ia_profiles
        )
        reference_report = asyncio.run(reference.run())
        assert report.arrivals == n
        assert repr(report.snapshot) == repr(reference_report.snapshot)
        assert repr(without_wall_clock(loop.events.events)) == repr(
            without_wall_clock(reference.events.events)
        )


class TestArrivalSide:
    def test_storm(self, ia_profiles):
        run_both(
            config(
                source=ArrivalSpec(kind="diurnal", rate_per_s=50.0),
                faults=parse_fault("storm@6"),
            ),
            ia_profiles,
        )

    def test_fleet_with_region_failover(self, ia_profiles):
        (_, report), _ = run_both(
            config(
                source=ArrivalSpec(
                    kind="diurnal", rate_per_s=40.0, period_s=5.0
                ),
                fleet=FleetConfig(
                    regions=("us-east", "eu-west", "ap-south"),
                    routing="spillover",
                    capacity=4,
                ),
                faults=parse_fault("region-failover@2000"),
            ),
            ia_profiles,
        )
        assert report.snapshot["fleet_failovers"] > 0
        assert report.snapshot["fleet_rtt_penalty_ms"] > 0


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3, 2048])
    def test_block_sizes(self, ia_profiles, monkeypatch, block):
        monkeypatch.setattr("repro.serving.loop.DEFAULT_STREAM_CHUNK", block)
        (_, report), _ = run_both(
            config(workset_schedule=((60, 4.0), (160, 1.0))), ia_profiles
        )
        assert report.swaps >= 2

    def test_order_dependent_policy_is_served_one_request_per_block(
        self, ia_profiles, monkeypatch
    ):
        from repro.policies.janus import JanusPolicy

        monkeypatch.setattr(JanusPolicy, "vector_safe", False)
        seen = []
        serve = ServingLoop._serve

        def spy(self, requests, *args, **kwargs):
            seen.append(len(requests))
            return serve(self, requests, *args, **kwargs)

        monkeypatch.setattr(ServingLoop, "_serve", spy)
        (_, report), _ = run_both(config(max_requests=200), ia_profiles)
        assert report.swaps >= 1
        assert set(seen) == {1}

    def test_swap_on_a_block_edge(self, ia_profiles, monkeypatch):
        cfg = config()
        (new, _), _ = run_both(cfg, ia_profiles)
        swap = swap_events(new)[0]
        # The swap happens in the round that admits this request.
        swap_round = swap["completed"] - 1 + len(new.workflow.chain)
        for block in (swap_round - 1, swap_round, swap_round + 1):
            monkeypatch.setattr(
                "repro.serving.loop.DEFAULT_STREAM_CHUNK", block
            )
            run_both(cfg, ia_profiles)


class TestSinksAndPacing:
    def test_jsonl_bytes(self, ia_profiles, tmp_path):
        paths = []
        for cls, name in ((ServingLoop, "new"), (ReferenceServingLoop, "ref")):
            path = tmp_path / f"{name}.jsonl"
            loop = cls(config(event_log=str(path)), profiles=ia_profiles)
            asyncio.run(loop.run())
            paths.append(path)
        new, ref = (p.read_bytes().splitlines() for p in paths)
        # Everything but the stop line is byte-identical; the stop line
        # differs only in wall_seconds.
        assert new[:-1] == ref[:-1]
        assert without_wall_clock(read_events(paths[0])) == without_wall_clock(
            read_events(paths[1])
        )

    def test_paced_run_equals_unpaced(self, ia_profiles):
        unpaced = ServingLoop(config(max_requests=120), profiles=ia_profiles)
        unpaced_report = asyncio.run(unpaced.run())
        # 120 requests at 50/s span ~2.4 s of trace: x20 paces it into
        # ~0.12 s of wall clock.
        paced = ServingLoop(
            config(max_requests=120, time_scale=20.0), profiles=ia_profiles
        )
        paced_report = asyncio.run(paced.run())
        assert paced_report.snapshot == unpaced_report.snapshot
        assert paced_report.swaps == unpaced_report.swaps
        assert paced_report.wall_seconds < 1.0

        def strip(events):
            out = without_wall_clock(events)
            out[0].pop("time_scale")
            return out

        assert strip(paced.events.events) == strip(unpaced.events.events)
