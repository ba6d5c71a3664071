"""Provider-side adapter: decisions, supervision, service registry."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adapter.adapter import JanusAdapter
from repro.adapter.service import AdapterService
from repro.adapter.supervisor import HitMissSupervisor
from repro.errors import AdapterError
from repro.synthesis.hints import CondensedHintsTable, WorkflowHints


def make_hints(n_stages=3, tmin=500, tmax=3000):
    tables = []
    for i in range(n_stages):
        # Coarse synthetic tables: generous budgets -> small sizes.
        starts = np.array([tmin, tmin + 500, tmin + 1500])
        ends = np.array([tmin + 499, tmin + 1499, tmax])
        sizes = np.array([3000, 2000, 1000])
        tables.append(
            CondensedHintsTable(i, f"F{i}", starts, ends, sizes, kmax=3000)
        )
    return WorkflowHints(
        workflow_name="w", concurrency=1, weight=1.0, tables=tables,
        raw_hint_count=100, condensed_hint_count=9,
    )


class TestSupervisor:
    def test_counts_and_rates(self):
        sup = HitMissSupervisor(min_samples=5)
        for hit in (True, True, False, True):
            sup.record(hit)
        assert sup.hits == 3 and sup.misses == 1
        assert sup.miss_rate == pytest.approx(0.25)
        assert sup.hit_rate == pytest.approx(0.75)

    def test_no_lookups_yet(self):
        sup = HitMissSupervisor()
        assert sup.miss_rate == 0.0 and sup.hit_rate == 0.0

    def test_trigger_requires_min_samples(self):
        sup = HitMissSupervisor(miss_threshold=0.1, min_samples=10)
        fired = []
        sup.on_regenerate(lambda s: fired.append(s.miss_rate))
        for _ in range(5):
            sup.record(False)
        assert not fired  # below min_samples despite 100% misses
        for _ in range(5):
            sup.record(False)
        assert len(fired) == 1

    def test_trigger_fires_once_until_reset(self):
        sup = HitMissSupervisor(miss_threshold=0.01, min_samples=2)
        fired = []
        sup.on_regenerate(lambda s: fired.append(1))
        for _ in range(10):
            sup.record(False)
        assert len(fired) == 1
        sup.reset()
        assert sup.total == 0
        for _ in range(10):
            sup.record(False)
        assert len(fired) == 2

    def test_threshold_validation(self):
        with pytest.raises(AdapterError):
            HitMissSupervisor(miss_threshold=0.0)
        with pytest.raises(AdapterError):
            HitMissSupervisor(min_samples=0)

    def test_snapshot(self):
        sup = HitMissSupervisor()
        sup.record(True)
        snap = sup.snapshot()
        assert snap == {"hits": 1, "misses": 0, "miss_rate": 0.0}


class TestWindowedSupervisor:
    def test_window_validation(self):
        with pytest.raises(AdapterError):
            HitMissSupervisor(window=0)
        with pytest.raises(AdapterError, match="cannot exceed"):
            HitMissSupervisor(min_samples=50, window=10)

    def test_misses_roll_off_the_window(self):
        sup = HitMissSupervisor(min_samples=1, window=4)
        for _ in range(4):
            sup.record(False)
        assert sup.miss_rate == 1.0
        for _ in range(4):
            sup.record(True)
        # All misses have left the window; all-time accounting remembers.
        assert sup.miss_rate == 0.0
        assert sup.cumulative_miss_rate == pytest.approx(0.5)
        assert sup.window_total == 4 and sup.total == 8

    def test_boundary_exact_eviction(self):
        # The rate at the window boundary counts exactly the last N
        # outcomes: N-1 hits then 1 miss then N-1 hits -> one miss inside.
        sup = HitMissSupervisor(min_samples=1, window=8)
        for _ in range(7):
            sup.record(True)
        sup.record(False)
        assert sup.miss_rate == pytest.approx(1 / 8)
        for _ in range(7):
            sup.record(True)
        assert sup.miss_rate == pytest.approx(1 / 8)  # miss now oldest
        sup.record(True)
        assert sup.miss_rate == 0.0  # miss evicted

    def test_windowed_trigger_reacts_to_recent_drift(self):
        # A long healthy history must not dilute the trigger: cumulative
        # rate stays under threshold while the windowed rate fires.
        sup = HitMissSupervisor(
            miss_threshold=0.1, min_samples=10, window=20
        )
        fired = []
        sup.on_regenerate(lambda s: fired.append(s.miss_rate))
        for _ in range(1000):
            sup.record(True)
        for _ in range(5):
            sup.record(False)
        assert fired and fired[0] > 0.1
        assert sup.cumulative_miss_rate < 0.01

    def test_reset_clears_the_window(self):
        sup = HitMissSupervisor(min_samples=1, window=4)
        for _ in range(4):
            sup.record(False)
        sup.reset()
        assert sup.window_total == 0 and sup.miss_rate == 0.0
        sup.record(True)
        assert sup.miss_rate == 0.0

    def test_snapshot_gains_window_keys(self):
        sup = HitMissSupervisor(min_samples=1, window=4)
        sup.record(False)
        snap = sup.snapshot()
        assert snap["window"] == 4.0 and snap["window_total"] == 1.0
        assert snap["miss_rate"] == 1.0
        assert snap["cumulative_miss_rate"] == 1.0


def _state(sup):
    recent = list(sup._recent) if sup._recent is not None else None
    return (sup.hits, sup.misses, recent, sup._recent_misses, sup._notified)


#: Lookup outcomes, mostly hits, as in a healthy deployment.
_lookups = st.lists(st.sampled_from([True] * 9 + [False]), max_size=300)


class TestRecordMany:
    """The vectorised accounting equals the scalar loop at every prefix."""

    @settings(max_examples=300, deadline=None)
    @given(
        prefill=st.lists(st.booleans(), max_size=60),
        lookups=_lookups,
        window=st.one_of(st.none(), st.integers(1, 40)),
        threshold=st.sampled_from([0.01, 0.05, 0.1, 0.3, 1.0]),
        min_samples=st.integers(1, 40),
        callback=st.sampled_from(["none", "count", "reset"]),
    )
    def test_matches_scalar_loop(
        self, prefill, lookups, window, threshold, min_samples, callback
    ):
        assume(window is None or min_samples <= window)
        fired = {"bulk": [], "scalar": []}
        sups = {}
        for name in fired:
            sup = HitMissSupervisor(
                miss_threshold=threshold, min_samples=min_samples,
                window=window,
            )
            if callback != "none":
                def on_fire(s, log=fired[name]):
                    log.append(s.total)
                    if callback == "reset":
                        s.reset()
                sup.on_regenerate(on_fire)
            for hit in prefill:
                sup.record(hit)
            sups[name] = sup
        first = None
        for i, hit in enumerate(lookups):
            before = sups["scalar"]._notified, len(fired["scalar"])
            sups["scalar"].record(hit)
            after = sups["scalar"]._notified, len(fired["scalar"])
            flipped = (not before[0] and after[0]) or after[1] > before[1]
            if first is None and flipped:
                first = i
        assert sups["bulk"].record_many(np.array(lookups, dtype=bool)) == first
        assert _state(sups["bulk"]) == _state(sups["scalar"])
        assert fired["bulk"] == fired["scalar"]

    @settings(max_examples=100, deadline=None)
    @given(
        lookups=_lookups,
        cuts=st.lists(st.integers(0, 300), max_size=5),
        window=st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_any_split_of_the_batch_agrees(self, lookups, cuts, window):
        whole = HitMissSupervisor(miss_threshold=0.05, min_samples=1,
                                  window=window)
        parts = HitMissSupervisor(miss_threshold=0.05, min_samples=1,
                                  window=window)
        whole.record_many(np.array(lookups, dtype=bool))
        edges = [0, *sorted(c for c in cuts if c <= len(lookups)),
                 len(lookups)]
        for lo, hi in zip(edges, edges[1:]):
            parts.record_many(np.array(lookups[lo:hi], dtype=bool))
        assert _state(parts) == _state(whole)

    def test_save_and_restore(self):
        sup = HitMissSupervisor(miss_threshold=0.1, min_samples=5, window=8)
        for hit in [True, False, True]:
            sup.record(hit)
        saved = sup.save()
        before = _state(sup)
        sup.record_many(np.array([False] * 10))
        assert sup._notified
        sup.restore(saved)
        assert _state(sup) == before


class TestJanusAdapter:
    def test_initial_decision_uses_full_slo(self):
        adapter = JanusAdapter(make_hints(), slo_ms=3000.0)
        d = adapter.initial_decision()
        assert d.stage_index == 0 and d.budget_ms == 3000.0
        assert d.hit and d.size == 1000  # generous budget -> smallest size

    def test_budget_derivation(self):
        adapter = JanusAdapter(make_hints(), slo_ms=3000.0)
        d = adapter.on_stage_complete(0, elapsed_ms=2400.0)
        assert d.stage_index == 1
        assert d.budget_ms == pytest.approx(600.0)

    def test_workflow_completion_returns_none(self):
        adapter = JanusAdapter(make_hints(n_stages=2), slo_ms=3000.0)
        assert adapter.on_stage_complete(1, 100.0) is None

    def test_miss_scales_to_kmax(self):
        adapter = JanusAdapter(make_hints(tmin=1000), slo_ms=3000.0)
        d = adapter.decide(0, 200.0)  # below table coverage
        assert not d.hit and d.size == 3000
        assert adapter.supervisor.misses == 1

    def test_negative_elapsed_rejected(self):
        adapter = JanusAdapter(make_hints(), slo_ms=3000.0)
        with pytest.raises(AdapterError):
            adapter.on_stage_complete(0, -5.0)

    def test_decision_latencies_recorded(self):
        adapter = JanusAdapter(make_hints(), slo_ms=3000.0)
        for _ in range(20):
            adapter.initial_decision()
        lats = adapter.decision_latencies_ms()
        assert len(lats) == 20
        # Paper §V-H: decisions stay well under 3 ms.
        assert max(lats) < 3.0

    def test_detached_lookups_are_not_recorded(self):
        adapter = JanusAdapter(make_hints(tmin=1000), slo_ms=3000.0)
        budgets = np.array([200.0, 2500.0])
        with adapter.detached() as captured:
            sizes, hits = adapter.decide_many(1, budgets)
        assert adapter.supervisor.total == 0
        assert adapter.decision_latencies_ms() == []
        assert [(stage, h.tolist()) for stage, h in captured] == [
            (1, [False, True])
        ]
        # Outside the block the same lookups are recorded.
        again, _ = adapter.decide_many(1, budgets)
        assert again.tolist() == sizes.tolist()
        assert adapter.supervisor.misses == 1

    def test_replace_hints_resets_supervisor(self):
        adapter = JanusAdapter(make_hints(), slo_ms=3000.0)
        adapter.decide(0, 100.0)  # miss
        assert adapter.supervisor.misses == 1
        adapter.replace_hints(make_hints())
        assert adapter.supervisor.total == 0

    def test_replace_hints_stage_mismatch_rejected(self):
        adapter = JanusAdapter(make_hints(n_stages=3), slo_ms=3000.0)
        with pytest.raises(AdapterError):
            adapter.replace_hints(make_hints(n_stages=2))

    def test_invalid_slo_rejected(self):
        with pytest.raises(AdapterError):
            JanusAdapter(make_hints(), slo_ms=0.0)


class TestAdapterService:
    def test_register_and_decide(self):
        svc = AdapterService()
        svc.register("t1", "wf", make_hints(), slo_ms=3000.0)
        d = svc.decide("t1", "wf", 0, 2500.0)
        assert d.hit

    def test_tenant_isolation(self):
        svc = AdapterService()
        svc.register("t1", "wf", make_hints(), slo_ms=3000.0)
        svc.register("t2", "wf", make_hints(), slo_ms=3000.0)
        svc.decide("t1", "wf", 0, 100.0)  # miss for t1 only
        stats = svc.stats()
        assert stats[("t1", "wf")]["misses"] == 1
        assert stats[("t2", "wf")]["misses"] == 0

    def test_unknown_workflow_rejected(self):
        svc = AdapterService()
        with pytest.raises(AdapterError):
            svc.decide("t", "missing", 0, 100.0)
        with pytest.raises(AdapterError):
            svc.unregister("t", "missing")

    def test_reregister_swaps_hints(self):
        svc = AdapterService()
        a1 = svc.register("t", "wf", make_hints(), slo_ms=3000.0)
        a2 = svc.register("t", "wf", make_hints(), slo_ms=3000.0)
        assert a1 is a2  # same adapter, refreshed tables

    def test_regeneration_queue(self):
        svc = AdapterService(miss_threshold=0.01, min_samples=3)
        svc.register("t", "wf", make_hints(), slo_ms=3000.0)
        for _ in range(5):
            svc.decide("t", "wf", 0, 10.0)  # all misses
        pending = svc.pending_regenerations()
        assert pending == [("t", "wf")]
        assert svc.pending_regenerations() == []  # drained

    def test_workflows_listing(self):
        svc = AdapterService()
        svc.register("t", "a", make_hints(), 1000.0)
        svc.register("t", "b", make_hints(), 1000.0)
        assert set(svc.workflows()) == {("t", "a"), ("t", "b")}
        svc.unregister("t", "a")
        assert svc.workflows() == [("t", "b")]


class TestSupervisorEdges:
    """ROADMAP-named thin spot: the supervisor's boundary behaviour."""

    def test_rate_exactly_at_threshold_does_not_trigger(self):
        # should_regenerate uses a strict comparison: 1 miss in 10 at a
        # 10% threshold is "within tolerance", not a regeneration.
        sup = HitMissSupervisor(miss_threshold=0.1, min_samples=10)
        for hit in [False] + [True] * 9:
            sup.record(hit)
        assert sup.miss_rate == pytest.approx(0.1)
        assert not sup.should_regenerate
        sup.record(False)  # 2/11 > 10% -> now over
        assert sup.should_regenerate

    def test_threshold_of_one_is_valid_but_unreachable(self):
        sup = HitMissSupervisor(miss_threshold=1.0, min_samples=1)
        for _ in range(50):
            sup.record(False)
        assert sup.miss_rate == 1.0
        assert not sup.should_regenerate  # rate can never exceed 1.0

    def test_multiple_callbacks_fire_in_registration_order(self):
        sup = HitMissSupervisor(miss_threshold=0.01, min_samples=2)
        fired: list[str] = []
        sup.on_regenerate(lambda s: fired.append("first"))
        sup.on_regenerate(lambda s: fired.append("second"))
        sup.record(False)
        sup.record(False)
        assert fired == ["first", "second"]

    def test_callback_registered_after_trigger_waits_for_reset(self):
        sup = HitMissSupervisor(miss_threshold=0.01, min_samples=2)
        sup.record(False)
        sup.record(False)
        late: list[int] = []
        sup.on_regenerate(lambda s: late.append(1))
        sup.record(False)  # already notified this cycle
        assert late == []
        sup.reset()
        sup.record(False)
        sup.record(False)
        assert late == [1]

    def test_hit_dominated_stream_never_triggers(self):
        sup = HitMissSupervisor(miss_threshold=0.05, min_samples=10)
        fired: list[int] = []
        sup.on_regenerate(lambda s: fired.append(1))
        for i in range(1000):
            sup.record((i + 1) % 100 != 0)  # 1% misses, under the threshold
        assert not fired and not sup.should_regenerate

    def test_snapshot_tracks_miss_rate(self):
        sup = HitMissSupervisor()
        for hit in (True, False, False, True):
            sup.record(hit)
        assert sup.snapshot() == {
            "hits": 2, "misses": 2, "miss_rate": pytest.approx(0.5)
        }

    def test_min_samples_of_one_triggers_immediately(self):
        sup = HitMissSupervisor(miss_threshold=0.5, min_samples=1)
        fired: list[int] = []
        sup.on_regenerate(lambda s: fired.append(1))
        sup.record(False)
        assert fired == [1]


class TestServiceSupervision:
    def test_stats_reflect_per_workflow_counters(self):
        service = AdapterService(miss_threshold=0.5, min_samples=5)
        hints = make_hints()
        service.register("acme", "IA", hints, slo_ms=3000)
        service.register("globex", "IA", hints, slo_ms=3000)
        service.decide("acme", "IA", 0, budget_ms=3000)
        stats = service.stats()
        assert set(stats) == {("acme", "IA"), ("globex", "IA")}
        assert stats[("acme", "IA")]["hits"] + stats[("acme", "IA")][
            "misses"
        ] == 1
        assert stats[("globex", "IA")] == {
            "hits": 0, "misses": 0, "miss_rate": 0.0
        }

    def test_unregister_then_decide_rejected(self):
        service = AdapterService()
        service.register("acme", "IA", make_hints(), slo_ms=3000)
        service.unregister("acme", "IA")
        with pytest.raises(AdapterError, match="unknown workflow"):
            service.decide("acme", "IA", 0, budget_ms=3000)
        with pytest.raises(AdapterError, match="unknown workflow"):
            service.unregister("acme", "IA")
