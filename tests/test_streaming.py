"""Bounded-memory streaming estimators (P², Welford, windowed rates)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics.streaming import (
    P2Quantile,
    StreamingMoments,
    StreamingSummary,
    WindowedRate,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def lognormal_stream(n, seed):
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=5.0, sigma=0.6, size=n)


def jain_chlamtac_p2(p, xs):
    """The P² algorithm as Jain & Chlamtac (CACM 28(10), 1985) state it,
    with their 1-based marker arrays: marker heights ``q``, actual
    positions ``n``, desired positions ``nd`` and increments ``dnd``.
    Returns the heights after each observation from the sixth on."""
    q = [None] + sorted(xs[:5])
    n = [None, 1, 2, 3, 4, 5]
    nd = [None, 1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
    dnd = [None, 0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
    out = []
    for x in xs[5:]:
        # B1: find the cell k holding x, adjusting the extremes.
        if x < q[1]:
            q[1] = x
            k = 1
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        elif x < q[4]:
            k = 3
        elif x <= q[5]:
            k = 4
        else:
            q[5] = x
            k = 4
        # B2: shift the positions of markers k+1..5 and all desired ones.
        for i in range(k + 1, 6):
            n[i] = n[i] + 1
        for i in range(1, 6):
            nd[i] = nd[i] + dnd[i]
        # B3: adjust the heights of markers 2..4 if they are off.
        for i in (2, 3, 4):
            d = nd[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (
                d <= -1 and n[i - 1] - n[i] < -1
            ):
                d = 1 if d >= 0 else -1
                qp = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
                )
                if q[i - 1] < qp < q[i + 1]:
                    q[i] = qp
                else:
                    q[i] = q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])
                n[i] = n[i] + d
        out.append(q[1:])
    return out


#: Finite observations, with ties drawn often enough to exercise the
#: cell boundaries.
observations = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(0, 4).map(float),
)


class TestP2Quantile:
    def test_invalid_quantile_rejected(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ExperimentError):
                P2Quantile(q)

    def test_empty_raises(self):
        with pytest.raises(ExperimentError, match="no samples"):
            P2Quantile(0.5).value

    def test_small_streams_exact(self):
        # Below six samples the estimate is the exact order statistic.
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        for n in range(1, 6):
            est = P2Quantile(0.5)
            for x in samples[:n]:
                est.add(x)
            assert est.value == pytest.approx(
                float(np.percentile(samples[:n], 50.0))
            )

    def test_memory_is_constant(self):
        est = P2Quantile(0.99)
        for x in lognormal_stream(10_000, seed=7):
            est.add(x)
        assert len(est._heights) == 5  # five markers, however long the stream

    @pytest.mark.parametrize("p", [50.0, 95.0, 99.0])
    def test_50k_lognormal_within_one_percent(self, p):
        # The ISSUE acceptance bound: replayed 50k-sample heavy-tailed
        # stream, streaming percentile within 1% of the exact statistic.
        samples = lognormal_stream(50_000, seed=2025)
        est = P2Quantile(p / 100.0)
        for x in samples:
            est.add(x)
        exact = float(np.percentile(samples, p))
        assert abs(est.value - exact) / exact < 0.01

    # P² itself, not this implementation, sets how far the estimate lands
    # from the exact quantile (on 8,000 exponential samples, up to 24 % at
    # q=0.99 for some seeds), so accuracy is pinned only on fixed streams
    # (test_50k_lognormal_within_one_percent); this pins the recurrence.
    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                    exclude_max=True),
        xs=st.lists(observations, min_size=5, max_size=300),
    )
    def test_property_matches_jain_chlamtac_recurrence(self, q, xs):
        est = P2Quantile(q)
        for x in xs[:5]:
            est.add(x)
        for markers in jain_chlamtac_p2(q, xs):
            est.add(xs[est.count])
            assert est._heights == markers  # bit-exact
            assert est.value == markers[2]

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_property_deterministic_replay(self, seed):
        samples = lognormal_stream(2000, seed)
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for x in samples:
            a.add(x)
        for x in samples:
            b.add(x)
        assert a.snapshot() == b.snapshot()  # bit-identical

    def test_estimate_brackets_extremes(self):
        samples = lognormal_stream(1000, seed=3)
        est = P2Quantile(0.5)
        for x in samples:
            est.add(x)
        assert samples.min() <= est.value <= samples.max()


class TestStreamingMoments:
    def test_empty_raises(self):
        m = StreamingMoments()
        for attr in ("mean", "variance", "min", "max"):
            with pytest.raises(ExperimentError):
                getattr(m, attr)
        with pytest.raises(ExperimentError):
            m.snapshot()

    def test_single_sample(self):
        m = StreamingMoments()
        m.add(42.0)
        assert m.mean == 42.0 and m.variance == 0.0
        assert m.min == 42.0 and m.max == 42.0 and m.total == 42.0

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_property_matches_numpy(self, seed):
        samples = lognormal_stream(500, seed)
        m = StreamingMoments()
        for x in samples:
            m.add(x)
        assert m.mean == pytest.approx(float(np.mean(samples)))
        assert m.variance == pytest.approx(float(np.var(samples, ddof=1)))
        assert m.std == pytest.approx(float(np.std(samples, ddof=1)))
        assert m.min == float(samples.min())
        assert m.max == float(samples.max())
        assert m.total == pytest.approx(float(samples.sum()))


class TestWindowedRate:
    def test_window_validation(self):
        with pytest.raises(ExperimentError):
            WindowedRate(window=0)

    def test_empty_rates_are_zero(self):
        r = WindowedRate(window=4)
        assert r.rate == 0.0 and r.windowed_rate == 0.0

    def test_window_rolls_off(self):
        r = WindowedRate(window=4)
        for outcome in (False, False, False, False):
            r.add(outcome)
        assert r.windowed_rate == 0.0
        for outcome in (True, True, True, True):
            r.add(outcome)
        # Failures have rolled off the window; all-time rate remembers them.
        assert r.windowed_rate == 1.0
        assert r.rate == pytest.approx(0.5)

    def test_snapshot_keys(self):
        r = WindowedRate(window=8)
        r.add(True)
        assert r.snapshot() == {
            "count": 1.0, "rate": 1.0, "windowed_rate": 1.0, "window": 8.0,
        }


class TestStreamingSummary:
    def test_needs_percentiles(self):
        with pytest.raises(ExperimentError):
            StreamingSummary(())

    def test_empty_snapshot_raises(self):
        with pytest.raises(ExperimentError, match="no samples"):
            StreamingSummary().snapshot()

    def test_untracked_percentile_raises(self):
        s = StreamingSummary((50.0,))
        s.add(1.0)
        with pytest.raises(ExperimentError, match="not tracked"):
            s.percentile(99.0)

    def test_snapshot_mirrors_percentile_summary_keys(self):
        s = StreamingSummary()
        for x in lognormal_stream(200, seed=1):
            s.add(x)
        snap = s.snapshot()
        assert set(snap) == {"p50", "p95", "p99", "mean", "min", "max", "count"}
        assert snap["count"] == 200.0
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"]
        assert snap["p99"] <= snap["max"]

    def test_50k_stream_close_to_exact_summary(self):
        from repro.metrics.stats import percentile_summary

        samples = lognormal_stream(50_000, seed=2025)
        s = StreamingSummary()
        for x in samples:
            s.add(x)
        exact = percentile_summary(samples)
        snap = s.snapshot()
        for key in ("p50", "p95", "p99"):
            assert abs(snap[key] - exact[key]) / exact[key] < 0.01
        assert snap["mean"] == pytest.approx(exact["mean"])
        assert snap["min"] == exact["min"] and snap["max"] == exact["max"]

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_property_snapshot_deterministic(self, seed):
        samples = lognormal_stream(1500, seed)
        a, b = StreamingSummary(), StreamingSummary()
        for x in samples:
            a.add(x)
        for x in samples:
            b.add(x)
        assert a.snapshot() == b.snapshot()


def chunked(xs, cuts):
    """``xs`` split at the sorted, de-duplicated cut points ``cuts``."""
    edges = [0, *sorted({c % (len(xs) + 1) for c in cuts}), len(xs)]
    return [xs[a:b] for a, b in zip(edges, edges[1:])]


def state(est):
    """Every slot of an estimator, for a bit-exact comparison by repr."""
    if isinstance(est, StreamingSummary):
        return (
            [state(q) for q in est._quantiles.values()],
            state(est.moments),
        )
    if isinstance(est, WindowedRate):
        return (list(est._recent), est._recent_true, est.count,
                est.true_count)
    return tuple(getattr(est, slot) for slot in est.__slots__)


cut_points = st.lists(st.integers(0, 400), max_size=6)


class TestAddMany:
    """``add_many`` is repeated ``add``: same state, bit for bit, however
    the stream is split into blocks."""

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                    exclude_max=True),
        xs=st.lists(observations, max_size=300),
        cuts=cut_points,
        as_array=st.booleans(),
    )
    def test_property_p2_quantile(self, q, xs, cuts, as_array):
        one, many = P2Quantile(q), P2Quantile(q)
        for x in xs:
            one.add(x)
        for block in chunked(xs, cuts):
            many.add_many(np.asarray(block) if as_array else block)
        assert repr(state(many)) == repr(state(one))
        if xs:
            assert repr(many.snapshot()) == repr(one.snapshot())

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(observations, max_size=200), cuts=cut_points)
    def test_property_moments(self, xs, cuts):
        one, many = StreamingMoments(), StreamingMoments()
        for x in xs:
            one.add(x)
        for block in chunked(xs, cuts):
            many.add_many(np.asarray(block, dtype=np.float64))
        assert repr(state(many)) == repr(state(one))
        if xs:
            assert repr(many.snapshot()) == repr(one.snapshot())

    @settings(max_examples=100, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), max_size=200),
        window=st.integers(1, 40),
        cuts=cut_points,
    )
    def test_property_windowed_rate(self, outcomes, window, cuts):
        one, many = WindowedRate(window), WindowedRate(window)
        for x in outcomes:
            one.add(x)
        for block in chunked(outcomes, cuts):
            many.add_many(np.asarray(block, dtype=bool))
        assert repr(state(many)) == repr(state(one))
        assert repr(many.snapshot()) == repr(one.snapshot())

    @settings(max_examples=50, deadline=None)
    @given(
        ps=st.lists(
            st.floats(min_value=0.5, max_value=99.5), min_size=1,
            max_size=4, unique=True,
        ),
        xs=st.lists(observations, max_size=300),
        cuts=cut_points,
    )
    def test_property_summary(self, ps, xs, cuts):
        one, many = StreamingSummary(ps), StreamingSummary(ps)
        for x in xs:
            one.add(x)
        for block in chunked(xs, cuts):
            many.add_many(block)
        assert repr(state(many)) == repr(state(one))
        if xs:
            assert repr(many.snapshot()) == repr(one.snapshot())

    def test_integer_column_folds_as_floats(self):
        # Allocated millicores arrive as an int64 column.
        one, many = StreamingMoments(), StreamingMoments()
        for x in (4500, 3000, 6000):
            one.add(x)
        many.add_many(np.array([4500, 3000, 6000], dtype=np.int64))
        assert repr(state(many)) == repr(state(one))
