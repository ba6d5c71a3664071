"""Bounded-memory streaming estimators for the always-on serving loop.

Batch experiments materialise every :class:`~repro.workflow.request.
RequestOutcome` and summarise at the end with :func:`~repro.metrics.stats.
percentile_summary`. A live service cannot: at millions of requests the
sample arrays dominate memory and the summary is needed *while* the run
is in flight. This module provides the O(1)-memory counterparts:

* :class:`P2Quantile` — the P² (piecewise-parabolic) single-quantile
  estimator of Jain & Chlamtac (CACM 1985): five markers whose heights
  approximate the quantile curve, updated in O(1) per observation.
* :class:`StreamingMoments` — Welford's online mean/variance with
  min/max tracking.
* :class:`WindowedRate` — rate of a boolean outcome over the last N
  observations (SLO attainment, hit/miss) next to the all-time rate.
* :class:`StreamingSummary` — the composite used by the serving loop:
  several :class:`P2Quantile` markers plus moments, with a
  ``snapshot() -> dict`` whose keys mirror :func:`percentile_summary`
  (``p50``/``p95``/``p99``/``mean``/``min``/``max`` plus ``count``).

Every estimator is deterministic in the arrival order of its inputs: two
replays of the same stream produce bit-identical snapshots. That is the
contract the serving determinism tests pin.

Each estimator also takes a column of observations at once
(``add_many``): the same sequential recurrence as repeated ``add``, in
the same float order, run in one frame over local variables. A block of
values and the same values one by one leave bit-identical state.
"""

from __future__ import annotations

import itertools
import typing as _t
from collections import deque

import numpy as np

from ..errors import ExperimentError

__all__ = [
    "P2Quantile",
    "StreamingMoments",
    "WindowedRate",
    "StreamingSummary",
]


def _floats(values: _t.Iterable[float]) -> list[float]:
    """``values`` as Python floats, each converted as ``float(x)`` is."""
    if isinstance(values, np.ndarray):
        return values.astype(np.float64).tolist()
    return [float(x) for x in values]


class P2Quantile:
    """P² estimate of one quantile ``q`` in (0, 1) at O(1) memory.

    Five markers track (min, q/2, q, (1+q)/2, max); interior marker
    heights are nudged toward their desired positions with a piecewise-
    parabolic fit each time an observation lands. Until five samples
    have arrived the estimate is the exact order statistic of the
    buffered observations, so small finite streams are exact.
    """

    __slots__ = ("q", "_heights", "_pos", "_desired", "_dp", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ExperimentError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: list[float] = []
        self._pos = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._dp = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        x = float(x)
        self.count += 1
        h = self._heights
        if self.count <= 5:
            h.append(x)
            h.sort()
            return
        pos = self._pos
        # Locate the cell and stretch the extreme markers.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += 1
        for i in range(5):
            self._desired[i] += self._dp[i]
        # Nudge interior markers toward their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1
            ):
                step = 1 if d >= 1.0 else -1
                cand = self._parabolic(i, step)
                if not h[i - 1] < cand < h[i + 1]:
                    cand = self._linear(i, step)
                h[i] = cand
                pos[i] += step

    def add_many(self, values: _t.Iterable[float]) -> None:
        """Fold observations in order, as repeated :meth:`add` would."""
        self._fold(_floats(values))

    def _fold(self, xs: list[float]) -> None:
        # The body of add over locals: markers h0..h4 at positions n0..n4
        # with desired positions e0..e4. Each interior marker's nudge is
        # written out (marker 1, then 2, then 3, as add orders them) with
        # _parabolic and _linear inlined term for term.
        i = 0
        while self.count < 5 and i < len(xs):
            self.add(xs[i])
            i += 1
        if i == len(xs):
            return
        h0, h1, h2, h3, h4 = self._heights
        n0, n1, n2, n3, n4 = self._pos
        e0, e1, e2, e3, e4 = self._desired
        dp0, dp1, dp2, dp3, dp4 = self._dp
        for x in itertools.islice(xs, i, None):
            # Locate the cell k and move the markers above it.
            if x < h0:
                h0 = x
                n1 += 1
                n2 += 1
                n3 += 1
            elif x >= h4:
                h4 = x
            elif not x >= h1:  # k = 0
                n1 += 1
                n2 += 1
                n3 += 1
            elif not x >= h2:  # k = 1
                n2 += 1
                n3 += 1
            elif not x >= h3:  # k = 2
                n3 += 1
            n4 += 1
            e0 += dp0
            e1 += dp1
            e2 += dp2
            e3 += dp3
            e4 += dp4
            d = e1 - n1
            if (d >= 1.0 and n2 - n1 > 1) or (d <= -1.0 and n0 - n1 < -1):
                s = 1 if d >= 1.0 else -1
                c = h1 + s / (n2 - n0) * (
                    (n1 - n0 + s) * (h2 - h1) / (n2 - n1)
                    + (n2 - n1 - s) * (h1 - h0) / (n1 - n0)
                )
                if not h0 < c < h2:
                    if s == 1:
                        c = h1 + s * (h2 - h1) / (n2 - n1)
                    else:
                        c = h1 + s * (h0 - h1) / (n0 - n1)
                h1 = c
                n1 += s
            d = e2 - n2
            if (d >= 1.0 and n3 - n2 > 1) or (d <= -1.0 and n1 - n2 < -1):
                s = 1 if d >= 1.0 else -1
                c = h2 + s / (n3 - n1) * (
                    (n2 - n1 + s) * (h3 - h2) / (n3 - n2)
                    + (n3 - n2 - s) * (h2 - h1) / (n2 - n1)
                )
                if not h1 < c < h3:
                    if s == 1:
                        c = h2 + s * (h3 - h2) / (n3 - n2)
                    else:
                        c = h2 + s * (h1 - h2) / (n1 - n2)
                h2 = c
                n2 += s
            d = e3 - n3
            if (d >= 1.0 and n4 - n3 > 1) or (d <= -1.0 and n2 - n3 < -1):
                s = 1 if d >= 1.0 else -1
                c = h3 + s / (n4 - n2) * (
                    (n3 - n2 + s) * (h4 - h3) / (n4 - n3)
                    + (n4 - n3 - s) * (h3 - h2) / (n3 - n2)
                )
                if not h2 < c < h4:
                    if s == 1:
                        c = h3 + s * (h4 - h3) / (n4 - n3)
                    else:
                        c = h3 + s * (h2 - h3) / (n2 - n3)
                h3 = c
                n3 += s
        self._heights[:] = (h0, h1, h2, h3, h4)
        self._pos[:] = (n0, n1, n2, n3, n4)
        self._desired[:] = (e0, e1, e2, e3, e4)
        self.count += len(xs) - i

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._pos
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (exact below six samples)."""
        if self.count == 0:
            raise ExperimentError(
                f"P2Quantile(q={self.q:g}) has no samples yet"
            )
        h = self._heights
        if self.count <= 5:
            # Exact empirical quantile (linear interpolation, matching
            # numpy's default) over the buffered samples.
            rank = self.q * (len(h) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(h) - 1)
            frac = rank - lo
            return h[lo] + frac * (h[hi] - h[lo])
        return h[2]

    def snapshot(self) -> dict[str, float]:
        """Estimate plus sample count as a plain dict."""
        return {"q": self.q, "value": self.value, "count": float(self.count)}


class StreamingMoments:
    """Welford online mean/variance with min/max, O(1) memory."""

    __slots__ = ("count", "_mean", "_m2", "_min", "_max", "_total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._total = 0.0

    def add(self, x: float) -> None:
        """Fold one observation into the running moments."""
        x = float(x)
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        self._total += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x

    def add_many(self, values: _t.Iterable[float]) -> None:
        """Fold observations in order, as repeated :meth:`add` would."""
        self._fold(_floats(values))

    def _fold(self, xs: list[float]) -> None:
        count, mean, m2 = self.count, self._mean, self._m2
        lo, hi, total = self._min, self._max, self._total
        for x in xs:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            total += x
            if x < lo:
                lo = x
            if x > hi:
                hi = x
        self.count, self._mean, self._m2 = count, mean, m2
        self._min, self._max, self._total = lo, hi, total

    def _require(self) -> None:
        if self.count == 0:
            raise ExperimentError("StreamingMoments has no samples yet")

    @property
    def mean(self) -> float:
        """Running arithmetic mean."""
        self._require()
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); zero for a single observation."""
        self._require()
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return self.variance**0.5

    @property
    def min(self) -> float:
        """Smallest observation so far."""
        self._require()
        return self._min

    @property
    def max(self) -> float:
        """Largest observation so far."""
        self._require()
        return self._max

    @property
    def total(self) -> float:
        """Sum of all observations (cost counters)."""
        return self._total

    def snapshot(self) -> dict[str, float]:
        """Moments as a plain dict."""
        self._require()
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "total": self.total,
        }


class WindowedRate:
    """Rate of a boolean outcome over the last ``window`` observations.

    Keeps the all-time counters next to a bounded deque so callers can
    report both "SLO attainment since start" and "over recent traffic".
    """

    __slots__ = ("window", "_recent", "_recent_true", "count", "true_count")

    def __init__(self, window: int = 1000) -> None:
        if window < 1:
            raise ExperimentError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._recent: deque[bool] = deque(maxlen=self.window)
        self._recent_true = 0
        self.count = 0
        self.true_count = 0

    def add(self, outcome: bool) -> None:
        """Record one boolean outcome."""
        outcome = bool(outcome)
        if len(self._recent) == self.window and self._recent[0]:
            self._recent_true -= 1
        self._recent.append(outcome)
        if outcome:
            self._recent_true += 1
            self.true_count += 1
        self.count += 1

    def add_many(self, outcomes: _t.Iterable[bool]) -> None:
        """Record outcomes in order, as repeated :meth:`add` would."""
        if isinstance(outcomes, np.ndarray):
            flags = outcomes.astype(bool).tolist()
        else:
            flags = [bool(x) for x in outcomes]
        recent = self._recent
        # The outcomes the window evicts: the oldest of old + new.
        evicted = len(recent) + len(flags) - self.window
        dropped = (
            sum(itertools.islice(itertools.chain(recent, flags), evicted))
            if evicted > 0
            else 0
        )
        recent.extend(flags)
        trues = sum(flags)
        self._recent_true += trues - dropped
        self.true_count += trues
        self.count += len(flags)

    @property
    def rate(self) -> float:
        """All-time fraction of true outcomes (0 when empty)."""
        return self.true_count / self.count if self.count else 0.0

    @property
    def windowed_rate(self) -> float:
        """Fraction of true outcomes over the window (0 when empty)."""
        n = len(self._recent)
        return self._recent_true / n if n else 0.0

    def snapshot(self) -> dict[str, float]:
        """Counters as a plain dict."""
        return {
            "count": float(self.count),
            "rate": self.rate,
            "windowed_rate": self.windowed_rate,
            "window": float(self.window),
        }


class StreamingSummary:
    """Composite latency summary: P² percentiles plus Welford moments.

    The ``snapshot()`` keys deliberately mirror :func:`repro.metrics.
    stats.percentile_summary` (``p50``, ``p95``, ``p99``, ``mean``,
    ``min``, ``max``) so streaming and exact paths are interchangeable
    in reports, with an extra ``count``.
    """

    def __init__(
        self, percentiles: _t.Sequence[float] = (50.0, 95.0, 99.0)
    ) -> None:
        if not percentiles:
            raise ExperimentError("StreamingSummary needs >= 1 percentile")
        self.percentiles = tuple(float(p) for p in percentiles)
        self._quantiles = {p: P2Quantile(p / 100.0) for p in self.percentiles}
        self.moments = StreamingMoments()

    def add(self, x: float) -> None:
        """Fold one observation into every estimator."""
        for est in self._quantiles.values():
            est.add(x)
        self.moments.add(x)

    def add_many(self, values: _t.Iterable[float]) -> None:
        """Fold observations in order, as repeated :meth:`add` would."""
        xs = _floats(values)
        for est in self._quantiles.values():
            est._fold(xs)
        self.moments._fold(xs)

    @property
    def count(self) -> int:
        """Observations folded in so far."""
        return self.moments.count

    def percentile(self, p: float) -> float:
        """Current estimate of percentile ``p`` (must be configured)."""
        try:
            return self._quantiles[float(p)].value
        except KeyError:
            raise ExperimentError(
                f"percentile {p:g} not tracked (have "
                f"{', '.join(f'{q:g}' for q in self.percentiles)})"
            )

    def snapshot(self) -> dict[str, float]:
        """Summary dict shaped like :func:`percentile_summary` + count."""
        if self.count == 0:
            raise ExperimentError("StreamingSummary has no samples yet")
        out = {f"p{p:g}": self._quantiles[p].value for p in self.percentiles}
        out["mean"] = self.moments.mean
        out["min"] = self.moments.min
        out["max"] = self.moments.max
        out["count"] = float(self.count)
        return out
