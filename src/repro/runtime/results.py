"""Run results: outcome collections with the paper's summary metrics."""

from __future__ import annotations

import functools
import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..errors import ExperimentError
from ..workflow.request import RequestOutcome, StageRecord

__all__ = [
    "OutcomeColumns",
    "RunResult",
    "ColumnarRunResult",
    "StreamingRunResult",
    "collect_policy_extras",
]

#: Diagnostic attributes lifted off a policy into ``RunResult.extras``
#: (Janus-style policies expose hit rates / synthesis costs — keep them).
_POLICY_EXTRA_ATTRS = ("hit_rate", "synthesis_seconds")


def collect_policy_extras(policy: _t.Any) -> dict[str, _t.Any]:
    """Per-policy diagnostics every executor attaches to its result."""
    return {
        attr: getattr(policy, attr)
        for attr in _POLICY_EXTRA_ATTRS
        if hasattr(policy, attr)
    }


@dataclass
class OutcomeColumns:
    """Column-wise stage records for one served batch (the analytic
    kernel's native output format).

    ``functions`` holds the node names in walk (chain/topological) order,
    shared by every row; the stage axis of the 2-D arrays follows it. The
    kernel's own quantities are stored: each stage's start ``offsets``
    (time since arrival) and ``durations``; absolute ``starts``/``ends``
    derive from them with the kernel's arithmetic (``arrival + offset``,
    then ``+ duration``). When the walk branches, stages are reported in
    completion order (:attr:`order`); on a path, walk order *is*
    completion order.

    Every derived metric reproduces the corresponding
    :class:`~repro.workflow.request.RequestOutcome` property bit-exactly:
    float reductions accumulate sequentially in reported stage order
    instead of using pairwise ``np.sum``.
    """

    request_ids: np.ndarray  # int64[n]
    arrivals: np.ndarray  # float64[n]
    slos: np.ndarray  # float64[n]
    functions: tuple[str, ...]
    sizes: np.ndarray  # int64[n, S]
    offsets: np.ndarray  # float64[n, S]
    durations: np.ndarray  # float64[n, S]
    branched: bool = False

    @functools.cached_property
    def starts(self) -> np.ndarray:
        """Absolute stage start times, ``float64[n, S]``."""
        return self.arrivals[:, None] + self.offsets

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """Absolute stage end times, ``float64[n, S]``."""
        return self.starts + self.durations

    @functools.cached_property
    def order(self) -> np.ndarray | None:
        """Per-request stable argsort of :attr:`ends` for a branched walk
        (ties keep walk order), ``None`` for a path."""
        if not self.branched:
            return None
        return np.argsort(self.ends, axis=1, kind="stable")

    @property
    def n(self) -> int:
        """Number of requests in the batch."""
        return int(self.arrivals.size)

    def e2e_ms(self) -> np.ndarray:
        """Per-request end-to-end latency (last completion - arrival)."""
        if self.order is None:
            return self.ends[:, -1] - self.arrivals
        return self.ends.max(axis=1) - self.arrivals

    def slo_met(self) -> np.ndarray:
        """Boolean mask of requests within their SLO."""
        return self.e2e_ms() <= self.slos

    def slacks(self) -> np.ndarray:
        """Per-request slack ``1 - l/T``."""
        return 1.0 - self.e2e_ms() / self.slos

    def allocated(self) -> np.ndarray:
        """Per-request total allocated millicores (int64)."""
        return self.sizes.sum(axis=1)

    def millicore_ms(self) -> np.ndarray:
        """Per-request resource-time product, accumulated sequentially in
        reported stage order (completion order for DAGs)."""
        sizes, starts, ends = self.sizes, self.starts, self.ends
        if self.order is not None:
            sizes = np.take_along_axis(sizes, self.order, axis=1)
            starts = np.take_along_axis(starts, self.order, axis=1)
            ends = np.take_along_axis(ends, self.order, axis=1)
        acc = np.zeros(self.n, dtype=np.float64)
        for j in range(len(self.functions)):
            acc = acc + sizes[:, j] * (ends[:, j] - starts[:, j])
        return acc

    def to_outcomes(self) -> list[RequestOutcome]:
        """Materialise row-wise :class:`RequestOutcome` records.

        ``.tolist()`` hands exact Python floats/ints to the records, so the
        materialised objects equal a scalar walk's output field by field.
        """
        ids = self.request_ids.tolist()
        arrivals = self.arrivals.tolist()
        slos = self.slos.tolist()
        sizes = self.sizes.tolist()
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        order = self.order.tolist() if self.order is not None else None
        num_stages = len(self.functions)
        outcomes = []
        for i in range(self.n):
            if order is None:
                stage_js = range(num_stages)
            else:
                stage_js = order[i]
            stages = [
                StageRecord(
                    function=self.functions[j],
                    size=sizes[i][j],
                    start_ms=starts[i][j],
                    end_ms=ends[i][j],
                )
                for j in stage_js
            ]
            outcomes.append(
                RequestOutcome(
                    request_id=ids[i],
                    arrival_ms=arrivals[i],
                    slo_ms=slos[i],
                    stages=stages,
                )
            )
        return outcomes


@dataclass
class RunResult:
    """Outcomes of serving one request stream with one policy."""

    policy_name: str
    outcomes: list[RequestOutcome]
    extras: dict[str, _t.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ExperimentError(f"{self.policy_name}: no outcomes recorded")

    # -- latency ---------------------------------------------------------------
    def e2e_ms(self) -> np.ndarray:
        """End-to-end latencies of all requests."""
        return np.asarray([o.e2e_ms for o in self.outcomes], dtype=np.float64)

    def e2e_percentile(self, p: float) -> float:
        """Percentile of the end-to-end latency distribution."""
        return float(np.percentile(self.e2e_ms(), p))

    @property
    def violation_rate(self) -> float:
        """Fraction of requests exceeding their SLO."""
        return float(np.mean([not o.slo_met for o in self.outcomes]))

    def slacks(self) -> np.ndarray:
        """Per-request slack ``1 - l/T``."""
        return np.asarray([o.slack for o in self.outcomes], dtype=np.float64)

    # -- resources ----------------------------------------------------------
    def allocated(self) -> np.ndarray:
        """Per-request total allocated millicores (the Fig. 5 metric)."""
        return np.asarray(
            [o.allocated_millicores for o in self.outcomes], dtype=np.float64
        )

    @property
    def mean_allocated(self) -> float:
        """Average allocated millicores per request."""
        return float(self.allocated().mean())

    @property
    def mean_millicore_ms(self) -> float:
        """Average resource-time product per request."""
        return float(np.mean([o.millicore_ms for o in self.outcomes]))

    def normalized_cpu(self, baseline: "RunResult") -> float:
        """Mean allocation normalised by a baseline (the paper normalises by
        Optimal)."""
        denom = baseline.mean_allocated
        if denom <= 0:
            raise ExperimentError("baseline has zero mean allocation")
        return self.mean_allocated / denom

    def reduction_vs(self, other: "RunResult", baseline: "RunResult") -> float:
        """Paper Table I metric: resource reduction of *self* vs. *other*,
        normalised by ``baseline`` (Optimal):
        ``(other - self) / baseline``, as a fraction."""
        denom = baseline.mean_allocated
        if denom <= 0:
            raise ExperimentError("baseline has zero mean allocation")
        return (other.mean_allocated - self.mean_allocated) / denom

    # -- presentation ---------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Headline metrics as a plain dict."""
        return {
            "mean_allocated_millicores": self.mean_allocated,
            "p50_e2e_ms": self.e2e_percentile(50),
            "p99_e2e_ms": self.e2e_percentile(99),
            "violation_rate": self.violation_rate,
            "mean_slack": float(self.slacks().mean()),
        }


class ColumnarRunResult(RunResult):
    """A :class:`RunResult` backed by :class:`OutcomeColumns`.

    The batched executors produce columns natively; the row-wise
    ``outcomes`` list most callers never touch is materialised lazily on
    first access. All array-valued metrics read straight off the columns
    (bit-identical to the scalar reductions by construction), so summary
    statistics never pay the materialisation cost.
    """

    def __init__(
        self,
        policy_name: str,
        columns: OutcomeColumns,
        extras: dict[str, _t.Any] | None = None,
    ) -> None:
        self.policy_name = policy_name
        self.columns = columns
        self.extras = extras if extras is not None else {}
        self._outcomes: list[RequestOutcome] | None = None
        if columns.n == 0:
            raise ExperimentError(f"{self.policy_name}: no outcomes recorded")

    @property
    def outcomes(self) -> list[RequestOutcome]:  # type: ignore[override]
        if self._outcomes is None:
            self._outcomes = self.columns.to_outcomes()
        return self._outcomes

    def e2e_ms(self) -> np.ndarray:
        return self.columns.e2e_ms()

    @property
    def violation_rate(self) -> float:
        return float(np.mean(~self.columns.slo_met()))

    def slacks(self) -> np.ndarray:
        return self.columns.slacks()

    def allocated(self) -> np.ndarray:
        return self.columns.allocated().astype(np.float64)

    @property
    def mean_millicore_ms(self) -> float:
        return float(np.mean(self.columns.millicore_ms()))


@dataclass(frozen=True)
class StreamingRunResult:
    """Aggregate of serving one stream without retaining the outcomes.

    The bounded-memory counterpart of :class:`RunResult` for very large
    streams: per-request metrics were folded into streaming estimators
    (:mod:`repro.metrics.streaming`) as the stream was served, so only the
    aggregates survive. Percentiles are P² *estimates* (within a fraction
    of a percent of the exact order statistics at sweep-scale streams).
    Duck-types the slice of :class:`RunResult` that
    :func:`repro.runtime.driver.compare` consumes — ``summary()``,
    ``mean_allocated``, ``normalized_cpu`` — so streaming and exact
    results are interchangeable in comparison tables.
    """

    policy_name: str
    n_requests: int
    mean_allocated: float
    p50_e2e_ms: float
    p99_e2e_ms: float
    violation_rate: float
    mean_slack: float
    extras: dict[str, _t.Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ExperimentError(f"{self.policy_name}: no outcomes recorded")

    def normalized_cpu(
        self, baseline: "RunResult | StreamingRunResult"
    ) -> float:
        """Mean allocation normalised by a baseline (paper: Optimal)."""
        denom = baseline.mean_allocated
        if denom <= 0:
            raise ExperimentError("baseline has zero mean allocation")
        return self.mean_allocated / denom

    def summary(self) -> dict[str, float]:
        """Headline metrics, same keys as :meth:`RunResult.summary`."""
        return {
            "mean_allocated_millicores": self.mean_allocated,
            "p50_e2e_ms": self.p50_e2e_ms,
            "p99_e2e_ms": self.p99_e2e_ms,
            "violation_rate": self.violation_rate,
            "mean_slack": self.mean_slack,
        }
