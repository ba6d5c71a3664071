"""Hit/miss supervision and regeneration triggering (paper §III-D).

The adapter "continuously counts the hits and misses during hint table
searches. In rare cases where the miss rate exceeds a predefined threshold,
it assumes that the execution time distribution may have changed" and
notifies the developer to regenerate the hints asynchronously.

Two accounting modes:

* **Cumulative** (default, ``window=None``) — all-time counters, matching
  the batch experiments where a run sees one stationary workload.
* **Sliding window** (``window=N``) — the miss rate is computed over the
  last ``N`` lookups only, so a long-lived serving loop reacts to *recent*
  drift instead of having the trigger diluted by hours of healthy
  history. The all-time counters are still kept for reporting.
"""

from __future__ import annotations

import typing as _t
from collections import deque

import numpy as np

from ..errors import AdapterError

__all__ = ["HitMissSupervisor"]

RegenerationCallback = _t.Callable[["HitMissSupervisor"], None]


class HitMissSupervisor:
    """Counts lookup hits/misses and fires a regeneration callback.

    Parameters
    ----------
    miss_threshold:
        Miss-rate threshold (paper default 1%).
    min_samples:
        Lookups required before the rate is considered meaningful; avoids
        spurious triggers on the first few requests.
    window:
        When set, compute :attr:`miss_rate` over the last ``window``
        lookups (bounded deque) instead of all-time; ``min_samples`` must
        then fit inside the window.
    """

    def __init__(
        self,
        miss_threshold: float = 0.01,
        min_samples: int = 100,
        window: int | None = None,
    ) -> None:
        if not 0.0 < miss_threshold <= 1.0:
            raise AdapterError(
                f"miss threshold must be in (0, 1], got {miss_threshold}"
            )
        if min_samples < 1:
            raise AdapterError(f"min_samples must be >= 1, got {min_samples}")
        if window is not None:
            if window < 1:
                raise AdapterError(f"window must be >= 1, got {window}")
            if min_samples > window:
                raise AdapterError(
                    f"min_samples ({min_samples}) cannot exceed the "
                    f"window ({window}): the trigger could never fire"
                )
        self.miss_threshold = float(miss_threshold)
        self.min_samples = int(min_samples)
        self.window = int(window) if window is not None else None
        self.hits = 0
        self.misses = 0
        self._recent: deque[bool] | None = (
            deque(maxlen=self.window) if self.window else None
        )
        self._recent_misses = 0
        self._callbacks: list[RegenerationCallback] = []
        self._notified = False

    # -- accounting ---------------------------------------------------------
    @property
    def total(self) -> int:
        """Total lookups observed (all-time, regardless of mode)."""
        return self.hits + self.misses

    @property
    def window_total(self) -> int:
        """Lookups currently inside the window (== total when cumulative)."""
        if self._recent is None:
            return self.total
        return len(self._recent)

    @property
    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0 when no lookups yet).

        Windowed mode: over the last :attr:`window` lookups only.
        """
        if self._recent is not None:
            n = len(self._recent)
            return self._recent_misses / n if n else 0.0
        return self.misses / self.total if self.total else 0.0

    @property
    def cumulative_miss_rate(self) -> float:
        """All-time miss fraction, independent of the window."""
        return self.misses / self.total if self.total else 0.0

    @property
    def hit_rate(self) -> float:
        """Complement of :attr:`miss_rate`."""
        return 1.0 - self.miss_rate if self.window_total else 0.0

    def record(self, hit: bool) -> None:
        """Account one lookup and trigger regeneration when warranted."""
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if self._recent is not None:
            if len(self._recent) == self.window and not self._recent[0]:
                # The oldest outcome rolls off the window's left edge.
                self._recent_misses -= 1
            self._recent.append(hit)
            if not hit:
                self._recent_misses += 1
        if self.should_regenerate and not self._notified:
            self._notified = True
            for cb in self._callbacks:
                cb(self)

    def record_many(
        self, hits: "np.ndarray | _t.Sequence[bool]"
    ) -> int | None:
        """Account a batch of lookups exactly as :meth:`record` on each.

        The counters, the window, ``_recent_misses`` and the notification
        state equal the scalar loop's at every prefix: the threshold is
        evaluated after every lookup (vectorised over the batch), and the
        callbacks fire once, at the same lookup. Should a callback
        :meth:`reset` the supervisor, accounting resumes from the next
        lookup as it would in the scalar loop.

        Returns the index into ``hits`` of the lookup at which the
        supervisor notified (the first one, if it notified more than once),
        or ``None``.
        """
        arr = np.asarray(hits, dtype=bool)
        fired: int | None = None
        done = 0
        while done < arr.size:
            rest = arr[done:]
            at = None if self._notified else self._first_crossing(rest)
            self._account(rest if at is None else rest[: at + 1])
            if at is None:
                break
            if fired is None:
                fired = done + at
            self._notified = True
            for cb in self._callbacks:
                cb(self)
            done += at + 1
        return fired

    def _first_crossing(self, hits: np.ndarray) -> int | None:
        """Index of the first lookup after which the trigger condition
        holds, evaluated on every prefix without touching the state."""
        missed = ~hits
        if self._recent is None:
            totals = self.total + np.arange(1, hits.size + 1)
            misses = self.misses + np.cumsum(missed)
        else:
            # The window after lookup i is the last ``window`` entries of
            # (current window + hits[: i + 1]).
            prior = len(self._recent)
            seq = np.concatenate(
                [~np.fromiter(self._recent, dtype=bool, count=prior), missed]
            )
            cum = np.concatenate([[0], np.cumsum(seq)])
            ends = prior + np.arange(1, hits.size + 1)
            totals = np.minimum(ends, self.window)
            misses = cum[ends] - cum[ends - totals]
        crossed = (totals >= self.min_samples) & (
            misses / totals > self.miss_threshold
        )
        return int(crossed.argmax()) if bool(crossed.any()) else None

    def _account(self, hits: np.ndarray) -> None:
        """Bulk counter and window update (no threshold evaluation)."""
        n_hits = int(hits.sum())
        self.hits += n_hits
        self.misses += int(hits.size) - n_hits
        if self._recent is not None:
            self._recent.extend(hits[-self.window :].tolist())
            self._recent_misses = len(self._recent) - sum(self._recent)

    def save(self) -> tuple[_t.Any, ...]:
        """The counters, window and notification state, for :meth:`restore`
        (callbacks are not part of it)."""
        recent = tuple(self._recent) if self._recent is not None else None
        return (self.hits, self.misses, recent, self._recent_misses,
                self._notified)

    def restore(self, saved: tuple[_t.Any, ...]) -> None:
        """Roll the state back to what :meth:`save` returned."""
        self.hits, self.misses, recent, self._recent_misses, self._notified = (
            saved
        )
        if self._recent is not None:
            self._recent.clear()
            self._recent.extend(recent)

    @property
    def should_regenerate(self) -> bool:
        """True when the miss rate exceeds the threshold over enough samples."""
        return (
            self.window_total >= self.min_samples
            and self.miss_rate > self.miss_threshold
        )

    # -- notification ------------------------------------------------------
    def on_regenerate(self, callback: RegenerationCallback) -> None:
        """Register a developer-notification callback (fires at most once
        per :meth:`reset` cycle)."""
        self._callbacks.append(callback)

    def reset(self) -> None:
        """Clear counters after a regeneration completed (new tables live)."""
        self.hits = 0
        self.misses = 0
        if self._recent is not None:
            self._recent.clear()
        self._recent_misses = 0
        self._notified = False

    def snapshot(self) -> dict[str, float]:
        """Counters as a plain dict (for reports)."""
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
        }
        if self._recent is not None:
            out["window"] = float(self.window or 0)
            out["window_total"] = float(len(self._recent))
            out["cumulative_miss_rate"] = self.cumulative_miss_rate
        return out
