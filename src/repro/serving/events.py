"""Structured JSONL event log for serving runs.

One JSON object per line, each carrying a monotonically increasing
``seq`` and a ``kind`` (``start``, ``arrival``, ``decision``, ``swap``,
``snapshot``, ``stop``). With a path the log is write-through — nothing
is retained in memory but the events since the last dict event,
preserving the loop's O(1) footprint; without a path events accumulate
in :attr:`EventLog.events` for tests and interactive use.

Per-request events (arrivals, decisions) arrive in blocks and are kept
as columns (:meth:`EventLog.extend`): one dict per event is built only
when :attr:`EventLog.events` is read or the file sink is flushed, which
happens before every dict event is written and at close. The records,
their order and their JSON bytes are those one :meth:`EventLog.emit` per
event would have produced.
"""

from __future__ import annotations

import itertools
import json
import operator
import typing as _t
from pathlib import Path

import numpy as np

from ..errors import ExperimentError

__all__ = ["EventLog", "read_events"]


def _jsonable(obj: _t.Any) -> _t.Any:
    # numpy scalars (sizes, rates) serialize as their Python values.
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


#: A block of same-kind events as columns: kind, one order key (or, once
#: recorded, one seq) per event, and the fields.
_Block = tuple[str, np.ndarray, dict[str, _t.Sequence[_t.Any]]]


class EventLog:
    """Append-only event sink, JSONL on disk or a list in memory."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: list[dict[str, _t.Any]] = []
        self._columns: list[_Block] = []
        self._seq = 0
        self._fh: _t.TextIO | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")

    def emit(self, kind: str, **fields: _t.Any) -> dict[str, _t.Any]:
        """Record one event; returns the record that was written."""
        record: dict[str, _t.Any] = {"seq": self._seq, "kind": kind}
        record.update(fields)
        self._seq += 1
        if self._fh is not None:
            self._flush()
            self._fh.write(json.dumps(record, default=_jsonable) + "\n")
        else:
            self._records.append(record)
        return record

    def extend(self, *blocks: _Block) -> None:
        """Record blocks of events at once, as columns.

        Each block is ``(kind, keys, fields)``: one event per key, whose
        field ``name`` is ``fields[name][i]`` for the ``i``-th key. The
        events of all blocks take the next seqs in ascending key order
        (keys must be distinct). A field is a list of JSON-ready values or
        a numpy array, read back with ``tolist()`` (a 2-D array gives one
        list per event).
        """
        keys = np.concatenate([np.asarray(k) for _, k, _ in blocks])
        seqs = np.empty(len(keys), dtype=np.int64)
        seqs[np.argsort(keys, kind="stable")] = np.arange(
            self._seq, self._seq + len(keys)
        )
        self._seq += len(keys)
        start = 0
        for kind, block_keys, fields in blocks:
            stop = start + len(block_keys)
            if stop > start:
                self._columns.append((kind, seqs[start:stop], fields))
            start = stop

    def _materialise(self) -> list[dict[str, _t.Any]]:
        """Build the dicts of the column events, in seq order."""
        out: list[dict[str, _t.Any]] = []
        for kind, seqs, fields in self._columns:
            names = ("seq", "kind", *fields)
            values = [
                v.tolist() if isinstance(v, np.ndarray) else v
                for v in fields.values()
            ]
            out.extend(
                dict(zip(names, row))
                for row in zip(seqs.tolist(), itertools.repeat(kind), *values)
            )
        self._columns.clear()
        out.sort(key=operator.itemgetter("seq"))
        return out

    def _flush(self) -> None:
        if self._columns:
            self._fh.writelines(
                json.dumps(record, default=_jsonable) + "\n"
                for record in self._materialise()
            )

    @property
    def events(self) -> list[dict[str, _t.Any]]:
        """Every event so far, in seq order (in-memory sink only)."""
        if self._columns and self._fh is None:
            self._records += self._materialise()
            self._records.sort(key=operator.itemgetter("seq"))
        return self._records

    @property
    def count(self) -> int:
        """Events emitted so far."""
        return self._seq

    def close(self) -> None:
        """Flush and close the file sink (idempotent)."""
        if self._fh is not None:
            self._flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.close()


def read_events(
    path: str | Path, kind: str | None = None
) -> list[dict[str, _t.Any]]:
    """Load a JSONL event log back, optionally filtered by ``kind``."""
    p = Path(path)
    if not p.exists():
        raise ExperimentError(f"no event log at {p}")
    out = []
    with p.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if kind is None or record.get("kind") == kind:
                out.append(record)
    return out
