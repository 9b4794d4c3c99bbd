"""Lightweight event tracing.

A :class:`Tracer` records ``(time, category, payload)`` tuples.  Tracing is
opt-in per category: a tracer sits on its simulator only once a category is
enabled, so a run that traces nothing pays one ``is not None`` test per
site, and a frame site tests its category inline.  Benchmarks run with
tracing off; debugging and some tests run with it on.

Long runs can cap memory with ``max_records``: the tracer becomes a ring
buffer keeping the most recent records and counting what it dropped.

:func:`export_chrome_trace` converts a tracer's records into the Chrome
trace-event JSON format (load in ``chrome://tracing`` or Perfetto):
``edge.state`` records become per-edge lifecycle spans, everything else
becomes instant events on a per-category track.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, NamedTuple, Optional, Union

from .core import Simulator

__all__ = ["Tracer", "TraceRecord", "export_chrome_trace"]


class TraceRecord(NamedTuple):
    time: int
    category: str
    payload: Any


class Tracer:
    """Selective trace recorder.

    ``enable("frame.tx")`` turns on a category and installs the tracer as
    its simulator's ``tracer`` (DESIGN.md, "Observers"); :meth:`record` is a
    no-op for disabled categories.  ``enable_all()`` is available for
    debugging.
    ``max_records`` bounds memory: older records are discarded (FIFO) once
    the cap is hit, with :attr:`dropped_records` counting the casualties.
    """

    def __init__(self, sim: Simulator, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 (or None for unbounded)")
        self._sim = sim
        # Read inline by the per-frame trace sites, which pay no call.
        self.enabled: set[str] = set()
        self.everything = False
        self.max_records = max_records
        self.records: Union[list[TraceRecord], deque[TraceRecord]]
        if max_records is None:
            self.records = []
        else:
            self.records = deque(maxlen=max_records)
        self.dropped_records = 0

    def enable(self, *categories: str) -> None:
        self.enabled.update(categories)
        self._sim.tracer = self

    def disable(self, *categories: str) -> None:
        self.enabled.difference_update(categories)

    def enable_all(self) -> None:
        self.everything = True
        self._sim.tracer = self

    def is_enabled(self, category: str) -> bool:
        return self.everything or category in self.enabled

    def record(self, category: str, payload: Any = None) -> None:
        if self.everything or category in self.enabled:
            records = self.records
            if (
                self.max_records is not None
                and len(records) == self.max_records
            ):
                self.dropped_records += 1
            records.append(TraceRecord(self._sim.now, category, payload))

    def by_category(self, category: str) -> list[TraceRecord]:
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()
        self.dropped_records = 0

    def categories(self) -> Iterable[str]:
        return sorted({r.category for r in self.records})


def export_chrome_trace(
    tracer: Tracer,
    path: Optional[str] = None,
    end_time_ns: Optional[int] = None,
) -> dict:
    """Convert a tracer's records to Chrome trace-event JSON.

    ``edge.state`` records (payload keys ``conn``, ``rail``, ``new``,
    ``reason``) are stitched into complete-span ("X") events — one track
    per ``(connection, rail)`` — so each edge's UP/SUSPECT/DOWN/RECOVERING
    history renders as colored bars.  All other categories become instant
    ("i") events on a per-category track.  Timestamps are microseconds, as
    the format requires.

    ``end_time_ns`` closes any still-open lifecycle span (defaults to the
    last record's timestamp).  When ``path`` is given the JSON is also
    written there.  Returns the trace dict.
    """
    events: list[dict] = []
    # (conn, rail) -> (span start ns, state name)
    open_spans: dict[tuple[Any, Any], tuple[int, str]] = {}
    last_ts = 0

    def close_span(key: tuple[Any, Any], until_ns: int) -> None:
        started, state = open_spans.pop(key)
        conn, rail = key
        events.append(
            {
                "name": state,
                "cat": "edge.state",
                "ph": "X",
                "ts": started / 1e3,
                "dur": max(until_ns - started, 0) / 1e3,
                "pid": 1,
                "tid": f"conn{conn}.rail{rail}",
            }
        )

    for rec in tracer.records:
        last_ts = max(last_ts, rec.time)
        if rec.category == "edge.state" and isinstance(rec.payload, dict):
            payload = rec.payload
            key = (payload.get("conn"), payload.get("rail"))
            if key in open_spans:
                close_span(key, rec.time)
            open_spans[key] = (rec.time, str(payload.get("new", "?")))
            events.append(
                {
                    "name": f"-> {payload.get('new', '?')}",
                    "cat": "edge.state",
                    "ph": "i",
                    "s": "t",
                    "ts": rec.time / 1e3,
                    "pid": 1,
                    "tid": f"conn{key[0]}.rail{key[1]}",
                    "args": {"reason": payload.get("reason", "")},
                }
            )
        else:
            args = rec.payload if isinstance(rec.payload, dict) else {
                "payload": repr(rec.payload)
            }
            events.append(
                {
                    "name": rec.category,
                    "cat": rec.category,
                    "ph": "i",
                    "s": "t",
                    "ts": rec.time / 1e3,
                    "pid": 1,
                    "tid": rec.category,
                    "args": args,
                }
            )

    horizon = end_time_ns if end_time_ns is not None else last_ts
    for key in list(open_spans):
        close_span(key, horizon)

    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {"dropped_records": tracer.dropped_records},
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(trace, fh)
    return trace
