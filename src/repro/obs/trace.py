"""Low-overhead span/instant trace recorder with dual timestamps.

The recorder is the collection half of :mod:`repro.obs`; the export half
(:mod:`repro.obs.export`) turns its snapshots into Chrome trace-event JSON
and JSON-lines.  Design constraints, in order:

* **Near-zero cost when disabled.**  A job's recorder is its hooks'
  ``tracer`` (:mod:`repro.obs.hooks`); instrumentation sites in the MPI
  runtime, the schedule executor, and the matching engine test it against
  ``None`` *before* evaluating any event arguments, so a disabled trace
  costs one attribute read per site.
* **Bounded memory.**  Events live in a ring buffer; when ``capacity`` is
  exceeded the oldest events are dropped and counted in
  :attr:`TraceRecorder.dropped` rather than silently lost.
* **Dual timestamps.**  Every event carries the simulated clock (``ts``,
  seconds -- the timeline axis the exporters use) and the host monotonic
  clock (``wall``, seconds) so real-time cost can be correlated with
  simulated time.
* **Per-rank streams.**  Events are keyed by an integer ``tid`` (the MPI
  world rank); each tid has its own open-span stack, so per-rank streams
  nest independently.

Events are plain dicts, picklable across the campaign worker-pool
boundary.  Span events use Chrome's complete-event phase (``"X"``:
``ts`` + ``dur``); instant events use ``"i"``.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs.hooks import installed

__all__ = [
    "DEFAULT_CAPACITY",
    "TraceRecorder",
    "tracing",
]

DEFAULT_CAPACITY = 65536


class TraceRecorder:
    """Bounded ring buffer of span ("X") and instant ("i") events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self.unbalanced = 0
        self._events: Deque[dict] = deque()
        self._open: Dict[int, List[dict]] = {}

    # ----------------------------------------------------------------- record

    def _append(self, event: dict) -> None:
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.popleft()
            self.dropped += 1

    def begin(self, name: str, tid: int, ts: float, args: Optional[dict] = None) -> None:
        """Open a span on rank-stream ``tid`` at simulated time ``ts``."""
        span = {"name": name, "ph": "X", "tid": int(tid),
                "ts": float(ts), "wall": time.perf_counter()}
        if args:
            span["args"] = args
        self._open.setdefault(int(tid), []).append(span)

    def end(self, tid: int, ts: float, args: Optional[dict] = None) -> None:
        """Close the innermost open span on ``tid``.

        An ``end`` with no matching ``begin`` is counted in
        :attr:`unbalanced` and otherwise ignored, so a recorder enabled
        mid-flight cannot corrupt the stream.
        """
        stack = self._open.get(int(tid))
        if not stack:
            self.unbalanced += 1
            return
        span = stack.pop()
        span["dur"] = max(float(ts) - span["ts"], 0.0)
        span["wall_dur"] = max(time.perf_counter() - span["wall"], 0.0)
        if args:
            span.setdefault("args", {}).update(args)
        self._append(span)

    def complete(self, name: str, tid: int, ts: float, dur: float,
                 args: Optional[dict] = None) -> None:
        """Record a span whose start and duration are already known."""
        span = {"name": name, "ph": "X", "tid": int(tid), "ts": float(ts),
                "dur": max(float(dur), 0.0), "wall": time.perf_counter(),
                "wall_dur": 0.0}
        if args:
            span["args"] = args
        self._append(span)

    def instant(self, name: str, tid: int, ts: float, args: Optional[dict] = None) -> None:
        """Record a point-in-time event on rank-stream ``tid``."""
        event = {"name": name, "ph": "i", "tid": int(tid),
                 "ts": float(ts), "wall": time.perf_counter()}
        if args:
            event["args"] = args
        self._append(event)

    @contextmanager
    def span(self, name: str, tid: int, now, args: Optional[dict] = None) -> Iterator[None]:
        """Context manager wrapping :meth:`begin`/:meth:`end`.

        ``now`` is a zero-argument callable returning the simulated clock;
        it is sampled on entry and exit so the span tracks simulated time.
        """
        self.begin(name, tid, now(), args)
        try:
            yield
        finally:
            self.end(tid, now())

    # ------------------------------------------------------------------ query

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[dict]:
        """Closed events in record order (open spans are not included)."""
        return list(self._events)

    def open_spans(self, tid: Optional[int] = None) -> int:
        """Number of spans begun but not yet ended (optionally for one tid)."""
        if tid is not None:
            return len(self._open.get(int(tid), []))
        return sum(len(stack) for stack in self._open.values())

    def snapshot(self) -> dict:
        """Plain-data snapshot that survives pickling across processes."""
        return {
            "events": self.events(),
            "dropped": self.dropped,
            "unbalanced": self.unbalanced,
            "open_spans": self.open_spans(),
        }

    def clear(self) -> None:
        """Drop all events, open spans, and drop counters."""
        self._events.clear()
        self._open.clear()
        self.dropped = 0
        self.unbalanced = 0


# ----------------------------------------------------------------- activation


@contextmanager
def tracing(recorder: Optional[TraceRecorder] = None,
            capacity: int = DEFAULT_CAPACITY) -> Iterator[TraceRecorder]:
    """Trace the jobs this thread starts in the block into ``recorder`` (or
    a fresh one).  An inner ``tracing()`` block records into its own
    recorder and the outer one resumes afterwards."""
    active = recorder if recorder is not None else TraceRecorder(capacity)
    with installed(tracer=active):
        yield active
