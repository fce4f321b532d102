"""In-memory span recorder for the benchmark's own calls into the program.

Spans are recorded around every call the benchmark makes into a layer's
public function (``Session(...)``, ``session.run``, ``run_campaign``,
``svc.submit``, each poll, ...), kept in memory and written out once at the
end.  Spans inside the program are ``repro.obs``'s business, not this file's.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "SpanRecorder", name: str, args: dict):
        self.recorder = recorder
        self.record = {"name": name, "args": args}

    def __enter__(self):
        rec = self.recorder
        stack = rec._stack()
        with rec._lock:
            rec._next_id += 1
            self.record["id"] = rec._next_id
        self.record["parent"] = stack[-1]["id"] if stack else None
        self.record["tid"] = threading.current_thread().name
        self.record["unit"] = rec.unit
        stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info):
        self.record["end"] = time.perf_counter()
        self.recorder._stack().pop()
        with self.recorder._lock:
            self.recorder.spans.append(self.record)
        return False


class SpanRecorder:
    """Nested spans per thread; disabled (free) unless ``enabled`` is set."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        #: Index of the unit of work being recorded (shared by its spans).
        self.unit = 0
        self.spans: List[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **args):
        """Context manager recording one span (a no-op while disabled)."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, args)

    # ------------------------------------------------------------- analysis

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus what direct children cover."""
        child_time: Dict[Optional[int], float] = {}
        for s in self.spans:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (s["end"] - s["start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def nesting_errors(self) -> List[str]:
        """Spans whose parent is unknown, which escape it, or with negative self time."""
        by_id = {s["id"]: s for s in self.spans}
        problems = []
        for s in self.spans:
            parent = s["parent"]
            if parent is None:
                continue
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {s['name']}#{s['id']} has unknown parent {parent}")
            elif s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(f"span {s['name']}#{s['id']} escapes parent {p['name']}#{parent}")
        for name, own in self.self_seconds().items():
            if own < -1e-6:
                problems.append(f"negative self time {own:.6f}s for {name}")
        return problems

    def to_chrome_events(self, pid: int) -> List[dict]:
        """Chrome trace-event dicts ("X" spans + process/thread names)."""
        if not self.spans:
            return []
        origin = min(s["start"] for s in self.spans)
        tids = {name: i for i, name in enumerate(sorted({s["tid"] for s in self.spans}))}
        events: List[dict] = [{"ph": "M", "pid": pid, "name": "process_name",
                               "args": {"name": self.workload}}]
        for name, tid in tids.items():
            events.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                           "args": {"name": name}})
        for s in sorted(self.spans, key=lambda s: s["start"]):
            events.append({
                "ph": "X", "pid": pid, "tid": tids[s["tid"]], "name": s["name"],
                "ts": (s["start"] - origin) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "workload": self.workload,
                         "unit": s["unit"], **s["args"]},
            })
        return events
