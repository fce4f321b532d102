"""repro.obs -- tracing, profiling, and timeline export.

Three cooperating pieces, switched on per job (:mod:`repro.obs.hooks`):

* :mod:`repro.obs.trace` -- the :class:`TraceRecorder` span/instant API,
  the job's ``tracer``; the MPI runtime, the collective schedule executor,
  and the pt2pt matching engine emit into it when tracing is on
  (``Session(trace=True)``, ``REPRO_TRACE=1``, or ``repro-harness trace``).
* :mod:`repro.obs.profile` -- opt-in sampled interpreter profiling
  (handler/superinstruction histograms, hot-function self time), the job's
  ``profiler``; surfaced by ``repro-harness profile``.
* :mod:`repro.obs.export` / :mod:`repro.obs.validate` -- Chrome
  trace-event JSON (Perfetto-loadable) and JSON-lines exporters, plus a
  structural validator used by tests and CI.
"""

from repro.obs.export import (
    merge_traces,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import (
    InterpreterProfiler,
    format_profile_report,
    profiling,
)
from repro.obs.trace import TraceRecorder, tracing
from repro.obs.validate import validate_chrome_trace

__all__ = [
    "InterpreterProfiler",
    "TraceRecorder",
    "format_profile_report",
    "merge_traces",
    "profiling",
    "to_chrome_trace",
    "to_jsonl",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
