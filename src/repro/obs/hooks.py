"""Per-job hooks: the tracer, profiler, fault plan and checkpoint capture.

A job runs with one :class:`JobHooks`; a hook that is off is ``None``.
``tracing()``, ``profiling()``, ``inject_faults()`` and
``capture_checkpoint()`` each install a replaced copy of the current hooks in
one context variable for their block.  ``execute_job`` reads it once, in the
thread starting the job, and hands the hooks down with the job (world,
runtimes, matching engine, schedule executors, instances); rank threads never
read it.  So jobs that different threads run at once each see only their own
hooks.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional


@dataclass(frozen=True, slots=True)
class JobHooks:
    """What one job records into; a field is ``None`` when that hook is off."""

    tracer: Optional["repro.obs.trace.TraceRecorder"] = None
    profiler: Optional["repro.obs.profile.InterpreterProfiler"] = None
    faults: Optional["repro.fault.inject.ActivePlan"] = None
    capture: Optional["repro.fault.checkpoint.CheckpointCapture"] = None


NO_HOOKS = JobHooks()

_HOOKS: ContextVar[JobHooks] = ContextVar("repro_job_hooks", default=NO_HOOKS)


def current_hooks() -> JobHooks:
    """The hooks a job started from this thread (or task) would run with."""
    return _HOOKS.get()


@contextmanager
def installed(**hooks: Any) -> Iterator[JobHooks]:
    """Replace some of the current thread's hooks for the block."""
    token = _HOOKS.set(replace(_HOOKS.get(), **hooks))
    try:
        yield _HOOKS.get()
    finally:
        _HOOKS.reset(token)
