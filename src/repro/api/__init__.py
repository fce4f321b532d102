"""``repro.api`` -- the stable, versioned public surface of the reproduction.

This package is the programmatic front door HPC launchers (and the bundled
CLIs) use::

    from repro.api import Session

    with Session(machine="graviton2", backend="cranelift") as session:
        job = session.run("pingpong", np=2)       # compiles once, warm after
        result = session.campaign(spec, workers=4)

Three subsystems make up the surface:

* :mod:`repro.api.session` -- warm :class:`Session` objects with cross-job
  artifact reuse and context-manager lifecycle,
* :mod:`repro.api.registry` -- one decorator-based registration mechanism for
  every extension point (back-ends, machines, benchmarks, collective
  algorithms, experiment drivers, execution modes),
* :mod:`repro.api.config` -- layered :class:`ResolvedConfig` (defaults <
  config file < ``REPRO_*`` environment < kwargs) with recorded provenance.

The static-analysis layer (:mod:`repro.analysis`) is re-exported here too:
the :class:`Finding`/:class:`Severity`/:class:`Report` findings model plus
:func:`check_schedules` / :func:`check_schedule_point` / :func:`schedule_sweep`
(cross-rank schedule verification) and :func:`verify_lowered_artifact`
(lowered-IR artifact verification).

The fault-tolerance subsystem (:mod:`repro.fault`) is re-exported here:
:func:`capture_checkpoint` / :func:`load_checkpoint` /
:func:`resume_from_checkpoint` for checkpoint/restart, :class:`FaultPlan` /
:func:`inject_faults` for deterministic fault injection,
:func:`run_with_recovery` for restart-level recovery, and :class:`Journal`
for the crash-safe job journal behind resumable campaigns and the serve
daemon (:func:`verify_checkpoint` statically checks snapshot documents).

The observability subsystem (:mod:`repro.obs`) is re-exported here as well:
:func:`tracing` / :class:`TraceRecorder` record per-rank MPI event traces,
:func:`to_chrome_trace` / :func:`merge_traces` / :func:`write_chrome_trace`
export Perfetto-loadable timelines, and :func:`profiling` /
:class:`InterpreterProfiler` drive the interpreter's sampled profiling hooks.

``__all__`` is the compatibility contract: it is asserted against
``docs/api_manifest.json`` by the CI ``api-stability`` job, and
``docs/API.md`` (regenerate with ``python -m repro.api.docgen``) documents
every name.  Version 2.0 removed the pre-session entry points (the one-shot
launcher functions, self-configuring embedders, the cache façade module):
:class:`Session` is the only way a job runs.

Attribute access is lazy (PEP 562) so that low-level modules may import
``repro.api.registry`` without dragging the whole execution stack in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

#: Version of the public API contract (bumped on breaking surface changes).
API_VERSION = "2.0"

#: name -> submodule that defines it (resolved lazily on first access).
_EXPORT_SOURCES = {
    "Session": "session",
    "JobResult": "session",
    "run": "session",
    "current_session": "session",
    "default_session": "session",
    "use_session": "session",
    "resolve_machine": "session",
    "ResolvedConfig": "config",
    "Registry": "registry",
    "UnknownEntryError": "registry",
    "DuplicateEntryError": "registry",
    "BACKENDS": "registry",
    "MACHINES": "registry",
    "BENCHMARKS": "registry",
    "ALGORITHMS": "registry",
    "EXPERIMENTS": "registry",
    "MODES": "registry",
    "register_backend": "registry",
    "register_machine": "registry",
    "register_benchmark": "registry",
    "register_algorithm": "registry",
    "register_experiment": "registry",
    "register_mode": "registry",
    # Observability (repro.obs): absolute module paths, resolved the same way.
    "TraceRecorder": "repro.obs",
    "tracing": "repro.obs",
    "enable_tracing": "repro.obs",
    "disable_tracing": "repro.obs",
    "to_chrome_trace": "repro.obs",
    "merge_traces": "repro.obs",
    "write_chrome_trace": "repro.obs",
    "validate_chrome_trace": "repro.obs",
    "InterpreterProfiler": "repro.obs",
    "profiling": "repro.obs",
    "format_profile_report": "repro.obs",
    # Serving (repro.serve): the multi-tenant job service over warm sessions.
    "ServeConfig": "repro.serve",
    "JobService": "repro.serve",
    "Tenant": "repro.serve",
    "TenantStore": "repro.serve",
    "create_server": "repro.serve",
    "run_server": "repro.serve",
    # Static analysis (repro.analysis): findings model + analyzer entry points.
    "Finding": "repro.analysis",
    "Report": "repro.analysis",
    "Severity": "repro.analysis",
    "check_schedules": "repro.analysis.schedule_check",
    "check_schedule_point": "repro.analysis.schedule_check",
    "schedule_sweep": "repro.analysis.schedule_check",
    "verify_lowered_artifact": "repro.analysis.ir_verify",
    "verify_checkpoint": "repro.analysis",
    # Fault tolerance (repro.fault): checkpoint/restart, injection, recovery.
    "Checkpoint": "repro.fault",
    "Fault": "repro.fault",
    "FaultPlan": "repro.fault",
    "InjectedFault": "repro.fault",
    "Journal": "repro.fault",
    "RecoveryResult": "repro.fault",
    "capture_checkpoint": "repro.fault",
    "inject_faults": "repro.fault",
    "job_descriptor": "repro.fault",
    "load_checkpoint": "repro.fault",
    "resume_from_checkpoint": "repro.fault",
    "run_with_recovery": "repro.fault",
}

__all__ = sorted(["API_VERSION", *_EXPORT_SOURCES])

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api.config import ResolvedConfig  # noqa: F401
    from repro.obs import (  # noqa: F401
        InterpreterProfiler,
        TraceRecorder,
        disable_tracing,
        enable_tracing,
        format_profile_report,
        merge_traces,
        profiling,
        to_chrome_trace,
        tracing,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.api.registry import (  # noqa: F401
        ALGORITHMS,
        BACKENDS,
        BENCHMARKS,
        EXPERIMENTS,
        MACHINES,
        MODES,
        DuplicateEntryError,
        Registry,
        UnknownEntryError,
        register_algorithm,
        register_backend,
        register_benchmark,
        register_experiment,
        register_machine,
        register_mode,
    )
    from repro.api.session import (  # noqa: F401
        JobResult,
        Session,
        current_session,
        default_session,
        resolve_machine,
        run,
        use_session,
    )
    from repro.serve import (  # noqa: F401
        JobService,
        ServeConfig,
        Tenant,
        TenantStore,
        create_server,
        run_server,
    )
    from repro.analysis import (  # noqa: F401
        Finding,
        Report,
        Severity,
    )
    from repro.analysis.checkpoint_verify import (  # noqa: F401
        verify_checkpoint,
    )
    from repro.analysis.ir_verify import (  # noqa: F401
        verify_lowered_artifact,
    )
    from repro.fault import (  # noqa: F401
        Checkpoint,
        Fault,
        FaultPlan,
        InjectedFault,
        Journal,
        RecoveryResult,
        capture_checkpoint,
        inject_faults,
        job_descriptor,
        load_checkpoint,
        resume_from_checkpoint,
        run_with_recovery,
    )
    from repro.analysis.schedule_check import (  # noqa: F401
        check_schedule_point,
        check_schedules,
        schedule_sweep,
    )


def __getattr__(name: str):
    source = _EXPORT_SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    # Sources containing a dot are absolute module paths (e.g. "repro.obs");
    # bare names are submodules of this package.
    module = importlib.import_module(source if "." in source else f"repro.api.{source}")
    value = getattr(module, name)
    globals()[name] = value          # cache for subsequent accesses
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
