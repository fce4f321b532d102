"""``repro.analysis`` -- the static verification layer.

Three analyzers over the artifacts the runtime otherwise trusts, sharing one
findings model (:mod:`repro.analysis.findings`) and one CLI
(``repro-harness analyze`` / ``python -m repro.analysis``):

* :mod:`repro.analysis.schedule_check` -- cross-rank verification of the
  libNBC-style collective schedules: send/recv matching, deadlock-freedom
  (wait-for-graph acyclicity with the cycle printed rank by rank), byte
  conservation, and result-buffer coverage, swept over every registered
  builder up to 4096 ranks without executing anything.
* :mod:`repro.analysis.ir_verify` -- structural verification of lowered-IR
  artifacts and mined fusion tables before the interpreter links them;
  wired into ``deserialize_lowered(verify=True)`` for cache loads.
* :mod:`repro.analysis.codelint` -- AST linter for invariants this repo has
  already paid for in bugfixes (monotonic clocks in lock code, env reads
  via ``core/envvars.py``, obs fast-path discipline, ...), baseline-gated.
* :func:`verify_checkpoint` -- document-level verification of
  :mod:`repro.fault.checkpoint` snapshots (digest, rank coverage, executor
  position bounds, memory-image consistency) without resuming them.  The
  checks live with the format, in :mod:`repro.fault.checkpoint`, so
  ``load_checkpoint`` refuses exactly what this reports as an error.

The findings types are eagerly importable; the analyzers themselves load
lazily so ``import repro.analysis`` stays cheap (the schedule checker pulls
in the full algorithms registry).
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Report, Severity

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "codelint",
    "findings",
    "ir_verify",
    "schedule_check",
    "verify_checkpoint",
]


def __getattr__(name: str):
    if name in ("codelint", "findings", "ir_verify", "schedule_check"):
        import importlib

        return importlib.import_module(f"repro.analysis.{name}")
    if name == "verify_checkpoint":
        from repro.fault.checkpoint import verify_checkpoint

        return verify_checkpoint
    raise AttributeError(f"module 'repro.analysis' has no attribute {name!r}")
