"""``repro.fault`` -- checkpoint/restart, fault injection, recovery, journal.

The fault-tolerance subsystem (ROADMAP item 4).  Four coordinated pieces:

* :mod:`repro.fault.checkpoint` -- versioned, content-addressed snapshots of
  per-rank execution state (guest linear memory, globals, tables, schedule
  position, sim clocks) with digest-validated deterministic replay as the
  restore path, plus true write-back restore for quiescent instance state.
* :mod:`repro.fault.inject` -- seeded, serializable :class:`FaultPlan`\\ s
  (kill a rank at an MPI call or schedule round, drop/corrupt a message,
  delay a link), armed per job as its ``faults`` hook so the uninjected
  hot path pays one attribute read.
* :mod:`repro.fault.recover` -- restart-from-fault recovery at the launcher
  level (:func:`run_with_recovery`) and cooperative ULFM-style primitives
  (``revoke``/``shrink``/``agree``) for in-run recovery.
* :mod:`repro.fault.journal` -- the append-only on-disk job journal shared
  by resumable campaigns (``repro-harness campaign --resume``) and the serve
  daemon's crash-safe job store.
"""

from repro.fault.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointStateMismatch,
    capture_checkpoint,
    capture_instance_state,
    job_descriptor,
    load_checkpoint,
    restore_instance_state,
    resume_from_checkpoint,
    write_checkpoint,
)
from repro.fault.inject import (
    Fault,
    FaultPlan,
    InjectedFault,
    inject_faults,
)
from repro.fault.journal import Journal
from repro.fault.recover import (
    RecoveryResult,
    agree,
    revoke,
    run_with_recovery,
    shrink,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointStateMismatch",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "Journal",
    "RecoveryResult",
    "agree",
    "capture_checkpoint",
    "capture_instance_state",
    "inject_faults",
    "job_descriptor",
    "load_checkpoint",
    "restore_instance_state",
    "resume_from_checkpoint",
    "revoke",
    "run_with_recovery",
    "shrink",
    "write_checkpoint",
]
