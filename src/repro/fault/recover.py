"""Recovery semantics: launcher-level restart and ULFM-style primitives.

Two complementary recovery paths:

* :func:`run_with_recovery` -- restart-level recovery.  Runs a job under an
  armed :class:`~repro.fault.inject.FaultPlan`; when a rank dies from an
  *injected* fault, the fired faults are disarmed and the job is re-run
  deterministically (bounded by ``max_restarts``).  Because injection is
  one-shot and execution is deterministic, the retry replays the exact
  pre-fault execution and then continues past the fault point -- the same
  replay guarantee :func:`repro.fault.checkpoint.resume_from_checkpoint`
  validates against a snapshot.  Recovery events are traced as ``repro.obs``
  instants and counted in the job's :class:`MetricsRegistry`.

* ULFM-style communicator repair (:func:`revoke` / :func:`shrink` /
  :func:`agree`) -- in-run recovery for programs that handle failures
  cooperatively (MPI_Comm_revoke / MPI_Comm_shrink / MPI_Comm_agree of the
  fault-tolerance working group's ULFM proposal): survivors revoke the
  broken communicator, shrink it to a deterministic survivor communicator,
  and agree on a recovery decision with a fault-tolerant logical AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.fault import inject as _inject
from repro.fault.inject import FaultPlan, InjectedFault
from repro.mpi.communicator import Communicator, Group
from repro.mpi.errors import MPIError
from repro.obs.hooks import current_hooks
from repro.sim.engine import RankFailedError

#: Engine-blackboard key holding the set of revoked context ids.
REVOKED_KEY = "fault.revoked"

#: Engine-blackboard key prefix for agreement rounds.
AGREE_KEY = "fault.agree"

#: Bound on the cooperative agreement spin (defensive; survivors that all
#: call :func:`agree` converge in a handful of turns).
AGREE_SPIN_LIMIT = 100_000


# ------------------------------------------------------------ ULFM primitives


def revoke(runtime, comm: Optional[Communicator] = None) -> None:
    """ULFM ``MPI_Comm_revoke``: mark the communicator unusable, world-wide."""
    comm = comm or runtime.comm_world
    revoked = runtime.world.engine.shared.setdefault(REVOKED_KEY, set())
    revoked.add(comm.context_id)


def is_revoked(runtime, comm: Optional[Communicator] = None) -> bool:
    """Whether the communicator has been revoked by any rank."""
    comm = comm or runtime.comm_world
    revoked = runtime.world.engine.shared.get(REVOKED_KEY, set())
    return comm.context_id in revoked


def shrink(comm: Communicator, failed: Iterable[int]) -> Communicator:
    """ULFM ``MPI_Comm_shrink``: the survivor communicator.

    Every survivor computes the same group and the same context id as a pure
    function of ``(comm, failed)``, so no negotiation round is needed --
    exactly how this simulation derives ``comm_dup`` ids.
    """
    failed_set = set(failed)
    survivors = tuple(r for r in comm.group.world_ranks if r not in failed_set)
    if not survivors:
        raise MPIError(f"shrink of {comm.name} leaves no survivors")
    context_id = (comm.context_id + 2) * 100_000 + sum(
        (r + 1) * 13 for r in sorted(failed_set)
    ) % 99_991
    return Communicator(
        Group(world_ranks=survivors),
        name=f"{comm.name}.shrink",
        context_id=context_id,
    )


def agree(
    runtime,
    comm: Communicator,
    flag: bool,
    failed: Iterable[int] = (),
) -> bool:
    """ULFM ``MPI_Comm_agree``: fault-tolerant logical AND over survivors.

    Every surviving member of ``comm`` must call this the same number of
    times; ranks listed in ``failed`` are excluded from the agreement.  The
    survivors rendezvous on the engine's shared blackboard and yield
    cooperatively until all contributions arrive.
    """
    failed_set = set(failed)
    participants = [r for r in comm.group.world_ranks if r not in failed_set]
    shared = runtime.world.engine.shared
    seq = runtime._next_seq(comm)  # same per-comm ordinal on every caller
    key = (AGREE_KEY, comm.context_id, seq)
    entry = shared.setdefault(key, {})
    entry[runtime.rank_world] = bool(flag)
    for _ in range(AGREE_SPIN_LIMIT):
        if all(r in entry for r in participants):
            break
        runtime.ctx.advance(runtime.wtick())
        runtime.ctx.yield_turn()
    else:
        raise MPIError(
            f"agreement on {comm.name} never completed: have {sorted(entry)}, "
            f"need {participants}"
        )
    return all(entry[r] for r in participants)


def mark_failed(runtime, rank: Optional[int] = None) -> None:
    """Cooperatively publish a rank failure on the blackboard (soft failure)."""
    failed = runtime.world.engine.shared.setdefault("fault.failed_ranks", set())
    failed.add(runtime.rank_world if rank is None else rank)


def failed_ranks(runtime) -> set:
    """The set of ranks that have published a (soft) failure."""
    return set(runtime.world.engine.shared.get("fault.failed_ranks", set()))


# ------------------------------------------------------- restart-level recovery


@dataclass
class RecoveryResult:
    """Outcome of :func:`run_with_recovery`."""

    job: object  # repro.api.JobResult of the successful attempt
    attempts: int
    fired: List[dict] = field(default_factory=list)
    failures: List[dict] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return self.attempts > 1


def _injected_cause(err: BaseException) -> Optional[InjectedFault]:
    """The InjectedFault at the root of a failure, if injection caused it."""
    seen = set()
    queue: List[BaseException] = [err]
    while queue:
        exc = queue.pop()
        if id(exc) in seen or exc is None:
            continue
        seen.add(id(exc))
        if isinstance(exc, InjectedFault):
            return exc
        for nxt in (getattr(exc, "original", None), exc.__cause__, exc.__context__):
            if nxt is not None:
                queue.append(nxt)
    return None


def run_with_recovery(
    app,
    nranks: int,
    plan: Optional[FaultPlan] = None,
    max_restarts: int = 2,
    session=None,
    **run_kwargs,
) -> RecoveryResult:
    """Run a job under a fault plan, restarting past injected failures.

    On a :class:`RankFailedError` caused by an injected fault the fired
    faults stay disarmed and the job re-runs from the start (deterministic
    replay).  Genuine (non-injected) failures and exhausted restart budgets
    re-raise.  The returned result carries the successful job plus the full
    fired-fault and failure history; the job's metrics gain
    ``fault.injected`` / ``fault.restarts`` / ``fault.recovered`` counters.
    """
    from repro.api.session import current_session  # late: api imports this stack

    sess = session if session is not None else current_session()
    tracer = current_hooks().tracer
    disarmed: List[int] = []
    fired: List[dict] = []
    failures: List[dict] = []
    attempts = 0
    while True:
        attempts += 1
        active = None
        try:
            if plan is not None:
                with _inject.inject_faults(plan, disarmed) as active:
                    job = sess.run(app, nranks, **run_kwargs)
            else:
                job = sess.run(app, nranks, **run_kwargs)
            break
        except RankFailedError as err:
            if active is not None:
                fired.extend(active.fired)
                disarmed = sorted({*disarmed, *active.fired_indices()})
            injected = _injected_cause(err)
            failures.append({
                "attempt": attempts,
                "rank": err.rank,
                "type": type(err.original).__name__,
                "injected": injected is not None,
                "message": str(err.original),
            })
            if injected is None or attempts > max_restarts:
                raise
            if tracer is not None:
                tracer.instant(
                    "fault.recovery.restart", injected.rank, injected.at,
                    args={"attempt": attempts, "fault": injected.index},
                )
            continue
    if active is not None:
        fired.extend(active.fired)
    job.metrics.increment("fault.injected", len(fired))
    job.metrics.increment("fault.restarts", attempts - 1)
    if attempts > 1:
        job.metrics.increment("fault.recovered")
        if tracer is not None:
            tracer.instant(
                "fault.recovered", 0, 0.0,
                args={"attempts": attempts, "fired": len(fired)},
            )
    return RecoveryResult(job=job, attempts=attempts, fired=fired, failures=failures)
