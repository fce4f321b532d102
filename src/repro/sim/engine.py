"""Cooperative discrete-event engine for simulated MPI ranks.

Every simulated MPI rank executes real Python code (a native guest program or
a WebAssembly module driven through the MPIWasm embedder) on its own thread.
Exactly one rank thread runs at a time: the one holding the execution token.

Token protocol (direct handoff, no scheduler thread in the loop):

* A rank gives the token up in three places -- :meth:`SimEngine.block`,
  :meth:`SimEngine.yield_rank` and when its program ends.  Under the engine
  lock it picks the next holder itself: the rank with the smallest
  ``(turn, rank)``.  A ``READY`` rank's turn is its clock.  A ``BLOCKED``
  rank has a turn only once it has a wake time: a *timed block*
  (``block(..., wake_at=t)``) gives it ``max(clock, t)``, and a wake with
  ``not_before`` lowers that to ``max(clock, not_before)`` if earlier -- so
  it resumes at whichever comes first, after every rank that can act
  before then.  That rule alone orders execution, so virtual clocks,
  makespans and trace order are deterministic.
* It marks that rank ``RUNNING``, moves its clock to its turn and releases
  that rank's *park* lock, a binary semaphore released exactly once per
  transition to ``RUNNING``, then parks on its own.  One OS thread switch
  per handoff; when the rank giving the token up is itself the minimum (a
  yield, or a timed block whose deadline is the earliest turn) it keeps the
  token and no switch happens.
* The thread inside :meth:`SimEngine.run` starts the first rank and sleeps
  until a rank reports that nothing can be handed the token: every rank
  finished, a rank ``FAILED`` (the failing rank hands off to nobody), or every
  unfinished rank is ``BLOCKED`` with no wake time (deadlock).  Only then does
  it act: it alone wakes survivors, in rank order, to unwind them (no rank
  hands off during teardown) and raises :class:`RankFailedError` or
  :class:`DeadlockError`.

Rank code never touches the engine directly -- it goes through a
:class:`RankContext`, which exposes the rank id, the virtual clock, explicit
time advancement (used by the network and compute models) and a
block/wake protocol, with an optional wake time, used by the MPI matching
engine.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class DeadlockError(SimulationError):
    """Raised when every unfinished rank is blocked and nothing can wake them.

    As with :class:`RankFailedError`, the blocked ranks have been torn down by
    the time this propagates; :attr:`rank_clocks` and :attr:`rank_states`
    record the per-rank clocks and lifecycle states after the unwind.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.rank_clocks: List[float] = []
        self.rank_states: Dict[int, "RankState"] = {}


class RankFailedError(SimulationError):
    """Raised when a rank's program raised an exception.

    The original traceback text is preserved in :attr:`rank_traceback` so test
    failures point at the guest code, not at the engine.  By the time this
    error propagates out of :meth:`SimEngine.run`, every surviving rank has
    been deterministically torn down (no parked threads are left behind);
    :attr:`rank_clocks` and :attr:`rank_states` record the final per-rank
    clocks and lifecycle states at failure time.
    """

    def __init__(self, rank: int, original: BaseException, tb: str):
        super().__init__(f"rank {rank} failed: {original!r}")
        self.rank = rank
        self.original = original
        self.rank_traceback = tb
        #: Final virtual clocks by rank (filled in by the engine on teardown).
        self.rank_clocks: List[float] = []
        #: Final lifecycle states by rank (filled in by the engine on teardown).
        self.rank_states: Dict[int, "RankState"] = {}


class _RankTeardown(BaseException):
    """Internal unwind signal for surviving rank threads after a failure.

    Derives from ``BaseException`` so guest-level ``except Exception``
    handlers cannot swallow it; it never escapes :meth:`SimEngine._thread_main`.
    """


class RankState(Enum):
    """Lifecycle state of a simulated rank."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"
    #: Unwound by the engine after a failure or deadlock (not a failure itself).
    TORN_DOWN = "torn_down"


#: The turn of a rank that cannot be handed the token.
_NEVER = float("inf")


def _held_lock() -> Any:
    lock = threading.Lock()
    lock.acquire()
    return lock


@dataclass
class _RankRecord:
    """Internal book-keeping for one rank thread."""

    rank: int
    target: Callable[["RankContext"], Any]
    state: RankState = RankState.CREATED
    clock: float = 0.0
    thread: Optional[threading.Thread] = None
    # Binary semaphore the rank parks on: held while the rank waits for the
    # token, released exactly once per READY -> RUNNING transition.
    park: Any = field(default_factory=_held_lock)
    result: Any = None
    error: Optional[BaseException] = None
    error_tb: str = ""
    block_reason: str = ""
    # A wake that arrived while the rank was not blocked, and its earliest
    # resume time: consumed by the rank's next yield or block.
    wake_not_before: float = 0.0
    wake_pending: bool = False
    # Virtual time at which the rank competes for the token: its clock while
    # READY, its wake time while BLOCKED, _NEVER while it cannot be picked.
    turn: float = _NEVER
    # Set by the engine after a failure or deadlock: the next time this rank
    # is woken it unwinds via _RankTeardown instead of resuming.
    teardown: bool = False


class RankContext:
    """Handle given to rank code for interacting with the simulation.

    The context is the only sanctioned way for guest-side code (the MPI
    library, the embedder, benchmark drivers) to read or advance virtual time
    and to block waiting for communication partners.
    """

    def __init__(self, engine: "SimEngine", rank: int):
        self._engine = engine
        self._rank = rank
        # The clock is read and advanced on every MPI call: go straight to
        # the rank's record (only this rank's thread moves its own clock
        # while it holds the token).
        self._rec = engine._records[rank]

    @property
    def rank(self) -> int:
        """Identifier of this rank within the simulation (0-based)."""
        return self._rank

    @property
    def nranks(self) -> int:
        """Total number of ranks in the simulation."""
        return self._engine.nranks

    @property
    def now(self) -> float:
        """Current virtual time of this rank, in seconds."""
        return self._rec.clock

    def advance(self, dt: float) -> float:
        """Advance this rank's virtual clock by ``dt`` seconds.

        Negative advances are clamped to zero; returns the new clock value.
        """
        rec = self._rec
        if dt > 0:
            rec.clock += dt
        return rec.clock

    def advance_to(self, t: float) -> float:
        """Advance this rank's virtual clock to at least ``t`` seconds."""
        rec = self._rec
        if t > rec.clock:
            rec.clock = t
        return rec.clock

    def block(self, reason: str = "", *, wake_at: Optional[float] = None) -> float:
        """Block this rank until another rank wakes it or, given ``wake_at``,
        until virtual time ``wake_at`` is the earliest thing left to happen.

        Returns the virtual time at which execution resumed.  Callers are
        expected to re-check their wait condition after returning (the wake
        protocol is a condition-variable style "notify", not a guarantee).
        """
        return self._engine.block(self._rank, reason, wake_at=wake_at)

    def wake(self, other: int, not_before: float = 0.0) -> None:
        """Wake another rank, optionally constraining its resume time."""
        self._engine.wake(other, not_before)

    def yield_turn(self) -> None:
        """Voluntarily yield the execution token without blocking.

        The rank stays runnable but offers the token to any rank with an
        earlier turn (keeping it if there is none); used by busy-wait
        style loops (e.g. ``MPI_Iprobe`` polling).
        """
        self._engine.yield_rank(self._rank)

    def log(self, message: str) -> None:
        """Record a trace message tagged with the rank and virtual time."""
        self._engine.trace(self._rank, message)


class SimEngine:
    """Deterministic cooperative scheduler for a fixed set of ranks.

    Parameters
    ----------
    nranks:
        Number of ranks to simulate.
    trace:
        When true, :meth:`RankContext.log` messages are retained in
        :attr:`trace_log` (useful in tests); otherwise they are dropped.
    """

    def __init__(self, nranks: int, trace: bool = False):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.nranks = nranks
        self._records: List[_RankRecord] = []
        self._lock = threading.Lock()
        # Set by a rank that found nobody to hand the token to; wakes run().
        self._idle = threading.Event()
        self._trace_enabled = trace
        self.trace_log: List[str] = []
        self._started = False
        # Shared blackboard for cross-rank state (used by the MPI matching
        # engine); the engine itself never interprets it.
        self.shared: Dict[str, Any] = {}

    # ------------------------------------------------------------------ setup

    def spawn(self, target: Callable[[RankContext], Any], rank: Optional[int] = None) -> int:
        """Register the program for one rank.

        If ``rank`` is omitted, ranks are assigned in registration order.
        Returns the rank id assigned.
        """
        if self._started:
            raise SimulationError("cannot spawn ranks after the simulation started")
        if rank is None:
            rank = len(self._records)
        if rank != len(self._records):
            raise SimulationError(
                f"ranks must be spawned in order; expected {len(self._records)}, got {rank}"
            )
        if rank >= self.nranks:
            raise SimulationError(f"rank {rank} out of range for nranks={self.nranks}")
        self._records.append(_RankRecord(rank=rank, target=target))
        return rank

    def spawn_all(self, factory: Callable[[int], Callable[[RankContext], Any]]) -> None:
        """Spawn every rank using ``factory(rank)`` to build each program."""
        for r in range(self.nranks):
            self.spawn(factory(r))

    # ------------------------------------------------------------ clock access

    @property
    def max_clock(self) -> float:
        """Largest virtual clock across all ranks (the makespan so far)."""
        return max((r.clock for r in self._records), default=0.0)

    # ------------------------------------------------------------ block / wake

    def block(self, rank: int, reason: str = "", *, wake_at: Optional[float] = None) -> float:
        """Block the calling rank thread until another rank wakes it.

        With ``wake_at`` the block is *timed*: the rank competes for the
        token at ``(max(clock, wake_at), rank)`` and resumes at that time,
        unless a wake with an earlier ``not_before`` comes first.  A wake
        already pending resumes it at once, at its ``not_before`` capped by
        ``wake_at``.
        """
        rec = self._records[rank]
        if rec.teardown:
            raise _RankTeardown()
        deadline = _NEVER if wake_at is None else wake_at
        with self._lock:
            if rec.wake_pending:
                # A wake arrived before we blocked: consume it and continue.
                return self._consume_wake(rec, deadline)
            rec.state = RankState.BLOCKED
            rec.block_reason = reason
            rec.turn = max(rec.clock, deadline)
            kept = self._pass_token(rec)
        return self._park(rec, switched=not kept)

    def yield_rank(self, rank: int) -> float:
        """Offer the token to a rank with an earlier turn while staying runnable."""
        rec = self._records[rank]
        if rec.teardown:
            raise _RankTeardown()
        with self._lock:
            if rec.wake_pending:
                # Someone already re-scheduled us: consume the wake, keep running.
                return self._consume_wake(rec, _NEVER)
            rec.state = RankState.READY
            rec.turn = rec.clock
            kept = self._pass_token(rec)
        return self._park(rec, switched=not kept)

    @staticmethod
    def _consume_wake(rec: _RankRecord, deadline: float) -> float:
        """Take a pending wake: the rank keeps running from its
        ``not_before``, capped at ``deadline``.  The caller holds ``_lock``."""
        rec.wake_pending = False
        resume = min(rec.wake_not_before, deadline)
        rec.wake_not_before = 0.0
        if resume > rec.clock:
            rec.clock = resume
        return rec.clock

    def _pass_token(self, rec: Optional[_RankRecord]) -> bool:
        """Hand the token on; the caller holds ``_lock`` and gave it up.

        The next holder is the rank with the smallest ``(turn, rank)`` (ranks
        are scanned in order, so a strict ``<`` breaks ties by rank); its
        clock moves to its turn.  Returns true when the holder is ``rec``
        itself, which then keeps running; with nobody to pick, :meth:`run`
        is woken to tell completion from deadlock.
        """
        nxt = None
        turn = _NEVER
        for cand in self._records:
            if cand.turn < turn:
                nxt, turn = cand, cand.turn
        if nxt is None:
            self._idle.set()
            return False
        # A READY rank may have been woken since it yielded (a BLOCKED one
        # never has a wake pending: a wake lowers its turn instead).
        nxt.clock = max(turn, nxt.wake_not_before)
        nxt.wake_not_before, nxt.turn = 0.0, _NEVER
        nxt.state = RankState.RUNNING
        if nxt is not rec:
            nxt.park.release()
        return nxt is rec

    def _park(self, rec: _RankRecord, switched: bool = True) -> float:
        """Wait to be handed the token (if it was passed on), then resume."""
        if switched:
            rec.park.acquire()
            if rec.teardown:
                raise _RankTeardown()
        return rec.clock

    def wake(self, rank: int, not_before: float = 0.0) -> None:
        """End ``rank``'s block at ``not_before`` (at once if already past),
        unless it resumes earlier anyway."""
        rec = self._records[rank]
        with self._lock:
            if rec.state is RankState.BLOCKED:
                rec.turn = min(rec.turn, max(rec.clock, not_before))
            else:
                # Rank has not blocked yet (or is running); remember the wake.
                rec.wake_not_before = max(rec.wake_not_before, not_before)
                rec.wake_pending = True

    def trace(self, rank: int, message: str) -> None:
        """Append a trace line (no-op unless tracing is enabled)."""
        if self._trace_enabled:
            self.trace_log.append(f"[t={self._records[rank].clock:.9f}][rank {rank}] {message}")

    # ------------------------------------------------------------------- run

    def _thread_main(self, rec: _RankRecord) -> None:
        ctx = RankContext(self, rec.rank)
        rec.park.acquire()  # first turn
        rec.state = RankState.RUNNING
        try:
            rec.result = rec.target(ctx)
            rec.state = RankState.DONE
        except _RankTeardown:
            rec.state = RankState.TORN_DOWN
        except BaseException as exc:  # noqa: BLE001 - report guest failures
            rec.error = exc
            rec.error_tb = traceback.format_exc()
            rec.state = RankState.FAILED
        with self._lock:
            if rec.state is RankState.FAILED:
                self._idle.set()
            elif not rec.teardown:
                self._pass_token(rec)

    def run(self) -> List[Any]:
        """Run all ranks to completion and return their results by rank.

        Raises :class:`RankFailedError` if any rank raised, and
        :class:`DeadlockError` if the simulation cannot make progress.
        """
        if len(self._records) != self.nranks:
            raise SimulationError(
                f"{len(self._records)} ranks spawned but nranks={self.nranks}"
            )
        self._started = True
        for rec in self._records:
            rec.state = RankState.READY
            rec.turn = rec.clock
            rec.thread = threading.Thread(
                target=self._thread_main, args=(rec,), name=f"sim-rank-{rec.rank}", daemon=True
            )
            rec.thread.start()

        with self._lock:
            self._pass_token(None)
        # Sleep until a rank finds nobody to hand the token to.
        self._idle.wait()

        failed = next((r for r in self._records if r.state is RankState.FAILED), None)
        if failed is not None:
            self._raise_rank_failure(failed)
        blocked = ", ".join(
            f"rank {r.rank} ({r.block_reason or 'unknown'})"
            for r in self._records
            if r.state is RankState.BLOCKED
        )
        if blocked:
            self._teardown_survivors()
            err = DeadlockError(f"simulation deadlocked; blocked: {blocked}")
            err.rank_clocks = self.clocks()
            err.rank_states = self.states()
            raise err
        return [r.result for r in self._records]

    def _teardown_survivors(self) -> None:
        """Deterministically unwind every rank still parked (failure or deadlock).

        Runs on the :meth:`run` thread, outside the lock: survivors need the
        lock to unwind through :meth:`block`/:meth:`yield_rank`.

        Survivors are woken in rank order with their ``teardown`` flag set, so
        each unwinds via :class:`_RankTeardown` (running ``finally`` blocks on
        the way out) and reaches :attr:`RankState.TORN_DOWN`; each thread is
        joined before the next is woken, keeping the unwind order -- and any
        side effects it has on shared state -- reproducible.
        """
        with self._lock:
            survivors = [
                r for r in self._records
                if r.state in (RankState.READY, RankState.BLOCKED)
            ]
            for rec in survivors:
                rec.teardown = True
        for rec in survivors:
            rec.park.release()
            rec.thread.join(timeout=10.0)
            if rec.thread.is_alive():
                raise SimulationError(
                    f"rank {rec.rank} did not unwind within 10 s of teardown; "
                    f"its thread {rec.thread.name} is still alive"
                )

    def _raise_rank_failure(self, rec: _RankRecord) -> None:
        """Tear down survivors, then raise the enriched RankFailedError."""
        self._teardown_survivors()
        err = RankFailedError(rec.rank, rec.error, rec.error_tb)
        err.rank_clocks = self.clocks()
        err.rank_states = self.states()
        raise err from rec.error

    # ------------------------------------------------------------- inspection

    def states(self) -> Dict[int, RankState]:
        """Return a snapshot of every rank's lifecycle state."""
        return {r.rank: r.state for r in self._records}

    def clocks(self) -> List[float]:
        """Return the virtual clocks of all ranks, indexed by rank."""
        return [r.clock for r in self._records]
