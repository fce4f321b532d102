"""Schedule representation of collective algorithms (the NBC substrate).

A :class:`Schedule` is one rank's part of a collective, expressed as ordered
*rounds* of primitive steps -- the representation libNBC introduced and Open
MPI's ``coll/libnbc`` component still uses.  Building a schedule is a pure
function of the call shape ``(rank, size, payload, root, seq)``; *executing*
it is a separate concern handled by :class:`ScheduleExecutor`, which can run

* to completion with blocking receives (the classic blocking collectives), or
* incrementally, stopping at the first receive with no buffered match (the
  progress engine behind ``MPI_Iallreduce`` and friends drives this from
  ``MPI_Test``/``MPI_Wait``).

Because both entry points execute the *same* schedule, each algorithm has
exactly one implementation -- and every registered algorithm is one.

Steps operate on named byte buffers supplied by the caller (the user-visible
payload plus schedule-declared temporaries), so a schedule itself carries no
payload data and can be built before any communication happens:

* :class:`SendStep` / :class:`RecvStep` -- communicator-local peer exchanges;
  payload bytes are read/written at *execution* time, which is what lets a
  later round depend on data received in an earlier one.
* :class:`CopyStep` -- local byte move between buffers.
* :class:`ReduceStep` -- combine a contribution into an accumulator segment
  via the executing call's reduction op (charged as compute time).

Builders (the sibling modules) register per ``(collective, algorithm)`` with
:func:`register_builder`; the runtime's blocking and non-blocking entry
points both look them up with :func:`get_builder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.fault import checkpoint as _checkpoint
from repro.fault import inject as _inject
from repro.mpi.algorithms import registry
from repro.mpi.algorithms.base import CollectiveContext, combine_segment
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op
from repro.obs import trace as _trace


class _StepBase:
    """Shared step behaviour: a stable ``round_index`` and ``describe()``.

    ``round_index`` is stamped by :class:`Schedule` when the step joins a
    round (``None`` until then), so round attribution is a property of the
    step itself rather than of its position in the flattened list -- the
    analyzer's findings and the obs trace labels therefore name the same
    round.  It is excluded from equality: two steps describing the same
    exchange compare equal regardless of which round holds them.  Steps are
    plain (unfrozen) records because a builder creates thousands of them per
    job and nothing hashes or shares one.
    """

    round_index: Optional[int]

    def _round_suffix(self) -> str:
        return f" @round {self.round_index}" if self.round_index is not None else ""


@dataclass
class SendStep(_StepBase):
    """Send ``nbytes`` of buffer ``buf`` at byte offset ``lo`` to ``peer``.

    ``buf`` may be ``None`` for zero-byte token messages (barriers).
    """

    peer: int
    tag: int
    buf: Optional[str] = None
    lo: int = 0
    nbytes: int = 0
    round_index: Optional[int] = field(default=None, compare=False)

    def describe(self) -> str:
        payload = f"{self.buf}[{self.lo}:{self.lo + self.nbytes})" if self.buf else "token"
        return f"send({payload} -> rank {self.peer}, tag={self.tag}){self._round_suffix()}"


@dataclass
class RecvStep(_StepBase):
    """Receive ``nbytes`` from ``peer`` into buffer ``buf`` at offset ``lo``.

    ``buf`` may be ``None`` for zero-byte token messages; the receive still
    consumes a message (and its timing) from the matching engine.
    """

    peer: int
    tag: int
    buf: Optional[str] = None
    lo: int = 0
    nbytes: int = 0
    round_index: Optional[int] = field(default=None, compare=False)

    def describe(self) -> str:
        payload = f"{self.buf}[{self.lo}:{self.lo + self.nbytes})" if self.buf else "token"
        return f"recv({payload} <- rank {self.peer}, tag={self.tag}){self._round_suffix()}"


@dataclass
class CopyStep(_StepBase):
    """Copy ``nbytes`` from ``src``@``slo`` to ``dst``@``dlo`` (local, free)."""

    src: str
    slo: int
    dst: str
    dlo: int
    nbytes: int
    round_index: Optional[int] = field(default=None, compare=False)

    def describe(self) -> str:
        return (
            f"copy({self.src}[{self.slo}:{self.slo + self.nbytes}) -> "
            f"{self.dst}[{self.dlo}:{self.dlo + self.nbytes})){self._round_suffix()}"
        )


@dataclass
class ReduceStep(_StepBase):
    """Combine ``count`` elements from ``src``@``slo`` (bytes) into the
    accumulator ``dst`` starting at element ``elem_offset``.

    The op and datatype are execution-time parameters (they are per call, not
    per schedule), so reduction schedules are reusable across ops.
    """

    src: str
    slo: int
    dst: str
    elem_offset: int
    count: int
    round_index: Optional[int] = field(default=None, compare=False)

    def describe(self) -> str:
        return (
            f"reduce({self.src}[{self.slo}:...) -> {self.dst} "
            f"elems [{self.elem_offset}:{self.elem_offset + self.count})){self._round_suffix()}"
        )


Step = Union[SendStep, RecvStep, CopyStep, ReduceStep]


class Schedule:
    """Ordered rounds of steps for one rank's part of one collective call.

    Rounds group the steps the way the algorithm papers present them; the
    executor runs the flattened step list strictly in order, which reproduces
    the exact send/recv order of the original blocking implementations (and
    therefore inherits their deadlock-freedom).
    """

    def __init__(self) -> None:
        self.rounds: List[List[Step]] = []
        #: Temporary buffers the executor must allocate: name -> size in bytes.
        self.temps: Dict[str, int] = {}

    def round(self, steps: Optional[List[Step]] = None) -> List[Step]:
        """Open a new round (optionally pre-populated) and return it."""
        rnd: List[Step] = list(steps or [])
        round_no = len(self.rounds)
        for step in rnd:
            step.round_index = round_no
        self.rounds.append(rnd)
        return rnd

    def add(self, step: Step) -> None:
        """Append ``step`` to the current (last) round, opening one if needed."""
        if not self.rounds:
            self.rounds.append([])
        step.round_index = len(self.rounds) - 1
        self.rounds[-1].append(step)

    def temp(self, name: str, nbytes: int) -> str:
        """Declare a temporary buffer and return its name."""
        self.temps[name] = max(self.temps.get(name, 0), int(nbytes))
        return name

    def flat(self) -> List[Step]:
        """The steps of every round, concatenated in execution order."""
        return [step for rnd in self.rounds for step in rnd]

    @property
    def n_steps(self) -> int:
        return sum(len(rnd) for rnd in self.rounds)


class ScheduleExecutor:
    """Drives one rank's :class:`Schedule` against a :class:`CollectiveContext`.

    The executor is the per-request state machine of the progress engine: it
    remembers how far execution got (``_pc``), owns the working buffers, and
    exposes both a non-blocking :meth:`try_progress` (stops at the first
    receive with nothing buffered) and a blocking :meth:`run_to_completion`.
    ``on_complete`` fires exactly once, with the buffer dict, when the last
    step has executed -- the runtime uses it to copy results into the caller's
    (possibly guest-memory) buffers.

    Incremental execution separates *consumption* from *arrival*: receives
    taken through the context's ``recv_nb`` charge only CPU overhead, and the
    payload's arrival time accumulates into :attr:`data_time` instead of
    stalling the rank.  Steps that read received data (sends, reductions)
    still advance the clock to :attr:`data_time` first -- an interior tree
    node cannot forward bytes it has not received -- but a leaf receive costs
    the rank nothing until its request is *completed*, which is what lets the
    transfer hide behind caller compute.  The operation counts as complete
    only once the rank's clock has reached :attr:`data_time`.
    """

    def __init__(
        self,
        cc: CollectiveContext,
        schedule: Schedule,
        buffers: Optional[Dict[str, bytearray]] = None,
        datatype: Optional[Datatype] = None,
        op: Optional[Op] = None,
        on_complete: Optional[Callable[[Dict[str, bytearray]], None]] = None,
    ) -> None:
        self._cc = cc
        self._steps = schedule.flat()
        #: Round index of each step: rounds are control-dependency barriers
        #: (a round may only start once every payload consumed in earlier
        #: rounds has arrived -- zero-byte barrier tokens included).
        self._round_of = [
            round_no for round_no, rnd in enumerate(schedule.rounds) for _step in rnd
        ]
        self._pc = 0
        self.buffers: Dict[str, bytearray] = dict(buffers or {})
        for name, size in schedule.temps.items():
            self.buffers.setdefault(name, bytearray(size))
        self._views = {name: memoryview(buf) for name, buf in self.buffers.items()}
        self._datatype = datatype
        self._op = op
        self._on_complete = on_complete
        self._finished = False
        #: Virtual time at which every received payload has actually arrived;
        #: the operation's completion time is at least this.
        self.data_time = 0.0
        #: Per-buffer arrival times: a step only stalls on the buffers it
        #: actually reads, so e.g. an alltoall send of caller-supplied data
        #: is never held back by an unrelated receive still in flight.
        self._buffer_ready: Dict[str, float] = {}

    # ----------------------------------------------------------------- status

    @property
    def done(self) -> bool:
        return self._pc >= len(self._steps)

    def pending_recv(self) -> Optional[RecvStep]:
        """The receive the executor is currently stalled on, if any."""
        if not self.done:
            step = self._steps[self._pc]
            if isinstance(step, RecvStep):
                return step
        return None

    def checkpoint_state(self) -> dict:
        """Executor position for ``repro.fault`` checkpoints.

        Captured at round boundaries, where the position is fully described
        by the program counter (buffers in earlier rounds have been consumed,
        later rounds have not started).  JSON-safe by construction: the same
        dict is compared ``==`` against its serialized copy during
        digest-validated replay.
        """
        return {
            "pc": self._pc,
            "n_steps": len(self._steps),
            "round": self._round_of[self._pc] if not self.done else -1,
            "data_time": self.data_time,
            "finished": self._finished,
        }

    # -------------------------------------------------------------- execution

    def _notify_round(self) -> None:
        """Fault/checkpoint hook at round boundaries.

        Callers invoke this right after every ``_pc`` increment, guarded on
        the module-level flags (one attribute read each on the unarmed hot
        path, mirroring ``_trace.ENABLED``).  A *crossing* is the transition
        out of a round: all steps of earlier rounds executed, none of the
        next -- schedule completion counts as crossing out of the last round,
        so single-round schedules still cross once.  The capture hook runs
        before the injection hook so a checkpoint and a kill armed at the
        same round capture-then-kill.
        """
        pc = self._pc
        if pc == 0:
            return
        if pc < len(self._steps) and self._round_of[pc] == self._round_of[pc - 1]:
            return
        rank = self._trace_tid()
        now = self._trace_now()
        if _checkpoint.CAPTURE is not None:
            _checkpoint.CAPTURE.on_schedule_round(rank, now, self)
        if _inject.ARMED:
            _inject.ACTIVE.on_schedule_round(rank, now)

    def try_progress(self) -> bool:
        """Execute steps in order without ever blocking.

        Stops (returning ``False``) at the first :class:`RecvStep` whose
        message is not already buffered; returns ``True`` once every step has
        executed.  Receives go through the context's ``recv_nb``, so the rank
        is charged CPU overhead only and the payload's arrival accumulates
        into :attr:`data_time` instead of stalling the clock.
        """
        while not self.done:
            step = self._steps[self._pc]
            if isinstance(step, RecvStep):
                arrival = self._cc.recv_nb(step.peer, step.tag, self._target(step))
                if arrival is None:
                    return False
                self.data_time = max(self.data_time, arrival)
                if step.buf is not None:
                    self._buffer_ready[step.buf] = max(
                        self._buffer_ready.get(step.buf, 0.0), arrival
                    )
                self._pc += 1
                if _inject.ARMED or _checkpoint.CAPTURE is not None:
                    self._notify_round()
                if _trace.ENABLED:
                    self._trace_step("sched.nbc_step", step)
                continue
            # Data/round dependency: a send or reduction may read payload
            # consumed by an earlier non-blocking receive, and a new round
            # may only start once earlier rounds' payload has arrived.  If
            # that arrival is still ahead of this rank's virtual time, stall
            # instead of advancing the clock, so the gap stays available for
            # caller compute.
            needed = self._step_ready_time(self._pc)
            if needed > 0:
                if self._cc.now() < needed:
                    return False
                self._cc.advance_to(needed)
            self._execute(step)
            self._pc += 1
            if _inject.ARMED or _checkpoint.CAPTURE is not None:
                self._notify_round()
            if _trace.ENABLED:
                self._trace_step("sched.nbc_step", step)
        self._finish()
        if _trace.ENABLED:
            self._trace_step("sched.nbc_complete", None)
        return True

    def _step_data_time(self, step: Step) -> float:
        """Arrival time of the received data ``step`` reads (0 when it only
        touches caller-supplied payload)."""
        if isinstance(step, SendStep):
            return self._buffer_ready.get(step.buf, 0.0) if step.buf else 0.0
        if isinstance(step, ReduceStep):
            return max(
                self._buffer_ready.get(step.src, 0.0),
                self._buffer_ready.get(step.dst, 0.0),
            )
        return 0.0

    def _step_ready_time(self, pc: int) -> float:
        """Earliest virtual time step ``pc`` may execute.

        Combines the round barrier (a new round needs every earlier round's
        payload to have arrived -- a *control* dependency, so it also covers
        zero-byte barrier tokens) with the step's own data dependency.
        """
        step = self._steps[pc]
        needed = self._step_data_time(step)
        if pc > 0 and self._round_of[pc] != self._round_of[pc - 1]:
            needed = max(needed, self.data_time)
        return needed

    def next_ready_time(self) -> Optional[float]:
        """Earliest virtual time at which time alone unblocks this executor.

        ``data_time`` when the schedule is finished (payload still in flight),
        the stalled step's ready time when a data- or round-dependent step is
        waiting; ``None`` while progress depends on a peer's message instead.
        """
        if self.done:
            return self.data_time
        needed = self._step_ready_time(self._pc)
        if needed > 0 and self._cc.now() < needed:
            return needed
        return None

    # ---------------------------------------------------------------- tracing

    def _trace_tid(self) -> int:
        """Per-rank trace stream: the COMM_WORLD rank."""
        return self._cc.world_rank

    def _trace_now(self) -> float:
        return self._cc.now()

    def _trace_step(self, name: str, step: Optional[Step]) -> None:
        """Instant event for one executed step (callers guard on the flag)."""
        args = None
        if step is not None:
            # Prefer the step's own (build-time) round stamp so trace labels
            # agree with repro.analysis findings; positional attribution is
            # only the fallback for hand-built steps never added to a round.
            round_no = step.round_index
            if round_no is None:
                round_no = self._round_of[self._pc - 1] if self._pc else 0
            args = {"kind": type(step).__name__, "round": round_no}
            peer = getattr(step, "peer", None)
            if peer is not None:
                args["peer"] = peer
                args["nbytes"] = step.nbytes
        _trace.RECORDER.instant(name, self._trace_tid(), self._trace_now(), args)

    def run_to_completion(self) -> None:
        """Execute every step, blocking inside unmatched receives.

        For a fresh executor only (:func:`execute` is the one caller): the
        loop computes no ready times, which is sound because blocking
        receives never leave payload in flight -- it must not be used to
        finish a schedule :meth:`try_progress` has started.
        """
        if _trace.ENABLED and not self.done:
            self._run_to_completion_traced()
            return
        steps = self._steps
        while self._pc < len(steps):
            self._execute(steps[self._pc])
            self._pc += 1
            if _inject.ARMED or _checkpoint.CAPTURE is not None:
                self._notify_round()
        self._finish()

    def _run_to_completion_traced(self) -> None:
        """Blocking execution with one span per round and per step.

        Only this path emits round/step *spans*: blocking execution runs the
        schedule start-to-finish inside one MPI call, so the spans nest under
        the call's span on the rank's stream.  Incremental execution
        (:meth:`try_progress`) interleaves steps of several schedules across
        many MPI calls and emits instant events instead -- begin/end pairs
        there would partially overlap other spans and break nesting.
        """
        recorder = _trace.RECORDER
        tid = self._trace_tid()
        current_round = -1
        while not self.done:
            round_no = self._round_of[self._pc]
            if round_no != current_round:
                if current_round >= 0:
                    recorder.end(tid, self._trace_now())
                recorder.begin(f"sched.round[{round_no}]", tid, self._trace_now())
                current_round = round_no
            step = self._steps[self._pc]
            recorder.begin(f"sched.{type(step).__name__}", tid, self._trace_now())
            self._execute(step)
            self._pc += 1
            recorder.end(tid, self._trace_now())
            if _inject.ARMED or _checkpoint.CAPTURE is not None:
                self._notify_round()
        if current_round >= 0:
            recorder.end(tid, self._trace_now())
        self._finish()

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            if self._on_complete is not None:
                self._on_complete(self.buffers)

    def _target(self, step: Union[SendStep, RecvStep]) -> Optional[memoryview]:
        """The slice of its buffer a send reads or a receive fills (``None``
        for a zero-byte token)."""
        if step.buf is None:
            return None
        return self._views[step.buf][step.lo : step.lo + step.nbytes]

    def _execute(self, step: Step) -> None:
        """Perform one step.  Ready times are the incremental loop's concern
        (:meth:`try_progress`): blocking receives advance the clock to the
        arrival themselves, so under :meth:`run_to_completion` every ready
        time is 0 and nothing needs computing.

        Payload moves through the buffers' memoryviews, so a slice is copied
        once: a send hands the context a view (the message takes its own
        copy), a receive hands it the destination view (the message is
        written straight into it).
        """
        views = self._views
        if isinstance(step, SendStep):
            self._cc.send(step.peer, step.tag, self._target(step) or b"")
        elif isinstance(step, RecvStep):
            self._cc.recv(step.peer, step.tag, self._target(step))
        elif isinstance(step, CopyStep):
            if step.nbytes > 0:
                views[step.dst][step.dlo : step.dlo + step.nbytes] = views[step.src][
                    step.slo : step.slo + step.nbytes
                ]
                # The copy itself is free, but the destination now carries the
                # source's (possibly still in-flight) data.
                src_ready = self._buffer_ready.get(step.src, 0.0)
                if src_ready > 0:
                    self._buffer_ready[step.dst] = max(
                        self._buffer_ready.get(step.dst, 0.0), src_ready
                    )
        elif isinstance(step, ReduceStep):
            if step.count > 0:
                if self._op is None or self._datatype is None:
                    raise ValueError("schedule has reduce steps but no op/datatype bound")
                nbytes = step.count * self._datatype.size
                combine_segment(
                    self._cc, self._op, views[step.dst],
                    views[step.src][step.slo : step.slo + nbytes],
                    self._datatype, step.elem_offset, step.count,
                )
        else:  # pragma: no cover - registry integrity guard
            raise TypeError(f"unknown schedule step {step!r}")


def execute(
    cc: CollectiveContext,
    schedule: Schedule,
    buffers: Optional[Dict[str, bytearray]] = None,
    datatype: Optional[Datatype] = None,
    op: Optional[Op] = None,
) -> Dict[str, bytearray]:
    """Run ``schedule`` to completion (the blocking entry points use this)."""
    executor = ScheduleExecutor(cc, schedule, buffers, datatype, op)
    executor.run_to_completion()
    return executor.buffers


# ------------------------------------------------------------ builder registry
#
# A registered algorithm *is* its schedule builder: there is one store
# (:data:`repro.api.registry.ALGORITHMS`, reached through
# :mod:`repro.mpi.algorithms.registry`), and these are its names on the
# schedule side.  Each collective's builder signature and buffer contract
# (which named buffers the caller supplies and reads back, and their sizes)
# is its row of :data:`repro.mpi.algorithms.registry.CONTRACTS`.

register_builder = registry.register
get_builder = registry.get
has_builder = registry.is_registered
builders_for = registry.algorithms_for
