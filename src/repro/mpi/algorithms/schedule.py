"""Schedule representation of collective algorithms (the NBC substrate).

A :class:`Schedule` is one rank's part of a collective, expressed as ordered
*rounds* of primitive steps -- the representation libNBC introduced and Open
MPI's ``coll/libnbc`` component still uses.  Building a schedule is a pure
function of the call shape ``(rank, size, payload, root, seq)``; *executing*
it is a separate concern handled by :class:`ScheduleExecutor`, which has one
loop and one set of timing rules.  A progress pass runs that loop until its
first stall (``MPI_I<c>`` starts a schedule this way, and ``MPI_Test`` and
the progress engine continue it); a wait runs it to the end (``MPI_Wait``).
The blocking ``MPI_<C>`` is the pass followed by the wait inside one call,
as in libNBC and Open MPI's ``coll/libnbc``, so blocking and non-blocking
calls of one schedule cost the same simulated time, and each algorithm has
exactly one implementation -- every registered algorithm is one.

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
:func:`register_builder`; the runtime looks them up with :func:`get_builder`.
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
    runs every step through one loop, :meth:`progress`.  A progress pass
    stops at the first stall; a wait resolves each stall in place and runs
    to the end.  ``MPI_I<c>`` starts a schedule with a pass and ``MPI_Wait``
    finishes it with a wait; ``MPI_<C>`` does both inside one call, so the
    two cost the same simulated time by construction.  ``on_complete`` fires
    exactly once, with the buffer dict, when the operation completes -- the
    runtime uses it to copy results into the caller's (possibly guest-memory)
    buffers.

    The timing rules follow libNBC (Hoefler, Lumsdaine, Rehm, SC'07), the
    design Open MPI's ``coll/libnbc`` still ships:

    * **A receive is posted, then waited for.**  Consuming a buffered match
      (the context's ``recv``) charges only the receiver's CPU overhead; the
      payload's arrival accumulates into :attr:`data_time` and stalls the
      rank only when something needs the bytes.  libNBC starts every
      ``MPI_Irecv`` of a round and then tests them all, so a linear gather
      root posts its ``p - 1`` receives and waits for all of them, and a
      leaf's transfer can hide behind caller compute.
    * **A step that reads received bytes waits for them** (per buffer, so a
      send of caller-supplied data is never held back by an unrelated
      receive).  libNBC expresses this with a round boundary between the
      receive and the operation; a schedule here may keep a receive and the
      reduction that consumes it in one round.
    * **Rounds are barriers.**  libNBC starts round *r* + 1 only once every
      request of round *r* has completed, so the first step of a round --
      receives included -- waits until every payload consumed so far has
      arrived, zero-byte barrier tokens too: without it a barrier's round-k
      token would leave before its round-(k - 1) token had arrived.  Sends
      complete at injection here (the matching engine buffers them), so only
      receives hold a round back.
    * **The operation completes once the last payload has arrived.**
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
        #: Per-buffer arrival times (the data-dependency rule above).
        self._buffer_ready: Dict[str, float] = {}
        #: The rank's clock when the loop last read it.  Clocks only move
        #: forward, so no arrival at or below it can stall a step: the loop
        #: reads the clock again only once ``data_time`` passes it.
        self._clock_seen = 0.0

    # ----------------------------------------------------------------- status

    @property
    def done(self) -> bool:
        return self._pc >= len(self._steps)

    def pending_recv(self) -> Optional[RecvStep]:
        """The receive the executor is stalled on for want of a message (not
        one still held back by time), if any."""
        if not self.done:
            step = self._steps[self._pc]
            if isinstance(step, RecvStep) and self._step_ready_time(self._pc) <= self._cc.now():
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
        if pc < len(self._steps) and self._round_of[pc] == self._round_of[pc - 1]:
            return
        rank, now = self._cc.world_rank, self._cc.now()
        if _checkpoint.CAPTURE is not None:
            _checkpoint.CAPTURE.on_schedule_round(rank, now, self)
        if _inject.ARMED:
            _inject.ACTIVE.on_schedule_round(rank, now)

    def progress(self, wait: bool = False) -> bool:
        """The execution loop: run steps in order until a stall or the end.

        Returns ``True`` once the operation is complete.  There are two kinds
        of stall, and ``wait`` decides what each costs:

        * a **message stall** -- a receive with no buffered match.  A pass
          returns ``False``; a wait receives through the context's ``wait``,
          the runtime's one blocking wait (which keeps weak progress on the
          rank's other requests);
        * a **time stall** -- a round barrier, a data dependency, or payload
          still in flight at the end.  A pass returns ``False``, so the gap
          stays available for caller compute; a wait advances the clock to
          the ready time with no tick and no yield, because that time comes
          only from messages already consumed and no peer can make it
          earlier.

        Trace form (behind ``_trace.ENABLED``): one ``sched.round[N]``
        instant where a round starts and one ``sched.<Step>`` span per step
        (a wait's receive span includes its message stall), so steps nest
        inside the MPI call that ran them.
        """
        cc, steps, round_of = self._cc, self._steps, self._round_of
        n_steps = len(steps)
        while True:
            pc = self._pc
            # Every ready time is an arrival already folded into data_time.
            if self.data_time > self._clock_seen:
                needed, now = self._step_ready_time(pc), cc.now()
                if needed > now:
                    if not wait:
                        self._clock_seen = now
                        return False
                    cc.advance_to(needed)
                    now = needed
                self._clock_seen = now
            if pc == n_steps:
                break
            step = steps[pc]
            start = cc.now() if _trace.ENABLED else 0.0
            if type(step) is RecvStep:
                target = self._target(step)
                arrival = cc.recv(step.peer, step.tag, target)
                if arrival is None:
                    if not wait:
                        return False
                    arrival = cc.wait(step.peer, step.tag, target)
                if arrival > self.data_time:
                    self.data_time = arrival
                if step.buf is not None and arrival > self._buffer_ready.get(step.buf, 0.0):
                    self._buffer_ready[step.buf] = arrival
            else:
                self._execute(step)
            self._pc = pc + 1
            if _trace.ENABLED:
                tid = cc.world_rank
                if pc == 0 or round_of[pc] != round_of[pc - 1]:
                    _trace.RECORDER.instant(f"sched.round[{round_of[pc]}]", tid, start)
                args = {"round": round_of[pc]}
                if type(step) is SendStep or type(step) is RecvStep:
                    args["peer"], args["nbytes"] = step.peer, step.nbytes
                _trace.RECORDER.complete(
                    f"sched.{type(step).__name__}", tid, start, cc.now() - start, args
                )
            if _inject.ARMED or _checkpoint.CAPTURE is not None:
                self._notify_round()
        if not self._finished:
            self._finished = True
            if self._on_complete is not None:
                self._on_complete(self.buffers)
        return True

    def _step_ready_time(self, pc: int) -> float:
        """Earliest virtual time step ``pc`` may execute: the round barrier
        at a round's first step -- and at the end, which completes the
        operation -- and otherwise the arrival of the received bytes the
        step reads (0 when it only touches caller-supplied payload)."""
        if pc == len(self._steps) or (pc > 0 and self._round_of[pc] != self._round_of[pc - 1]):
            return self.data_time  # no arrival is later than data_time
        step = self._steps[pc]
        ready = self._buffer_ready
        if isinstance(step, SendStep):
            return ready.get(step.buf, 0.0) if step.buf else 0.0
        if isinstance(step, ReduceStep):
            return max(ready.get(step.src, 0.0), ready.get(step.dst, 0.0))
        return 0.0

    def next_ready_time(self) -> Optional[float]:
        """Earliest virtual time at which time alone unblocks this executor.

        ``data_time`` when every step has run (payload still in flight), the
        stalled step's ready time on a time stall; ``None`` on a message
        stall, when progress depends on a peer instead.
        """
        if self.done:
            return self.data_time
        needed = self._step_ready_time(self._pc)
        return needed if needed > self._cc.now() else None

    def _target(self, step: Union[SendStep, RecvStep]) -> Optional[memoryview]:
        """The slice of its buffer a send reads or a receive fills (``None``
        for a zero-byte token)."""
        if step.buf is None:
            return None
        return self._views[step.buf][step.lo : step.lo + step.nbytes]

    def _execute(self, step: Step) -> None:
        """Perform one send, copy or reduction (receives are the loop's).

        Payload moves through the buffers' memoryviews, so a slice is copied
        once: a send hands the context a view (the message takes its own
        copy), as a receive hands it the destination view (the message is
        written straight into it).
        """
        views = self._views
        if isinstance(step, SendStep):
            self._cc.send(step.peer, step.tag, self._target(step) or b"")
        elif isinstance(step, CopyStep):
            if step.nbytes > 0:
                views[step.dst][step.dlo : step.dlo + step.nbytes] = views[step.src][
                    step.slo : step.slo + step.nbytes
                ]
                # The copy itself is free, but the destination now carries the
                # source's data, which may still be in flight (an arrival the
                # clock has passed can never stall a step, so it is dropped).
                src_ready = self._buffer_ready.get(step.src, 0.0)
                if src_ready > self._clock_seen:
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
