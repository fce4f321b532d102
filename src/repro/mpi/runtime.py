"""Host-side MPI library: world state and the per-rank runtime.

This module plays the role that OpenMPI (reached through the rsmpi bindings)
plays for the real MPIWasm: it is the *host MPI library* the embedder defers
to.  :class:`MPIWorld` owns the state shared by all ranks of one simulation
(the matching engine, collective coordination, timing bases);
:class:`MPIRuntime` is the per-rank handle exposing the MPI-2.2 subset the
benchmarks use.

Buffers are anything that supports the Python buffer protocol -- NumPy arrays,
``bytes``/``bytearray``/``memoryview`` -- including memoryviews straight into a
Wasm module's linear memory, which is how the embedder achieves its zero-copy
path (§3.5 of the paper).

Non-blocking operations (``isend``/``irecv`` and the ``I<collective>``
family) return :class:`~repro.mpi.status.Request` handles whose pending
operations the per-rank *progress engine* advances: every
``test``/``wait``-family call first runs a non-blocking pass over all
outstanding requests (draining rendezvous sends, consuming matched receives,
stepping collective schedules), then blocks -- if it must -- on progress of
*any* of them.  MPI's weak-progress model applies: outstanding operations are
only guaranteed to advance inside MPI calls.  Blocking calls are the same
machinery: ``send``/``recv``/``sendrecv`` post operations and wait on them,
a blocking collective runs the wait its ``I<collective>`` request would, and
every one of those waits -- a schedule's wait for a message included -- is
:meth:`MPIRuntime._wait_until`.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.mpi import datatypes as dts
from repro.mpi import ops as mpi_ops
from repro.mpi.algorithms import registry
from repro.mpi.algorithms.base import CollectiveContext
from repro.mpi.algorithms.decision import CollectiveSelector
from repro.mpi.algorithms.schedule import ScheduleExecutor, get_builder
from repro.mpi.communicator import (
    Communicator,
    Group,
    SplitCoordinator,
    self_communicator,
    world_communicator,
)
from repro.mpi.datatypes import Datatype
from repro.mpi.errors import (
    MPI_ERR_BUFFER,
    InvalidCountError,
    InvalidRankError,
    InvalidRootError,
    InvalidTagError,
    MPIError,
    NotInitializedError,
    TruncationError,
)
from repro.mpi.ops import Op
from repro.mpi.pt2pt import ANY_SOURCE, ANY_TAG, PROC_NULL, MatchingEngine, Message
from repro.mpi.status import Request, Status
from repro.obs.hooks import JobHooks, current_hooks
from repro.sim.cluster import Cluster
from repro.sim.engine import RankContext, SimEngine
from repro.sim.metrics import MetricsRegistry

BufferLike = Union[bytes, bytearray, memoryview, np.ndarray]
_T = TypeVar("_T")

#: Buffers of the collectives may also be supplied as a resolver: a
#: callable taking the number of bytes the runtime needs and returning the
#: buffer.  The embedder passes guest pointers this way.  How many bytes a
#: buffer spans depends on the call (a gather root's receive buffer holds a
#: block per rank, a non-root's none), and that extent arithmetic lives in
#: the runtime and the collective's contract row only: the resolver
#: translates -- and bounds-checks -- exactly the range the runtime touches.
LazyBuffer = Union[BufferLike, "Callable[[int], BufferLike]"]


def _supplied(buf, nbytes: int):
    """Resolve a :data:`LazyBuffer` to the concrete buffer."""
    return buf(nbytes) if callable(buf) else buf


def _traced(name: str):
    """Wrap one MPI entry point in a trace span (one per call, per rank).

    The job's tracer (``None`` when tracing is off) is tested before anything
    else -- including argument evaluation for the event -- so a disabled
    trace costs one attribute read per call.  Spans are stamped with the
    rank's virtual clock on entry and exit; the recorder adds the wall clock.

    The fault-injection hook rides the same decorator: one armed-plan check
    per MPI call covers every entry point by name (``kill_rank`` at the
    N-th ``MPI_Allreduce``, say), and the unarmed hot path pays exactly one
    extra attribute read.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            faults = self.faults
            if faults is not None:
                faults.on_mpi_call(self.rank_world, name, self.ctx.now, self.tracer)
            tracer = self.tracer
            if tracer is not None:
                tracer.begin(name, self.rank_world, self.ctx.now)
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer.end(self.rank_world, self.ctx.now)
            return fn(self, *args, **kwargs)
        return wrapper

    return decorate


def _entry_points(collective: str, define):
    """``MPI_<C>`` and ``MPI_I<c>`` of one collective, from its one definition.

    ``define(row, kind)`` returns the method: the public signature, mapped
    onto :meth:`MPIRuntime._collective`.  It is instantiated twice with the
    collective's contract row -- ``kind`` ``None``: run the schedule to
    completion; the ``Request.kind``: post it -- so the two entry points
    cannot differ in signature, validation or schedule.
    """
    row = registry.CONTRACTS[collective]

    def entry(method: str, mpi_name: str, kind: Optional[str]):
        fn = define(row, kind)
        fn.__name__ = method
        fn.__qualname__ = f"MPIRuntime.{method}"
        fn.__doc__ = f"``{mpi_name}``."
        return _traced(mpi_name)(fn)

    blocking, nonblocking = row.mpi_names
    return entry(collective, blocking, None), entry("i" + collective, nonblocking, "i" + collective)


# --------------------------------------------------------- pending operations
#
# Each active Request carries exactly one of these pending-operation records
# (the request's state-machine payload).  The runtime's progress engine calls
# ``try_progress`` -- which must never block and returns the completion
# Status once the operation finished -- on every outstanding request whenever
# a test/wait-family call runs.  ``wait_patterns`` reports the
# ``(context_id, src_world, tag)`` message patterns the operation is
# currently stalled on, so a blocked rank can be woken by *any* of them, and
# ``describe`` names the stall in a deadlock report.  A blocking call may
# wait on such a record with no Request around it (:meth:`MPIRuntime._wait_op`).


class _PendingSend:
    """A posted send awaiting completion (rendezvous drain).

    An eager send is buffered by the matching engine at post time and
    completes at its first attempt; a rendezvous send completes once the
    receiver has consumed it, advancing the sender's virtual clock to the
    consumption time.
    """

    __slots__ = ("msg", "status")

    def __init__(self, msg: Message, status: Status):
        self.msg = msg
        self.status = status

    def try_progress(self, rt: "MPIRuntime") -> Optional[Status]:
        msg = self.msg
        if not msg.rendezvous:
            return self.status
        if not msg.consumed:
            return None
        rt.ctx.advance_to(msg.consumed_time)
        if rt.tracer is not None:
            rt.tracer.instant(
                "pt2pt.rendezvous_drain", msg.src_world, rt.ctx.now,
                args={"dst": msg.dst_world, "tag": msg.tag, "nbytes": len(msg.data)},
            )
        return self.status

    def wait_patterns(self, rt: "MPIRuntime") -> List[Tuple[int, int, int]]:
        # Nothing to match: the drain wake arrives directly from the receiver
        # when it consumes the rendezvous message.
        return []

    def describe(self) -> str:
        return f"rendezvous send to {self.msg.dst_world} tag={self.msg.tag}"


class _PendingRecv:
    """A posted receive: each attempt is one non-blocking consume of the
    first matching buffered message, straight into ``view``.

    ``comm`` translates the matched source back to a communicator rank; a
    schedule's receive (no ``comm``) only ever calls :meth:`consume`.
    """

    __slots__ = ("view", "nbytes", "context_id", "src_world", "tag", "comm")

    def __init__(self, view: Optional[memoryview], nbytes: int, context_id: int,
                 src_world: int, tag: int, comm: Optional[Communicator] = None):
        self.view = view
        self.nbytes = nbytes
        self.context_id = context_id
        self.src_world = src_world
        self.tag = tag
        self.comm = comm

    def consume(self, rt: "MPIRuntime") -> Optional[Message]:
        return rt.world.matching.consume(
            rt.ctx, rt.rank_world, self.context_id, self.src_world, self.tag,
            self.view, self.nbytes,
        )

    def try_progress(self, rt: "MPIRuntime") -> Optional[Status]:
        msg = self.consume(rt)
        if msg is None:
            return None
        rt.ctx.advance_to(msg.arrival)
        local_src = self.comm.rank_of_world(msg.src_world)
        return Status(source=msg.src_world if local_src is None else local_src,
                      tag=msg.tag, count_bytes=len(msg.data))

    def wait_patterns(self, rt: "MPIRuntime") -> List[Tuple[int, int, int]]:
        return [(self.context_id, self.src_world, self.tag)]

    def describe(self) -> str:
        return f"recv src={self.src_world} tag={self.tag} ctx={self.context_id}"


class _Done:
    """An operation complete at its post: a send to or receive from
    ``PROC_NULL``."""

    __slots__ = ("status",)

    def __init__(self, status: Status):
        self.status = status

    def try_progress(self, rt: "MPIRuntime") -> Status:
        return self.status

    def wait_patterns(self, rt: "MPIRuntime") -> List[Tuple[int, int, int]]:
        return []

    def describe(self) -> str:
        return "PROC_NULL"


class _PendingCollective:
    """A non-blocking collective: a schedule executor advanced by progress
    passes, and finished by ``MPI_Wait`` with the executor's own wait
    (:meth:`MPIRuntime._wait_collective`).

    The operation has two tails: executing the schedule's steps, and the
    arrival of payload consumed along the way (``executor.data_time``).  It
    counts as complete only once both are behind the rank's clock --
    ``MPI_Test`` before the arrival reports False; that gap is exactly the
    transfer time a caller can hide behind compute.
    """

    __slots__ = ("executor", "comm")

    def __init__(self, executor: ScheduleExecutor, comm: "Communicator"):
        self.executor = executor
        self.comm = comm

    def try_progress(self, rt: "MPIRuntime") -> Optional[Status]:
        return Status() if self.executor.progress() else None

    def completion_time(self, rt: "MPIRuntime") -> Optional[float]:
        """Earliest time at which time alone makes more progress (the
        executor's time stall), or ``None`` on a message stall."""
        return self.executor.next_ready_time()

    def wait_patterns(self, rt: "MPIRuntime") -> List[Tuple[int, int, int]]:
        step = self.executor.pending_recv()
        if step is None:
            return []
        return [(self.comm.context_id, self.comm.world_rank(step.peer), step.tag)]


def _readable(buf: BufferLike, nbytes: int, what: str) -> memoryview:
    """Byte view over the first ``nbytes`` of ``buf``, to be copied (once) by
    the caller before the call returns."""
    view = memoryview(buf).cast("B")
    if view.nbytes < nbytes:
        raise InvalidCountError(
            f"{what} buffer of {view.nbytes} bytes is smaller than the {nbytes} bytes requested"
        )
    return view[:nbytes]


def _writable(buf: BufferLike, nbytes: int, what: str) -> memoryview:
    """Writable byte view over the first ``nbytes`` of ``buf``."""
    view = memoryview(buf).cast("B")
    if view.readonly:
        raise MPIError(f"{what} buffer is read-only")
    if view.nbytes < nbytes:
        raise InvalidCountError(
            f"{what} buffer of {view.nbytes} bytes is smaller than the {nbytes} bytes required"
        )
    return view[:nbytes]


def _copy_out(out: memoryview, key: str, buffers) -> None:
    """Completion of a collective: its result leaves the schedule's working
    buffer ``key`` for the caller's buffer."""
    out[:] = buffers[key]


class MPIWorld:
    """State shared by every rank of one simulated MPI job.  Its ``hooks``
    (:mod:`repro.obs.hooks`; by default the creating thread's) are the ones
    every rank runs with."""

    SHARED_KEY = "mpi.world"

    def __init__(self, cluster: Cluster, engine: SimEngine,
                 metrics: Optional[MetricsRegistry] = None, hooks: Optional[JobHooks] = None):
        self.cluster = cluster
        self.engine = engine
        self.hooks = hooks if hooks is not None else current_hooks()
        self.matching = MatchingEngine(cluster, self.hooks)
        self.metrics = metrics or MetricsRegistry()
        self.nranks = cluster.nranks
        # Collective coordination state keyed by (context_id, purpose, sequence).
        self.split_coordinators: Dict[Tuple[int, int], SplitCoordinator] = {}
        # Per-element combine cost used by reduction collectives.
        self.reduce_compute_per_byte = 0.04e-9
        self.finalized_ranks: set = set()
        # Collective-algorithm selection, shared by all ranks of the job: the
        # decision table, plus whatever the job's session forces on it.
        self.collectives = CollectiveSelector()

    @classmethod
    def install(cls, cluster: Cluster, engine: SimEngine, metrics: Optional[MetricsRegistry] = None,
                hooks: Optional[JobHooks] = None) -> "MPIWorld":
        """Create a world and store it on the engine's shared blackboard."""
        world = cls(cluster, engine, metrics, hooks)
        engine.shared[cls.SHARED_KEY] = world
        return world


class MPIRuntime:
    """Per-rank MPI-2.2 runtime (the interface a rank's program calls).

    The embedder holds one of these per Wasm module instance and forwards
    every ``env.MPI_*`` import to it; native benchmark programs call it
    directly.  All ``comm`` arguments default to ``MPI_COMM_WORLD``.
    """

    def __init__(self, world: MPIWorld, ctx: RankContext):
        self.world = world
        self.ctx = ctx
        self.rank_world = ctx.rank
        self.comm_world = world_communicator(world.nranks)
        self.comm_self = self_communicator(ctx.rank)
        self.initialized = False
        self.finalized = False
        # Per-communicator collective sequence numbers (MPI mandates identical
        # collective call order on all ranks, so these stay in agreement).
        self._coll_seq: Dict[int, int] = {}
        # One CollectiveContext per communicator, bound on first use.
        self._contexts: Dict[Communicator, CollectiveContext] = {}
        # Outstanding (incomplete) requests the progress engine sweeps.
        self._active_requests: List[Request] = []
        self._progressing = False
        # Tested on every MPI call (``_traced``).
        self.tracer = world.hooks.tracer
        self.faults = world.hooks.faults
        if world.hooks.capture is not None:
            world.hooks.capture.register_runtime(ctx.rank, self)

    # re-export the wildcard constants for caller convenience
    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG
    PROC_NULL = PROC_NULL

    # ------------------------------------------------------------ init/finalize

    def init(self) -> None:
        """``MPI_Init``."""
        self.initialized = True

    def finalize(self) -> None:
        """``MPI_Finalize``."""
        self._require_init()
        self.finalized = True
        self.world.finalized_ranks.add(self.rank_world)

    def is_initialized(self) -> bool:
        """``MPI_Initialized``."""
        return self.initialized

    def abort(self, comm: Optional[Communicator] = None, errorcode: int = 1) -> None:
        """``MPI_Abort``: raise, tearing the simulation down."""
        raise MPIError(f"MPI_Abort called on rank {self.rank_world} with code {errorcode}")

    def _require_init(self) -> None:
        if not self.initialized or self.finalized:
            raise NotInitializedError(
                f"MPI call on rank {self.rank_world} outside Init/Finalize window"
            )

    # ----------------------------------------------------------------- queries

    def comm_rank(self, comm: Optional[Communicator] = None) -> int:
        """``MPI_Comm_rank``."""
        self._require_init()
        comm = comm or self.comm_world
        local = comm.rank_of_world(self.rank_world)
        if local is None:
            raise InvalidRankError(f"rank {self.rank_world} is not a member of {comm.name}")
        return local

    def comm_size(self, comm: Optional[Communicator] = None) -> int:
        """``MPI_Comm_size``."""
        self._require_init()
        comm = comm or self.comm_world
        return comm.size

    def wtime(self) -> float:
        """``MPI_Wtime``: the rank's virtual clock in seconds."""
        return self.ctx.now

    def wtick(self) -> float:
        """``MPI_Wtick``: resolution of the virtual clock."""
        return 1e-9

    def get_processor_name(self) -> str:
        """``MPI_Get_processor_name``: the simulated node's name."""
        node = self.world.cluster.node_of(self.rank_world)
        return f"{self.world.cluster.machine.name}-node{node:04d}"

    # ----------------------------------------------------------- point-to-point

    def _validate_pt2pt(self, comm: Communicator, peer: int, tag: int, count: int) -> None:
        if count < 0:
            raise InvalidCountError(f"count must be non-negative, got {count}")
        if tag != ANY_TAG and tag < 0:
            raise InvalidTagError(f"tag must be non-negative, got {tag}")
        if peer not in (ANY_SOURCE, PROC_NULL) and not 0 <= peer < comm.size:
            raise InvalidRankError(f"peer rank {peer} out of range for {comm.name} of size {comm.size}")

    # Blocking point-to-point is the non-blocking path: ``MPI_Send`` is
    # ``MPI_Isend`` plus ``MPI_Wait``'s wait (:meth:`_wait`), ``MPI_Recv`` the
    # wait on a posted receive (:meth:`_wait_op`), and ``MPI_Sendrecv`` the
    # send's post, the receive's wait and then the send's wait.  A blocking
    # call's own operation is never handed to the progress engine unless
    # ``MPI_I*`` would hand it over too, so a Sendrecv's drain cannot move
    # the clock ahead of its receive.

    def _post_send(self, buf: BufferLike, count: int, datatype: Datatype, dest: int,
                   tag: int, comm: Communicator) -> Union[_PendingSend, _Done]:
        """Post a send: the message is injected and buffered (never blocks)."""
        self._validate_pt2pt(comm, dest, tag, count)
        if dest == PROC_NULL:
            return _Done(Status())
        nbytes = count * datatype.size
        msg = self.world.matching.post_send(
            self.ctx, self.rank_world, comm.world_rank(dest), comm.context_id, tag,
            _readable(buf, nbytes, "send"),
        )
        return _PendingSend(msg, Status(source=dest, tag=tag, count_bytes=nbytes))

    def _post_recv(self, buf: Optional[BufferLike], count: int, datatype: Datatype,
                   source: int, tag: int, comm: Communicator) -> Union[_PendingRecv, _Done]:
        """Post a receive into ``buf`` (``None``: a pure timing receive)."""
        self._validate_pt2pt(comm, source, tag, count)
        if source == PROC_NULL:
            return _Done(Status(source=PROC_NULL, tag=ANY_TAG, count_bytes=0))
        nbytes = count * datatype.size
        view = _writable(buf, nbytes, "recv") if buf is not None and nbytes > 0 else None
        src_world = ANY_SOURCE if source == ANY_SOURCE else comm.world_rank(source)
        return _PendingRecv(view, nbytes, comm.context_id, src_world, tag, comm)

    @_traced("MPI_Send")
    def send(
        self,
        buf: BufferLike,
        count: int,
        datatype: Datatype,
        dest: int,
        tag: int,
        comm: Optional[Communicator] = None,
    ) -> None:
        """``MPI_Send`` (standard mode; rendezvous above the eager threshold)."""
        self._require_init()
        self._wait(self._activate(Request(kind="isend"), self._post_send(
            buf, count, datatype, dest, tag, comm or self.comm_world)))

    @_traced("MPI_Recv")
    def recv(
        self,
        buf: Optional[BufferLike],
        count: int,
        datatype: Datatype,
        source: int,
        tag: int,
        comm: Optional[Communicator] = None,
    ) -> Status:
        """``MPI_Recv``."""
        self._require_init()
        return self._wait_op(self._post_recv(buf, count, datatype, source, tag,
                                             comm or self.comm_world))

    @_traced("MPI_Sendrecv")
    def sendrecv(
        self,
        sendbuf: BufferLike,
        sendcount: int,
        sendtype: Datatype,
        dest: int,
        sendtag: int,
        recvbuf: BufferLike,
        recvcount: int,
        recvtype: Datatype,
        source: int,
        recvtag: int,
        comm: Optional[Communicator] = None,
    ) -> Status:
        """``MPI_Sendrecv``: post the send, wait for the receive, then for the send."""
        self._require_init()
        comm = comm or self.comm_world
        receive = self._post_recv(recvbuf, recvcount, recvtype, source, recvtag, comm)
        send = self._post_send(sendbuf, sendcount, sendtype, dest, sendtag, comm)
        status = self._wait_op(receive)
        self._wait_op(send)
        return status

    @_traced("MPI_Isend")
    def isend(
        self,
        buf: BufferLike,
        count: int,
        datatype: Datatype,
        dest: int,
        tag: int,
        comm: Optional[Communicator] = None,
    ) -> Request:
        """``MPI_Isend`` (buffered at post time; completes at wait/test).

        An eager send completes at once; a rendezvous send stays active until
        the receiver drains it, at which point the waiting rank's virtual
        clock advances to the consumption time.
        """
        self._require_init()
        return self._activate(Request(kind="isend"), self._post_send(
            buf, count, datatype, dest, tag, comm or self.comm_world))

    @_traced("MPI_Irecv")
    def irecv(
        self,
        buf: Optional[BufferLike],
        count: int,
        datatype: Datatype,
        source: int,
        tag: int,
        comm: Optional[Communicator] = None,
    ) -> Request:
        """``MPI_Irecv``: consumes a buffered match at once, else at a later
        test/wait-family call."""
        self._require_init()
        return self._activate(Request(kind="irecv"), self._post_recv(
            buf, count, datatype, source, tag, comm or self.comm_world))

    # ---------------------------------------------------------- progress engine

    def _activate(self, request: Request, op) -> Request:
        """Attach a posted operation to ``request``: complete it now if it
        can, else hand it to the progress engine."""
        request._op = op
        status = op.try_progress(self)
        if status is not None:
            request.mark_complete(status)
        else:
            self._active_requests.append(request)
        return request

    def _retire(self, request: Request) -> None:
        if request in self._active_requests:
            self._active_requests.remove(request)

    def progress(self) -> None:
        """One non-blocking pass of the progress engine.

        Advances every outstanding request -- deferred receives, rendezvous
        sends, and non-blocking collective schedules -- as far as buffered
        messages allow.  Every ``test``/``wait``-family call runs this first,
        so any outstanding schedule keeps moving no matter which request the
        caller is actually waiting on.
        """
        if self._progressing or not self._active_requests:
            return
        self._progressing = True
        try:
            swept = True
            while swept:
                swept = False
                for req in list(self._active_requests):
                    if req.complete or req._op is None:
                        self._retire(req)
                        continue
                    status = req._op.try_progress(self)
                    if status is not None:
                        req.mark_complete(status)
                        self._retire(req)
                        # A completed request may have posted sends that
                        # unblock a sibling: sweep again until a fixpoint.
                        swept = True
        finally:
            self._progressing = False

    def _wait_patterns(self, requests: List[Request]) -> List[Tuple[int, int, int]]:
        """Message patterns any of ``requests`` is currently stalled on."""
        patterns: List[Tuple[int, int, int]] = []
        for req in requests:
            if not req.complete and req._op is not None:
                patterns.extend(req._op.wait_patterns(self))
        return patterns

    def _wait_until(self, attempt: Callable[[], Optional[_T]],
                    patterns: List[Tuple[int, int, int]], describe: Callable[[], str]) -> _T:
        """The one blocking wait: a progress pass, then ``attempt()`` until it
        returns something other than ``None``.

        ``MPI_Wait``/``MPI_Waitall``/``MPI_Waitany``, ``MPI_Send``/``MPI_Recv``
        /``MPI_Sendrecv`` and a schedule's message stall all wait here, so
        every outstanding request keeps advancing while any of them waits.
        Between attempts the rank blocks once -- until a message matching
        one of ``patterns`` or an outstanding request's can be consumed, or
        until the earliest time at which an outstanding request progresses
        by time alone (a schedule whose steps are done or stalled only on an
        in-flight arrival), whichever comes first in virtual time -- and
        then runs one progress pass.  Every rank that can act earlier runs
        first, so a message that can arrive before that time completes us
        at its true arrival.  ``describe()`` names the wait in a deadlock
        report.
        """
        self.progress()
        done = attempt()
        while done is None:
            requests = self._active_requests
            watched = [*patterns, *self._wait_patterns(requests)] if requests else patterns
            times = [req._op.completion_time(self) for req in requests
                     if not req.complete and isinstance(req._op, _PendingCollective)]
            self.world.matching.block_for_any(
                self.ctx, self.rank_world, watched, reason=describe(),
                wake_at=min((t for t in times if t is not None), default=None),
            )
            self.progress()
            done = attempt()
        return done

    def _nudge(self) -> None:
        """Advance one ``wtick`` and offer the token to lower-clock peers.

        Every call that polls without blocking (``test``, ``testall``,
        ``iprobe``) goes through here.  The tick is what makes a poll loop
        live: a rank that only yielded would keep the token for as long as
        it holds the smallest ``(clock, rank)``, and a peer with the same
        clock and a higher rank would never run.
        """
        self.ctx.advance(self.wtick())
        self.ctx.yield_turn()

    def _wait_collective(self, executor: ScheduleExecutor) -> None:
        """The wait of a collective: ``MPI_Wait`` on an ``MPI_I<c>`` request,
        and the second half of ``MPI_<C>``.  One progress pass for the rank's
        other requests, then the executor runs to completion, resolving each
        stall in place (see :meth:`ScheduleExecutor.progress`)."""
        self.progress()
        executor.progress(wait=True)

    def _wait(self, request: Request) -> Status:
        """Wait for ``request`` (untraced: ``MPI_Wait`` and ``MPI_Waitall`` on
        it, and the second half of ``MPI_Send``/``MPI_Recv``/``MPI_Sendrecv``).

        A collective request leaves the progress engine and finishes with
        :meth:`_wait_collective`, exactly as its blocking twin does.  Any
        other request waits in :meth:`_wait_until` on its own patterns and
        every outstanding request's (or on a rendezvous drain).
        """
        op = request._op
        if isinstance(op, _PendingCollective):
            # Out of the sweep first: the wait's own progress passes must not
            # re-enter this executor.
            self._retire(request)
            self._wait_collective(op.executor)
            request.mark_complete(Status())
            return request.status
        if op is None:  # complete already, or never started
            self.progress()
            return self._try_complete(request)
        return self._wait_until(functools.partial(self._try_complete, request),
                                op.wait_patterns(self), op.describe)

    def _wait_op(self, op) -> Status:
        """Wait for a posted operation no request tracks (the receive of
        ``MPI_Recv``, both halves of ``MPI_Sendrecv``)."""
        return self._wait_until(functools.partial(op.try_progress, self),
                                op.wait_patterns(self), op.describe)

    @_traced("MPI_Wait")
    def wait(self, request: Request) -> Status:
        """``MPI_Wait``: block until ``request`` completes."""
        self._require_init()
        return self._wait(request)

    @_traced("MPI_Waitall")
    def waitall(self, requests: List[Request]) -> List[Status]:
        """``MPI_Waitall``."""
        self._require_init()
        return [self._wait(r) for r in requests]

    def _try_complete(self, request: Request) -> Optional[Status]:
        """Non-blocking completion attempt: the status once ``request`` is
        complete, else ``None``."""
        if not request.complete:
            if request._op is None:
                # Inactive kinds (user-constructed requests) complete trivially.
                request.mark_complete()
            else:
                status = request._op.try_progress(self)
                if status is None:
                    return None
                request.mark_complete(status)
        self._retire(request)
        return request.status

    @_traced("MPI_Test")
    def test(self, request: Request) -> Tuple[bool, Status]:
        """``MPI_Test``: non-blocking completion check.

        Runs a progress pass (completing the request if it can complete now)
        but never blocks.  When the request cannot complete yet, the rank
        takes one :meth:`_nudge` so peers get to post their sends -- without
        it a guest polling ``MPI_Test`` in a loop would starve the
        cooperative scheduler -- and re-checks after the yield.
        """
        self._require_init()
        self.progress()
        if not self._try_complete(request):
            self._nudge()
            self.progress()
            if not self._try_complete(request):
                return False, Status()
        return True, request.status

    @_traced("MPI_Waitany")
    def waitany(self, requests: List[Request]) -> Tuple[int, Status]:
        """``MPI_Waitany``: block until one request completes.

        Returns ``(index, status)`` of the completed request, or
        ``(-1, empty status)`` when no request is active (``MPI_UNDEFINED``).
        While no request is ready the rank blocks until *any* active request
        can make progress (so a late-posted sender to any of the requests
        resumes it), which keeps genuine deadlocks detectable.
        """
        self._require_init()
        active = [i for i, r in enumerate(requests) if r.kind != "null"]
        if not active:
            return -1, Status()

        def attempt() -> Optional[Tuple[int, Status]]:
            for i in active:
                status = self._try_complete(requests[i])
                if status is not None:
                    return i, status
            return None

        return self._wait_until(attempt, [], lambda: f"waitany over {len(active)} request(s)")

    @_traced("MPI_Testall")
    def testall(self, requests: List[Request]) -> Tuple[bool, List[Status]]:
        """``MPI_Testall``: complete every request if all can complete now.

        Returns ``(True, statuses)`` when every request is complete after the
        call; otherwise ``(False, statuses)`` where only already-completed
        requests carry a meaningful status (the MPI standard leaves statuses
        undefined when ``flag`` is false).
        """
        self._require_init()

        def attempt() -> bool:
            self.progress()
            done = True
            for r in requests:
                if not self._try_complete(r):
                    done = False
            return done

        if not attempt():
            # Give other ranks a chance to post their sends, then re-check.
            self._nudge()
            if not attempt():
                return False, [r.status if r.complete else Status() for r in requests]
        return True, [r.status for r in requests]

    def iprobe(
        self, source: int, tag: int, comm: Optional[Communicator] = None
    ) -> Tuple[bool, Status]:
        """``MPI_Iprobe``: non-blocking check for a matching message."""
        self._require_init()
        comm = comm or self.comm_world
        src_world = ANY_SOURCE if source == ANY_SOURCE else comm.world_rank(source)
        msg = self.world.matching.probe_match(self.rank_world, comm.context_id, src_world, tag)
        if msg is None:
            # Give other ranks a chance to post their sends before returning.
            self._nudge()
            msg = self.world.matching.probe_match(self.rank_world, comm.context_id, src_world, tag)
        if msg is None:
            return False, Status()
        local = comm.rank_of_world(msg.src_world)
        return True, Status(source=local if local is not None else msg.src_world, tag=msg.tag, count_bytes=len(msg.data))

    # -------------------------------------------------------------- collectives

    def _next_seq(self, comm: Communicator) -> int:
        seq = self._coll_seq.get(comm.context_id, 0)
        self._coll_seq[comm.context_id] = seq + 1
        return seq

    def _select_algorithm(
        self, collective: str, comm: Communicator, nbytes: int,
        bytes_moved: Optional[int] = None,
    ) -> str:
        """Pick the algorithm for one collective call and record the counters.

        Selection is a pure function of (collective, message size,
        communicator size) -- every rank computes the same answer, which is
        what keeps the chosen wire protocols in agreement without
        negotiation.  ``bytes_moved`` is the payload passing through *this
        rank's* buffers (defaults to ``nbytes``); e.g. a gather root counts
        ``p`` blocks while a leaf counts one.
        """
        algorithm = self.world.collectives.decide(collective, nbytes, comm.size)
        self.world.metrics.record_collective(
            collective, algorithm, nbytes if bytes_moved is None else bytes_moved
        )
        if self.tracer is not None:
            self.tracer.instant(
                "coll.algorithm", self.rank_world, self.ctx.now,
                args={"collective": collective, "algorithm": algorithm,
                      "nbytes": int(nbytes), "comm_size": comm.size},
            )
        return algorithm

    def _collective_context(self, comm: Communicator) -> CollectiveContext:
        """The :class:`CollectiveContext` of ``comm`` (checks the Init/Finalize
        window on every call).  Bound on the communicator's first collective
        and kept until ``comm_free``."""
        self._require_init()
        cc = self._contexts.get(comm)
        if cc is None:
            cc = self._contexts[comm] = self._bind_collective_context(comm)
        return cc

    def _bind_collective_context(self, comm: Communicator) -> CollectiveContext:
        matching, ctx, me = self.world.matching, self.ctx, self.rank_world
        # Peers come from verified schedule builders, so they index the
        # group's world ranks directly (no range check per message).
        context_id, world_rank = comm.context_id, comm.group.world_ranks
        # The context is cached on this runtime: a strong reference back
        # would make the pair a cycle that outlives a job ending in an error.
        runtime = weakref.proxy(self)

        def send(dst_local: int, tag: int, data) -> None:
            matching.post_send(ctx, me, world_rank[dst_local], context_id, tag, data)

        def recv(src_local: int, tag: int, view: Optional[memoryview]) -> Optional[float]:
            msg = matching.consume(ctx, me, context_id, world_rank[src_local], tag,
                                   view, 0 if view is None else len(view))
            return None if msg is None else msg.arrival

        def wait(src_local: int, tag: int, view: Optional[memoryview]) -> float:
            # The one wait, so weak progress holds while a schedule waits too:
            # another outstanding schedule may owe a peer the very send that
            # lets it reach its part of this collective.
            op = _PendingRecv(view, 0 if view is None else len(view), context_id,
                              world_rank[src_local], tag)
            return runtime._wait_until(
                functools.partial(op.consume, runtime), op.wait_patterns(runtime), op.describe
            ).arrival

        return CollectiveContext(
            rank=self.comm_rank(comm),
            size=comm.size,
            world_rank=me,
            send=send,
            recv=recv,
            wait=wait,
            compute=ctx.advance,
            now=lambda: ctx.now,
            advance_to=ctx.advance_to,
            reduce_compute_per_byte=self.world.reduce_compute_per_byte,
            hooks=self.world.hooks,
        )

    # Every collective is written once.  Its row of ``registry.CONTRACTS``
    # says which buffers a call involves; its definition below maps the
    # public ``MPI_<C>`` arguments onto :meth:`_collective`, which validates,
    # stages, selects and builds for ``MPI_<C>`` and ``MPI_I<c>`` alike -- so
    # both go through the same decision table and execute the same schedule.
    # Both start it with one progress pass.  ``MPI_I<c>`` then returns a
    # Request the progress engine advances from ``test``/``wait``-family
    # calls, which lets communication overlap any compute between the post
    # and the wait; ``MPI_<C>`` runs the wait ``MPI_Wait`` would, inside the
    # same call, with no Request.

    def _run_collective(self, executor: ScheduleExecutor) -> None:
        """``MPI_<C>``'s schedule: the start ``MPI_I<c>`` makes, then the
        wait ``MPI_Wait`` makes on its request."""
        executor.progress()
        self._wait_collective(executor)

    def _barrier(self, comm: Communicator, seq: int) -> None:
        algorithm = self._select_algorithm("barrier", comm, 0)
        cc = self._collective_context(comm)
        self._run_collective(
            ScheduleExecutor(cc, get_builder("barrier", algorithm)(cc.rank, cc.size, seq))
        )

    def _collective(
        self,
        row: registry.Contract,
        kind: Optional[str],
        comm: Optional[Communicator],
        root: Optional[int],
        sendbuf: Optional[LazyBuffer],
        recvbuf: Optional[LazyBuffer],
        count: int,
        datatype: Datatype,
        op: Optional[Op] = None,
        peer_bytes: Optional[int] = None,
    ) -> Optional[Request]:
        """One call of the collective ``row`` describes.

        A block is ``count`` elements of ``datatype``; ``sendbuf``/``recvbuf``
        are the caller's side of the row's input/output buffer, and
        ``peer_bytes`` is the per-rank byte count the other side of a
        gather/scatter declares.  Everything that can be wrong with the call
        is raised here, before the algorithm metric is recorded or a sequence
        number spent, so the error is local and the communicator stays
        usable.  With ``kind`` ``None`` the schedule runs to completion and
        the result is copied out; otherwise it becomes a Request of that kind
        -- started by :meth:`_activate`'s first pass, which posts the initial
        sends right away and may complete a trivial schedule on the spot --
        and the result is copied out when the request completes.
        """
        comm = comm or self.comm_world
        cc = self._collective_context(comm)  # checks the Init/Finalize window, too
        size = cc.size
        if row.rooted and not 0 <= root < size:
            raise InvalidRootError(f"root {root} out of range for {comm.name} of size {size}")
        if count < 0:
            raise InvalidCountError(f"count must be non-negative, got {count}")
        is_root = cc.rank == root
        nbytes = count * datatype.size
        source, in_bytes, result, out_bytes = row.buffers(is_root, nbytes, size)
        if sendbuf is None and in_bytes:
            raise MPIError(f"{row.name}: no send buffer supplied", code=MPI_ERR_BUFFER)
        if recvbuf is None and out_bytes:
            raise MPIError(f"{row.name}: no receive buffer supplied", code=MPI_ERR_BUFFER)
        if peer_bytes is not None and is_root:
            if peer_bytes < 0:
                raise InvalidCountError(f"count must be non-negative, got {peer_bytes} bytes")
            # The block is what each rank sends (gather) or has room for (scatter).
            sent, room = (peer_bytes, nbytes) if row.input.per_rank else (nbytes, peer_bytes)
            if sent > room:
                raise TruncationError(
                    f"{row.name}: {sent} bytes sent per rank, room for {room} at the receiver"
                )
        buffers: Dict[str, bytearray] = {}
        if source is not None:
            buffers[source.key] = bytearray(
                _readable(_supplied(sendbuf, in_bytes), in_bytes, row.name) if in_bytes else 0
            )
        out = None
        if result is not None:
            if out_bytes:
                out = _writable(_supplied(recvbuf, out_bytes), out_bytes, row.name)
            if result.key not in buffers:
                buffers[result.key] = bytearray(out_bytes)
        algorithm = self._select_algorithm(
            row.name, comm, nbytes, in_bytes if in_bytes > out_bytes else out_bytes
        )
        schedule = row.build(
            get_builder(row.name, algorithm), cc.rank, size, count, datatype.size, root,
            self._next_seq(comm),
        )
        finalize = functools.partial(_copy_out, out, result.key) if out is not None else None
        executor = ScheduleExecutor(cc, schedule, buffers, datatype, op, on_complete=finalize)
        if kind is None:
            self._run_collective(executor)
            return None
        return self._activate(Request(kind=kind), _PendingCollective(executor, comm))

    def _define_barrier(row, kind):
        def barrier(self, comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, None, None, None, 0, dts.BYTE)
        return barrier

    def _define_bcast(row, kind):
        def bcast(self, buf: LazyBuffer, count: int, datatype: Datatype, root: int,
                  comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, root, buf, buf, count, datatype)
        return bcast

    def _define_reduce(row, kind):
        def reduce(self, sendbuf: LazyBuffer, recvbuf: Optional[LazyBuffer], count: int,
                   datatype: Datatype, op: Op, root: int, comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, root, sendbuf, recvbuf, count, datatype, op)
        return reduce

    def _define_allreduce(row, kind):
        def allreduce(self, sendbuf: LazyBuffer, recvbuf: LazyBuffer, count: int,
                      datatype: Datatype, op: Op, comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, None, sendbuf, recvbuf, count, datatype, op)
        return allreduce

    def _define_gather(row, kind):
        def gather(self, sendbuf: LazyBuffer, sendcount: int, sendtype: Datatype,
                   recvbuf: Optional[LazyBuffer], recvcount: int, recvtype: Datatype,
                   root: int, comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, root, sendbuf, recvbuf, sendcount, sendtype,
                                    None, recvcount * recvtype.size)
        return gather

    def _define_scatter(row, kind):
        def scatter(self, sendbuf: Optional[LazyBuffer], sendcount: int, sendtype: Datatype,
                    recvbuf: LazyBuffer, recvcount: int, recvtype: Datatype,
                    root: int, comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, root, sendbuf, recvbuf, recvcount, recvtype,
                                    None, sendcount * sendtype.size)
        return scatter

    def _define_allgather(row, kind):
        def allgather(self, sendbuf: LazyBuffer, sendcount: int, sendtype: Datatype,
                      recvbuf: LazyBuffer, recvcount: int, recvtype: Datatype,
                      comm: Optional[Communicator] = None):
            return self._collective(row, kind, comm, None, sendbuf, recvbuf, sendcount, sendtype)
        return allgather

    barrier, ibarrier = _entry_points("barrier", _define_barrier)
    bcast, ibcast = _entry_points("bcast", _define_bcast)
    reduce, ireduce = _entry_points("reduce", _define_reduce)
    allreduce, iallreduce = _entry_points("allreduce", _define_allreduce)
    gather, igather = _entry_points("gather", _define_gather)
    scatter, iscatter = _entry_points("scatter", _define_scatter)
    allgather, iallgather = _entry_points("allgather", _define_allgather)
    # Same arguments as allgather; what differs is in the contract row.
    alltoall, ialltoall = _entry_points("alltoall", _define_allgather)

    # ------------------------------------------------------------ communicators

    @_traced("MPI_Comm_dup")
    def comm_dup(self, comm: Optional[Communicator] = None) -> Communicator:
        """``MPI_Comm_dup``: same group, fresh context id (collective)."""
        self._require_init()
        comm = comm or self.comm_world
        # Derive the duplicate's context id deterministically from the parent's
        # id and the per-communicator duplicate count so all ranks agree
        # without additional communication.
        seq = self._next_seq(comm)
        context_id = (comm.context_id + 1) * 10_000 + seq
        # A dup is collective: synchronise so no rank races ahead.
        self._barrier(comm, seq)
        return Communicator(comm.group, name=f"{comm.name}.dup", context_id=context_id)

    @_traced("MPI_Comm_split")
    def comm_split(
        self, comm: Optional[Communicator], color: int, key: int
    ) -> Optional[Communicator]:
        """``MPI_Comm_split`` (collective).  ``color < 0`` yields ``None``."""
        self._require_init()
        comm = comm or self.comm_world
        seq = self._next_seq(comm)
        coord_key = (comm.context_id, seq)
        coord = self.world.split_coordinators.get(coord_key)
        if coord is None:
            coord = SplitCoordinator(comm)
            self.world.split_coordinators[coord_key] = coord
        coord.contribute(self.rank_world, color, key)
        # Synchronise: everyone must have contributed before anyone proceeds.
        self._barrier(comm, seq)
        return coord.communicator_for(self.rank_world)

    def comm_free(self, comm: Communicator) -> None:
        """``MPI_Comm_free``."""
        self._require_init()
        comm.freed = True
        self._contexts.pop(comm, None)

    # ----------------------------------------------------------------- memory

    def alloc_mem(self, size: int) -> bytearray:
        """``MPI_Alloc_mem`` for native programs: a plain host allocation.

        (For Wasm guests the embedder redirects this to the module's exported
        ``malloc`` -- see §3.7 of the paper and ``repro.core.mpi_imports``.)
        """
        self._require_init()
        if size < 0:
            raise InvalidCountError(f"allocation size must be non-negative, got {size}")
        return bytearray(size)

    def free_mem(self, buf: bytearray) -> None:
        """``MPI_Free_mem`` for native programs (no-op; GC reclaims it)."""
        self._require_init()
