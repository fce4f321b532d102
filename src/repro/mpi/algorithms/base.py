"""Shared primitives of the collective-algorithm subsystem.

Every algorithm is a schedule (:mod:`repro.mpi.algorithms.schedule`) that the
executor runs against a :class:`CollectiveContext` -- the small bundle of
callables the per-rank runtime exposes -- so payloads stay bit-identical
regardless of algorithm and all virtual-time costs fall out of the transport
model underneath ``send``/``recv``.

Tag discipline: collectives own the tag space above :data:`COLL_TAG_BASE`.
A tag is derived from the collective *kind* and the per-communicator
operation sequence number; algorithms add small round offsets on top.  MPI
requires every rank to call collectives in the same order, so the sequence
numbers (and hence the tags) agree across ranks without negotiation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op
from repro.obs.hooks import JobHooks

# Tag space reserved for collectives (user tags are non-negative and small).
COLL_TAG_BASE = 1 << 24
COLL_TAG_MOD = 1 << 20

# Kind identifiers (kept distinct so different collectives never cross-match).
KIND_BARRIER = 0
KIND_BCAST = 1
KIND_REDUCE = 2
KIND_GATHER = 3
KIND_SCATTER = 4
KIND_ALLGATHER = 5
KIND_ALLTOALL = 6
KIND_ALLREDUCE = 7


def coll_tag(kind: int, seq: int) -> int:
    """Tag for the ``seq``-th collective of a given kind on a communicator."""
    return COLL_TAG_BASE + kind * COLL_TAG_MOD + (seq % COLL_TAG_MOD)


class CollectiveContext:
    """What a schedule executor needs from the per-rank runtime, for one
    communicator.  The runtime binds one per communicator, on its first
    collective, and reuses it for every later one.

    Peers are *communicator-local* ranks; the runtime translates them to
    world ranks and forwards to the matching engine.  A payload is copied
    once per hop each way: into the message when it is sent, and out of the
    message straight into the schedule buffer when it is delivered.

    * ``send(dst, tag, data)`` posts ``data`` (bytes, or a view of a schedule
      buffer: the message takes its own copy) without blocking -- the
      matching engine buffers, which lets a schedule post a fan of sends
      before draining receives;
    * ``recv(src, tag, view) -> Optional[float]`` consumes a buffered
      matching message without waiting for its payload to arrive: it writes
      the payload straight into ``view``, the destination slice of the
      schedule buffer (``None`` for a zero-byte token), charges only the
      receiver's CPU overhead and returns the virtual time the payload
      finishes arriving -- or ``None``, with ``view`` untouched, when nothing
      is buffered.  Separating consumption from arrival is what lets
      transfers overlap caller compute.  A message longer than ``view``
      raises ``TruncationError``;
    * ``wait(src, tag, view) -> float`` is ``recv`` that blocks until a
      matching message is buffered (the runtime's one wait, which keeps its
      other requests moving) and so always returns the arrival time;
    * ``compute(seconds)`` charges local computation (the combine step of
      reductions);
    * ``now() -> float`` / ``advance_to(t)`` -- the rank's virtual clock,
      used to enforce data dependencies (a step that reads received data
      cannot execute before that data has arrived).

    ``world_rank`` is this rank in ``COMM_WORLD`` (trace attribution), and
    ``hooks`` are the job's tracer, fault plan and checkpoint capture.
    """

    __slots__ = ("rank", "size", "world_rank", "send", "recv", "wait", "compute",
                 "now", "advance_to", "reduce_compute_per_byte", "hooks")

    def __init__(
        self,
        rank: int,
        size: int,
        world_rank: int,
        send: Callable[[int, int, Union[bytes, memoryview]], None],
        recv: Callable[[int, int, Optional[memoryview]], Optional[float]],
        wait: Callable[[int, int, Optional[memoryview]], float],
        compute: Callable[[float], None],
        now: Callable[[], float],
        advance_to: Callable[[float], None],
        reduce_compute_per_byte: float,
        hooks: JobHooks,
    ):
        self.rank = rank
        self.size = size
        self.world_rank = world_rank
        self.send = send
        self.recv = recv
        self.wait = wait
        self.compute = compute
        self.now = now
        self.advance_to = advance_to
        self.reduce_compute_per_byte = reduce_compute_per_byte
        self.hooks = hooks


def combine_segment(cc: CollectiveContext, op: Op, acc, contribution,
                    datatype: Datatype, elem_offset: int, elem_count: int) -> None:
    """Reduce ``contribution`` into the element range of ``acc`` starting at
    ``elem_offset`` (in place, through a view of that range); charges combine
    time for the segment only."""
    if elem_count <= 0:
        return
    nbytes = elem_count * datatype.size
    lo = elem_offset * datatype.size
    op.reduce_bytes(memoryview(acc)[lo : lo + nbytes], contribution, datatype, elem_count)
    cc.compute(nbytes * cc.reduce_compute_per_byte)


def chunk_counts(count: int, parts: int) -> List[int]:
    """Split ``count`` elements into ``parts`` near-equal chunks (MPICH style:
    the remainder is spread over the first chunks)."""
    base, extra = divmod(count, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def chunk_offsets(counts: List[int]) -> List[int]:
    """Exclusive prefix sums of ``counts`` (element offsets of each chunk)."""
    offsets = [0] * len(counts)
    for i in range(1, len(counts)):
        offsets[i] = offsets[i - 1] + counts[i - 1]
    return offsets


def largest_power_of_two_leq(p: int) -> int:
    """Largest power of two <= ``p`` (``p`` >= 1)."""
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    return pof2


def fold_absolute_rank(vrank: int, rem: int) -> int:
    """Inverse of the non-power-of-two fold mapping: virtual id -> absolute
    communicator rank (shared by the halving/doubling reduce and allreduce
    algorithms, whose pre-phases fold the ``rem`` extra ranks into odd
    neighbours)."""
    return 2 * vrank + 1 if vrank < rem else vrank + rem
