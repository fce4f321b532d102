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

from typing import Callable, List, Optional

from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op

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
    """Bundle of callables the collectives need from the per-rank runtime.

    ``send(dst_local, tag, data)`` and ``recv(src_local, tag, nbytes) -> bytes``
    operate on *communicator-local* ranks; the runtime translates to world
    ranks and forwards to the matching engine.  ``send`` posts without
    blocking (the matching engine buffers), which lets a schedule post a fan
    of sends before draining receives.  ``compute(seconds)`` charges local
    computation time (used for the combine step of reductions).

    The remaining callables are optional and only supplied by the per-rank
    runtime (the incremental schedule executor behind the non-blocking
    collectives needs them; blocking execution works without them):

    * ``probe(src_local, tag) -> bool`` -- whether a matching message is
      already buffered, without consuming it;
    * ``recv_nb(src_local, tag, nbytes) -> Optional[(bytes, arrival)]`` --
      consume a buffered match charging only CPU overhead, reporting the
      virtual time the payload actually finishes arriving (``None`` when
      nothing is buffered).  Separating consumption from the arrival time is
      what lets transfers overlap caller compute;
    * ``now() -> float`` / ``advance_to(t)`` -- the rank's virtual clock,
      used to enforce data dependencies (a step that reads received data
      cannot execute before that data has arrived).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        send: Callable[[int, int, bytes], None],
        recv: Callable[[int, int, int], bytes],
        compute: Callable[[float], None],
        reduce_compute_per_byte: float = 0.04e-9,
        probe: Optional[Callable[[int, int], bool]] = None,
        recv_nb: Optional[Callable[[int, int, int], Optional[tuple]]] = None,
        now: Optional[Callable[[], float]] = None,
        advance_to: Optional[Callable[[float], None]] = None,
        world_rank: Optional[int] = None,
    ):
        self.rank = rank
        self.size = size
        self.send = send
        self.recv = recv
        self.compute = compute
        self.reduce_compute_per_byte = reduce_compute_per_byte
        self.probe = probe
        self.recv_nb = recv_nb
        self.now = now
        self.advance_to = advance_to
        # COMM_WORLD rank for trace attribution (per-rank timeline lanes);
        # falls back to the communicator-local rank when not supplied.
        self.world_rank = world_rank


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
