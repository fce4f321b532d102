"""Allgather algorithms: ring and Bruck.

Both are schedules over two named buffers: ``"send"`` (this rank's block)
and ``"recv"`` (``p`` blocks, the result).  ``MPI_Allgather`` runs the
schedule to completion; ``MPI_Iallgather`` advances it incrementally.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import KIND_ALLGATHER, coll_tag
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    Schedule,
    SendStep,
    register_builder,
)

#: Buffer names every allgather schedule uses.
SEND = "send"
RECV = "recv"


@register_builder("allgather", "ring")
def build_allgather_ring(rank: int, size: int, nbytes_per_rank: int, seq: int) -> Schedule:
    """Ring allgather: ``p - 1`` rounds, each forwarding the next rank's block."""
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    tag = coll_tag(KIND_ALLGATHER, seq)
    sched.round([CopyStep(SEND, 0, RECV, rank * b, b)])
    if p <= 1:
        return sched
    left = (rank - 1) % p
    right = (rank + 1) % p
    # At step s each rank forwards the block that originated at (rank - s) % p.
    for step in range(p - 1):
        send_origin = (rank - step) % p
        recv_origin = (rank - step - 1) % p
        sched.round([
            SendStep(right, tag + step, RECV, send_origin * b, b),
            RecvStep(left, tag + step, RECV, recv_origin * b, b),
        ])
    return sched


@register_builder("allgather", "bruck")
def build_allgather_bruck(rank: int, size: int, nbytes_per_rank: int, seq: int) -> Schedule:
    """Bruck allgather: ``ceil(log2 p)`` rounds of doubling block exchanges.

    After the round at distance ``d``, position ``j`` of the rotated working
    buffer holds the block that originated at rank ``(rank + j) % p`` for all
    ``j < min(2d, p)``; a final rotation restores rank order.  Works for any
    ``p`` and needs far fewer rounds than the ring for small blocks.
    """
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    sched.round([CopyStep(SEND, 0, RECV, rank * b, b)])
    if p <= 1:
        return sched
    tag = coll_tag(KIND_ALLGATHER, seq)
    tmp = sched.temp("tmp", p * b)
    sched.add(CopyStep(SEND, 0, tmp, 0, b))
    dist = 1
    round_no = 0
    while dist < p:
        nblocks = min(dist, p - dist)
        dst = (rank - dist) % p
        src = (rank + dist) % p
        sched.round([
            SendStep(dst, tag + round_no, tmp, 0, nblocks * b),
            RecvStep(src, tag + round_no, tmp, dist * b, nblocks * b),
        ])
        dist <<= 1
        round_no += 1
    # Final rotation back into rank order.
    sched.round([
        CopyStep(tmp, j * b, RECV, ((rank + j) % p) * b, b) for j in range(p)
    ])
    return sched
