"""Alltoall algorithms: pairwise exchange and basic linear.

Both are schedules over two named buffers: ``"send"`` (``p`` outgoing
blocks) and ``"recv"`` (``p`` incoming blocks).  ``MPI_Alltoall`` runs the
schedule to completion; ``MPI_Ialltoall`` advances it incrementally.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import KIND_ALLTOALL, coll_tag
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    Schedule,
    SendStep,
    register_builder,
)

#: Buffer names every alltoall schedule uses.
SEND = "send"
RECV = "recv"


@register_builder("alltoall", "pairwise")
def build_alltoall_pairwise(rank: int, size: int, nbytes_per_rank: int, seq: int) -> Schedule:
    """Pairwise-exchange alltoall: ``p - 1`` shifted exchange rounds.

    At round ``s`` every rank sends to ``rank + s`` and receives from
    ``rank - s``, so at most one message per rank is in flight per round --
    the bandwidth-friendly schedule for large blocks.
    """
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    tag = coll_tag(KIND_ALLTOALL, seq)
    # Local block copies directly.
    sched.round([CopyStep(SEND, rank * b, RECV, rank * b, b)])
    for step in range(1, p):
        dst = (rank + step) % p
        src = (rank - step) % p
        sched.round([
            SendStep(dst, tag + step, SEND, dst * b, b),
            RecvStep(src, tag + step, RECV, src * b, b),
        ])
    return sched


@register_builder("alltoall", "linear")
def build_alltoall_linear(rank: int, size: int, nbytes_per_rank: int, seq: int) -> Schedule:
    """Basic linear alltoall: post every send up front, then drain receives.

    Relies on the context's non-blocking sends (the matching engine buffers),
    so all ``p - 1`` outgoing blocks are in flight at once -- the
    latency-friendly schedule for small blocks.  Messages are distinguished
    by source, so a single tag suffices.
    """
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    tag = coll_tag(KIND_ALLTOALL, seq)
    sched.round([CopyStep(SEND, rank * b, RECV, rank * b, b)])
    sched.round([
        SendStep(peer, tag, SEND, peer * b, b) for peer in range(p) if peer != rank
    ])
    sched.round([
        RecvStep(peer, tag, RECV, peer * b, b) for peer in range(p) if peer != rank
    ])
    return sched
