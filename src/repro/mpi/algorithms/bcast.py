"""Broadcast algorithms: binomial tree and scatter-allgather (Van de Geijn).

Both are schedules over one named buffer, ``"data"`` -- the payload on the
root, the receive target everywhere else.  ``MPI_Bcast`` runs the schedule to
completion and ``MPI_Ibcast`` advances the same schedule incrementally, so
each algorithm has exactly one implementation.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import KIND_BCAST, coll_tag
from repro.mpi.algorithms.schedule import (
    RecvStep,
    Schedule,
    SendStep,
    register_builder,
)

#: Buffer name every bcast schedule reads and writes.
DATA = "data"


def binomial_bcast_rounds(sched: Schedule, rank: int, size: int, nbytes: int,
                          root: int, tag: int, buf: str) -> None:
    """Emit the rounds of a binomial-tree broadcast of ``buf[:nbytes]``.

    Shared with the composed ``allreduce:reduce_bcast`` schedule, which
    broadcasts its accumulator with exactly these rounds.
    """
    p = size
    vrank = (rank - root) % p

    # Round 1: every rank except the root receives from its binomial parent.
    # ``mask`` ends up at the bit position where this rank hangs off the tree
    # (or at the first power of two >= p for the root).
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            sched.round([RecvStep(parent, tag, buf, 0, nbytes)])
            break
        mask <<= 1
    # Following rounds: forward to children at all lower bit positions.
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            child = ((vrank + mask) + root) % p
            sched.round([SendStep(child, tag, buf, 0, nbytes)])
        mask >>= 1


@register_builder("bcast", "binomial")
def build_bcast_binomial(rank: int, size: int, nbytes: int, root: int, seq: int) -> Schedule:
    """Binomial-tree broadcast of ``nbytes`` from ``root``."""
    sched = Schedule()
    if size > 1 and nbytes >= 0:
        binomial_bcast_rounds(sched, rank, size, nbytes, root, coll_tag(KIND_BCAST, seq), DATA)
    return sched


@register_builder("bcast", "scatter_allgather")
def build_bcast_scatter_allgather(rank: int, size: int, nbytes: int, root: int, seq: int) -> Schedule:
    """Scatter-allgather broadcast (Van de Geijn): the root scatters the
    payload into ``p`` blocks, then a ring allgather reassembles it everywhere.

    Moves ~``2 * nbytes * (p-1)/p`` bytes per rank instead of the binomial
    tree's ``nbytes * log2(p)`` at the root, which wins for large payloads.
    Blocks are addressed in root-relative (virtual) rank order so any root
    works; trailing blocks may be empty when ``nbytes < p``.
    """
    sched = Schedule()
    p = size
    if p <= 1 or nbytes <= 0:
        return sched
    tag = coll_tag(KIND_BCAST, seq)
    vrank = (rank - root) % p
    blk = (nbytes + p - 1) // p

    def span(v: int):
        lo = min(v * blk, nbytes)
        return lo, min(lo + blk, nbytes)

    # Round 1: linear scatter from the root -- virtual rank v gets block v.
    if vrank == 0:
        sched.round([
            SendStep((v + root) % p, tag, DATA, span(v)[0], span(v)[1] - span(v)[0])
            for v in range(1, p)
        ])
    else:
        lo, hi = span(vrank)
        sched.round([RecvStep(root, tag, DATA, lo, hi - lo)])

    # Following rounds: ring allgather of the blocks.  At step s each rank
    # forwards the block that originated at virtual rank (vrank - s) and
    # receives the one from (vrank - s - 1); neighbours in virtual-rank space
    # map to the (rank +/- 1) ring in absolute ranks.
    right = (rank + 1) % p
    left = (rank - 1) % p
    for step in range(p - 1):
        send_v = (vrank - step) % p
        recv_v = (vrank - step - 1) % p
        slo, shi = span(send_v)
        rlo, rhi = span(recv_v)
        sched.round([
            SendStep(right, tag + 1 + step, DATA, slo, shi - slo),
            RecvStep(left, tag + 1 + step, DATA, rlo, rhi - rlo),
        ])
    return sched
