"""Allreduce algorithms: recursive doubling, ring, and reduce+bcast.

All three are schedules over the accumulator buffer ``"acc"`` (initialised
with this rank's contribution and holding the result at completion);
``MPI_Allreduce`` runs the schedule to completion and ``MPI_Iallreduce``
advances the same schedule incrementally.  ``reduce_bcast`` is composed from
the round emitters of the binomial reduce and the binomial bcast.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import (
    KIND_ALLREDUCE,
    KIND_BCAST,
    KIND_REDUCE,
    chunk_counts,
    chunk_offsets,
    coll_tag,
    fold_absolute_rank,
    largest_power_of_two_leq,
)
from repro.mpi.algorithms.bcast import binomial_bcast_rounds
from repro.mpi.algorithms.reduce import binomial_reduce_rounds, fold_rounds
from repro.mpi.algorithms.schedule import (
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    register_builder,
)

# Tag offset for the post-phase that hands results back to folded-out ranks
# (doubling rounds use offsets 1..log2(p), far below 63).
_UNFOLD_TAG_OFFSET = 63

#: Accumulator buffer name every allreduce schedule reads and writes.
ACC = "acc"


def _unfold_round(sched: Schedule, rank: int, nbytes: int, tag: int, rem: int) -> None:
    """Post-phase: odd members of the folded pairs return the result."""
    if rank < 2 * rem:
        if rank % 2 == 1:
            sched.round([SendStep(rank - 1, tag + _UNFOLD_TAG_OFFSET, ACC, 0, nbytes)])
        else:
            sched.round([RecvStep(rank + 1, tag + _UNFOLD_TAG_OFFSET, ACC, 0, nbytes)])


@register_builder("allreduce", "recursive_doubling")
def build_allreduce_recursive_doubling(
    rank: int, size: int, count: int, esize: int, seq: int
) -> Schedule:
    """Recursive-doubling allreduce: ``log2(p)`` full-vector exchanges.

    Latency-optimal for short vectors.  Non-power-of-two sizes fold the extra
    ranks into neighbours first and hand the result back afterwards.
    """
    sched = Schedule()
    p = size
    nbytes = count * esize
    if p <= 1:
        return sched

    tag = coll_tag(KIND_ALLREDUCE, seq)
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    tmp = sched.temp("tmp", nbytes)
    vrank = fold_rounds(sched, rank, count, esize, tag, rem, tmp)

    if vrank != -1:
        mask = 1
        round_no = 1
        while mask < pof2:
            partner = fold_absolute_rank(vrank ^ mask, rem)
            sched.round([
                SendStep(partner, tag + round_no, ACC, 0, nbytes),
                RecvStep(partner, tag + round_no, tmp, 0, nbytes),
                ReduceStep(tmp, 0, ACC, 0, count),
            ])
            mask <<= 1
            round_no += 1

    _unfold_round(sched, rank, nbytes, tag, rem)
    return sched


@register_builder("allreduce", "ring")
def build_allreduce_ring(rank: int, size: int, count: int, esize: int, seq: int) -> Schedule:
    """Ring allreduce: ring reduce-scatter followed by ring allgather.

    Bandwidth-optimal (~``2 * nbytes`` moved per rank independent of ``p``),
    the algorithm behind large-message allreduce in Open MPI's tuned module
    and in collective communication libraries for ML.  Works for any ``p``;
    chunk boundaries follow the MPICH near-equal split.
    """
    sched = Schedule()
    p = size
    if p <= 1:
        return sched

    tag = coll_tag(KIND_ALLREDUCE, seq)
    right = (rank + 1) % p
    left = (rank - 1) % p
    cnts = chunk_counts(count, p)
    offs = chunk_offsets(cnts)
    tmp = sched.temp("tmp", max(cnts) * esize if cnts else 0)

    # Reduce-scatter: after step s this rank has combined s+1 contributions
    # into chunk (rank - s - 1); after p-1 steps chunk (rank + 1) is complete.
    for step in range(p - 1):
        send_idx = (rank - step) % p
        recv_idx = (rank - step - 1) % p
        sched.round([
            SendStep(right, tag + step, ACC, offs[send_idx] * esize, cnts[send_idx] * esize),
            RecvStep(left, tag + step, tmp, 0, cnts[recv_idx] * esize),
            ReduceStep(tmp, 0, ACC, offs[recv_idx], cnts[recv_idx]),
        ])

    # Allgather: circulate the completed chunks around the ring.
    for step in range(p - 1):
        send_idx = (rank + 1 - step) % p
        recv_idx = (rank - step) % p
        sched.round([
            SendStep(right, tag + (p - 1) + step, ACC, offs[send_idx] * esize, cnts[send_idx] * esize),
            RecvStep(left, tag + (p - 1) + step, ACC, offs[recv_idx] * esize, cnts[recv_idx] * esize),
        ])
    return sched


@register_builder("allreduce", "reduce_bcast")
def build_allreduce_reduce_bcast(rank: int, size: int, count: int, esize: int,
                                 seq: int) -> Schedule:
    """Allreduce composed from a binomial reduce-to-0 and a binomial bcast.

    The textbook composition the original single-algorithm implementation
    used; kept as a registered algorithm so the composition stays selectable
    and comparable against the fused ones.  The bcast rounds forward the
    accumulator the reduce rounds left complete on rank 0; the two phases
    keep the tags of the collectives they are borrowed from.
    """
    sched = Schedule()
    if size <= 1:
        return sched
    nbytes = count * esize
    binomial_reduce_rounds(sched, rank, size, count, esize, 0,
                           coll_tag(KIND_REDUCE, seq), sched.temp("tmp", nbytes))
    binomial_bcast_rounds(sched, rank, size, nbytes, 0, coll_tag(KIND_BCAST, seq), ACC)
    return sched
