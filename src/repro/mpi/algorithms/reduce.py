"""Reduce algorithms: binomial tree and Rabenseifner (reduce-scatter + gather).

Both are schedules over the accumulator buffer ``"acc"`` (initialised with
this rank's contribution); the root's schedule additionally writes the
result into ``"recv"``.  The round emitters are shared with the allreduce
algorithms that reuse them (see :mod:`repro.mpi.algorithms.allreduce`).
"""

from __future__ import annotations

from repro.mpi.algorithms.base import (
    KIND_REDUCE,
    chunk_counts,
    chunk_offsets,
    coll_tag,
    fold_absolute_rank,
    largest_power_of_two_leq,
)
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    register_builder,
)

# Tag offset separating the gather phase from the reduce-scatter rounds
# (rounds use offsets 1..log2(p), far below 64).
_GATHER_TAG_OFFSET = 64

#: Buffer names the reduce schedules use.
ACC = "acc"
RECV = "recv"


def binomial_reduce_rounds(sched: Schedule, rank: int, size: int, count: int,
                           esize: int, root: int, tag: int, tmp: str) -> None:
    """Emit the rounds of a binomial-tree reduction of ``"acc"`` to ``root``
    (``tmp`` is a declared temporary of ``count * esize`` bytes)."""
    p = size
    nbytes = count * esize
    vrank = (rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % p
            sched.round([SendStep(parent, tag, ACC, 0, nbytes)])
            break
        vchild = vrank | mask
        if vchild < p:
            child = (vchild + root) % p
            sched.round([
                RecvStep(child, tag, tmp, 0, nbytes),
                ReduceStep(tmp, 0, ACC, 0, count),
            ])
        mask <<= 1


def fold_rounds(sched: Schedule, rank: int, count: int, esize: int, tag: int,
                rem: int, tmp: str) -> int:
    """Emit the fold pre-phase of the halving/doubling algorithms for
    non-power-of-two sizes.

    The first ``2 * rem`` ranks pair up: each even rank sends its vector to
    its odd neighbour (which combines it) and drops out of the core phase.
    Returns the rank's virtual id within the power-of-two group, or ``-1``
    for folded-out ranks.  All predefined MPI ops are commutative, which the
    fold relies on.
    """
    nbytes = count * esize
    if rank < 2 * rem:
        if rank % 2 == 0:
            sched.round([SendStep(rank + 1, tag, ACC, 0, nbytes)])
            return -1
        sched.round([
            RecvStep(rank - 1, tag, tmp, 0, nbytes),
            ReduceStep(tmp, 0, ACC, 0, count),
        ])
        return rank // 2
    return rank - rem


@register_builder("reduce", "binomial")
def build_reduce_binomial(rank: int, size: int, count: int, esize: int,
                          root: int, seq: int) -> Schedule:
    """Binomial-tree reduction of ``count`` elements to ``root``.

    The root's schedule ends with a copy of the accumulator into ``"recv"``.
    """
    sched = Schedule()
    nbytes = count * esize
    if size > 1:
        binomial_reduce_rounds(sched, rank, size, count, esize, root,
                               coll_tag(KIND_REDUCE, seq), sched.temp("tmp", nbytes))
    if rank == root:
        sched.round([CopyStep(ACC, 0, RECV, 0, nbytes)])
    return sched


@register_builder("reduce", "rabenseifner")
def build_reduce_rabenseifner(rank: int, size: int, count: int, esize: int,
                              root: int, seq: int) -> Schedule:
    """Rabenseifner reduction: recursive-halving reduce-scatter, then a gather
    of the reduced chunks to the root.

    Halves the bandwidth term of the binomial tree for large vectors
    (~``2 * nbytes`` moved per rank instead of ``nbytes * log2(p)``).
    Non-power-of-two sizes fold the ``p - 2^k`` extra ranks into their
    neighbours in a pre-phase, exactly like MPICH's implementation.
    """
    sched = Schedule()
    p = size
    nbytes = count * esize
    if p <= 1:
        sched.round([CopyStep(ACC, 0, RECV, 0, nbytes)])
        return sched

    tag = coll_tag(KIND_REDUCE, seq)
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    tmp = sched.temp("tmp", nbytes)
    vrank = fold_rounds(sched, rank, count, esize, tag, rem, tmp)

    cnts = chunk_counts(count, pof2)
    offs = chunk_offsets(cnts)
    if vrank != -1:
        # Recursive halving: each participant starts with a full combined
        # vector and ends owning the fully reduced chunk ``vrank``.
        lo, hi = 0, pof2
        mask = pof2 // 2
        round_no = 1
        while mask > 0:
            partner = fold_absolute_rank(vrank ^ mask, rem)
            mid = lo + (hi - lo) // 2
            if vrank < mid:
                keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
            else:
                keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
            send_elems = offs[send_hi - 1] + cnts[send_hi - 1] - offs[send_lo]
            keep_elems = offs[keep_hi - 1] + cnts[keep_hi - 1] - offs[keep_lo]
            sched.round([
                SendStep(partner, tag + round_no, ACC, offs[send_lo] * esize, send_elems * esize),
                RecvStep(partner, tag + round_no, tmp, 0, keep_elems * esize),
                ReduceStep(tmp, 0, ACC, offs[keep_lo], keep_elems),
            ])
            lo, hi = keep_lo, keep_hi
            mask //= 2
            round_no += 1

    # Gather phase: every chunk owner ships its reduced chunk to the root
    # (which may itself be a folded-out rank owning none).
    gather_tag = tag + _GATHER_TAG_OFFSET
    if rank == root:
        gather = []
        for v in range(pof2):
            if cnts[v] == 0:
                continue
            seg_lo, seg_bytes = offs[v] * esize, cnts[v] * esize
            owner = fold_absolute_rank(v, rem)
            if owner == root:
                gather.append(CopyStep(ACC, seg_lo, RECV, seg_lo, seg_bytes))
            else:
                gather.append(RecvStep(owner, gather_tag + v, RECV, seg_lo, seg_bytes))
        sched.round(gather)
    elif vrank != -1 and cnts[vrank] > 0:
        sched.round([
            SendStep(root, gather_tag + vrank, ACC, offs[vrank] * esize, cnts[vrank] * esize)
        ])
    return sched
