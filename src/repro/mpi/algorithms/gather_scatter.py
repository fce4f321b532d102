"""Gather and scatter algorithms: linear (root exchanges with every rank)
and binomial tree (blocks aggregated/partitioned along subtrees).

All four are schedules over ``"send"`` and ``"recv"``: for gather ``"send"``
is this rank's block and ``"recv"`` the root's ``p`` blocks; for scatter
``"send"`` is the root's ``p`` blocks and ``"recv"`` this rank's block.  Only
the root's schedule references the ``p``-block buffer.

The binomial trees work in *virtual* ranks (``vrank = (rank - root) % p``):
the subtree hanging off virtual rank ``v`` at bit position ``m`` covers the
contiguous range ``[v, min(v + m, p))``, so a subtree travels as one packed
message.  Each rank keeps its subtree packed in virtual-rank order in the
temporary ``"tmp"`` (block ``v`` at offset ``(v - vrank) * b``); the root
converts between that order and absolute rank order with a rotation by
``root`` blocks, which is two contiguous copies.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mpi.algorithms.base import KIND_GATHER, KIND_SCATTER, coll_tag
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    Schedule,
    SendStep,
    register_builder,
)

#: Buffer names every gather/scatter schedule uses.
SEND = "send"
RECV = "recv"
TMP = "tmp"


def _rotation(p: int, b: int, root: int) -> List[Tuple[int, int, int]]:
    """``(absolute offset, packed offset, nbytes)`` of the (at most two)
    contiguous runs that map absolute rank order (block ``r`` at ``r * b``)
    onto virtual-rank order (block ``(r - root) % p`` at that index): blocks
    ``root..p-1`` are the head of the packed order, ``0..root-1`` its tail."""
    head, tail = (p - root) * b, root * b
    return [run for run in ((root * b, 0, head), (0, head, tail)) if run[2]]


@register_builder("gather", "linear")
def build_gather_linear(rank: int, size: int, nbytes_per_rank: int, root: int,
                        seq: int) -> Schedule:
    """Linear gather: every non-root rank sends its block to the root."""
    sched = Schedule()
    b = nbytes_per_rank
    tag = coll_tag(KIND_GATHER, seq)
    if rank == root:
        sched.round([CopyStep(SEND, 0, RECV, root * b, b)])
        sched.round([RecvStep(src, tag, RECV, src * b, b) for src in range(size) if src != root])
    else:
        sched.round([SendStep(root, tag, SEND, 0, b)])
    return sched


@register_builder("gather", "binomial")
def build_gather_binomial(rank: int, size: int, nbytes_per_rank: int, root: int,
                          seq: int) -> Schedule:
    """Binomial-tree gather: subtree blocks are aggregated on the way up, so
    every internal node forwards one packed message per child instead of the
    root receiving ``p - 1`` individual blocks."""
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    tag = coll_tag(KIND_GATHER, seq)
    vrank = (rank - root) % p
    sched.round([CopyStep(SEND, 0, TMP, 0, b)])
    held = 1  # blocks of this rank's subtree gathered so far
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            sched.round([SendStep(parent, tag, TMP, 0, min(mask, p - vrank) * b)])
            break
        vchild = vrank | mask
        if vchild < p:
            span = min(mask, p - vchild)
            sched.round([RecvStep((vchild + root) % p, tag, TMP, mask * b, span * b)])
            held = mask + span
        mask <<= 1
    sched.temp(TMP, held * b)
    if vrank == 0:
        sched.round([CopyStep(TMP, plo, RECV, alo, n) for alo, plo, n in _rotation(p, b, root)])
    return sched


@register_builder("scatter", "linear")
def build_scatter_linear(rank: int, size: int, nbytes_per_rank: int, root: int,
                         seq: int) -> Schedule:
    """Linear scatter: the root sends one block to every other rank."""
    sched = Schedule()
    b = nbytes_per_rank
    tag = coll_tag(KIND_SCATTER, seq)
    if rank == root:
        sched.round([CopyStep(SEND, root * b, RECV, 0, b)])
        sched.round([SendStep(dst, tag, SEND, dst * b, b) for dst in range(size) if dst != root])
    else:
        sched.round([RecvStep(root, tag, RECV, 0, b)])
    return sched


@register_builder("scatter", "binomial")
def build_scatter_binomial(rank: int, size: int, nbytes_per_rank: int, root: int,
                           seq: int) -> Schedule:
    """Binomial-tree scatter: the mirror of the binomial gather.

    Each rank receives the packed blocks of its whole subtree from its parent
    and forwards the halves belonging to its children, so the root injects
    ``log2(p)`` messages instead of ``p - 1``.
    """
    sched = Schedule()
    p = size
    b = nbytes_per_rank
    tag = coll_tag(KIND_SCATTER, seq)
    vrank = (rank - root) % p
    if vrank == 0:
        sched.round([CopyStep(SEND, alo, TMP, plo, n) for alo, plo, n in _rotation(p, b, root)])
    # Phase 1: receive this rank's subtree from the binomial parent.
    held = p
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            held = min(mask, p - vrank)
            sched.round([RecvStep(parent, tag, TMP, 0, held * b)])
            break
        mask <<= 1
    sched.temp(TMP, held * b)
    # Phase 2: forward each child its sub-range.
    mask >>= 1
    while mask > 0:
        vchild = vrank + mask
        if vchild < p:
            span = min(mask, p - vchild)
            sched.round([SendStep((vchild + root) % p, tag, TMP, mask * b, span * b)])
        mask >>= 1
    sched.round([CopyStep(TMP, 0, RECV, 0, b)])
    return sched
