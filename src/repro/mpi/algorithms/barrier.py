"""Barrier algorithms: dissemination and linear (central coordinator).

Both algorithms are *schedules* (ordered rounds of zero-byte token
exchanges, see :mod:`repro.mpi.algorithms.schedule`): ``MPI_Barrier`` runs
the schedule to completion and ``MPI_Ibarrier`` advances the same schedule
incrementally, so each algorithm has exactly one implementation.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import KIND_BARRIER, coll_tag
from repro.mpi.algorithms.schedule import (
    RecvStep,
    Schedule,
    SendStep,
    register_builder,
)


@register_builder("barrier", "dissemination")
def build_barrier_dissemination(rank: int, size: int, seq: int) -> Schedule:
    """Dissemination barrier: ``ceil(log2 p)`` rounds of token exchange."""
    sched = Schedule()
    p = size
    if p <= 1:
        return sched
    tag = coll_tag(KIND_BARRIER, seq)
    step = 1
    round_no = 0
    while step < p:
        dst = (rank + step) % p
        src = (rank - step) % p
        sched.round([
            SendStep(dst, tag + round_no),
            RecvStep(src, tag + round_no),
        ])
        step <<= 1
        round_no += 1
    return sched


@register_builder("barrier", "linear")
def build_barrier_linear(rank: int, size: int, seq: int) -> Schedule:
    """Linear barrier: rank 0 collects a token from everyone, then releases.

    Two sequential fan-in/fan-out rounds -- latency grows linearly with the
    communicator size, but only ``2(p-1)`` messages total, which wins on very
    small communicators.
    """
    sched = Schedule()
    p = size
    if p <= 1:
        return sched
    tag = coll_tag(KIND_BARRIER, seq)
    if rank == 0:
        sched.round([RecvStep(src, tag) for src in range(1, p)])
        sched.round([SendStep(dst, tag + 1) for dst in range(1, p)])
    else:
        sched.round([SendStep(0, tag)])
        sched.round([RecvStep(0, tag + 1)])
    return sched
