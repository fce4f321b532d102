"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes, ops
from repro.mpi.algorithms import registry
from repro.mpi.runtime import MPIRuntime, MPIWorld
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEngine
from repro.sim.machines import graviton2, supermuc_ng


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the files under tests/golden/ from the current code "
             "instead of comparing against them (review the diff before committing)",
    )


def run_mpi_program(program, nranks: int, machine=None, ranks_per_node=None):
    """Run ``program(runtime, ctx)`` on every rank of a small simulated job."""
    preset = machine or graviton2()
    cluster = Cluster(preset, nranks, ranks_per_node or min(nranks, preset.cores_per_node))
    engine = SimEngine(nranks)
    world = MPIWorld.install(cluster, engine)

    def make(rank):
        def rank_main(ctx):
            runtime = MPIRuntime(world, ctx)
            runtime.init()
            result = program(runtime, ctx)
            if not runtime.finalized:
                runtime.finalize()
            return result

        return rank_main

    engine.spawn_all(make)
    return engine.run()


@pytest.fixture
def graviton():
    """The Graviton2 machine preset."""
    return graviton2()


@pytest.fixture
def supermuc():
    """The SuperMUC-NG machine preset."""
    return supermuc_ng()


@pytest.fixture
def small_cluster(graviton):
    """A 4-rank single-node cluster."""
    return Cluster(graviton, nranks=4, ranks_per_node=4)


# ------------------------------------------------- one call of any collective


def _block(rank: int, count: int) -> np.ndarray:
    return np.arange(count, dtype=np.int64) + 100 * (rank + 1)


def _blocks(rank: int, size: int, count: int) -> np.ndarray:
    return np.arange(count * size, dtype=np.int64) + 1000 * (rank + 1)


def collective_args(collective: str, rank: int, size: int, root: int = 0, count: int = 6):
    """``(args, out)`` for one call of ``MPIRuntime.<collective>`` -- and of
    its ``i<collective>`` twin, which takes the same arguments -- on ``rank``.

    Payloads are ``count``-element ``MPI_LONG`` blocks that differ per rank;
    ``out`` is the fresh array the call leaves its result in on this rank
    (``None`` where it has none).  :func:`collective_expected` says what the
    array must hold afterwards.
    """
    long = datatypes.LONG
    block, blocks = _block(rank, count), _blocks(rank, size, count)
    one, many = np.zeros(count, dtype=np.int64), np.zeros(count * size, dtype=np.int64)
    is_root = rank == root
    if collective == "barrier":
        return (), None
    if collective == "bcast":
        return (block, count, long, root), block
    if collective == "reduce":
        return (block, one if is_root else None, count, long, ops.SUM, root), one if is_root else None
    if collective == "allreduce":
        return (block, one, count, long, ops.SUM), one
    if collective == "gather":
        return (block, count, long, many if is_root else None, count, long, root), many if is_root else None
    if collective == "scatter":
        return (blocks if is_root else None, count, long, one, count, long, root), one
    if collective == "allgather":
        return (block, count, long, many, count, long), many
    if collective == "alltoall":
        return (blocks, count, long, many, count, long), many
    raise KeyError(collective)  # a new collective needs a case here and below


def collective_expected(collective: str, rank: int, size: int, root: int = 0, count: int = 6):
    """What ``out`` of :func:`collective_args` holds after the call (a list)."""
    if collective == "barrier" or (collective in ("reduce", "gather") and rank != root):
        return None
    every_block = [_block(r, count) for r in range(size)]
    mine = slice(rank * count, (rank + 1) * count)
    if collective == "bcast":
        result = every_block[root]
    elif collective in ("reduce", "allreduce"):
        result = sum(every_block)
    elif collective in ("gather", "allgather"):
        result = np.concatenate(every_block)
    elif collective == "scatter":
        result = _blocks(root, size, count)[mine]
    elif collective == "alltoall":
        result = np.concatenate([_blocks(src, size, count)[mine] for src in range(size)])
    else:
        raise KeyError(collective)
    return result.tolist()


#: Every registered ``(collective, algorithm)`` pair, sorted.
ALGORITHMS = sorted(
    (collective, algorithm)
    for collective, algorithms in registry.catalog().items()
    for algorithm in algorithms
)


def two_collective_calls(collective: str, algorithm: str, nonblocking: bool, nranks: int,
                         root: int = 1, reached=None):
    """A :func:`run_mpi_program` program: two calls of one forced algorithm
    (``MPI_<C>``, or ``MPI_I<c>`` + ``MPI_Wait``), then a barrier nobody
    passes alone.  ``reached`` (a set) records the ranks that got to it."""

    def program(rt, ctx):
        rt.world.collectives.force(collective, algorithm)
        for _ in range(2):
            args, _out = collective_args(collective, ctx.rank, nranks, root)
            if nonblocking:
                rt.wait(getattr(rt, "i" + collective)(*args))
            else:
                getattr(rt, collective)(*args)
        if reached is not None:
            reached.add(ctx.rank)
        rt.barrier()
        return ctx.now

    return program
