"""Guest programs owned by the benchmark: the oracle and the probe guests.

All of them are written against the ``GuestAPI``/``NativeAPI`` surface, so the
same ``main`` runs in wasm and native mode.  Guests that report a host time
read ``time.perf_counter`` around their own loop on rank 0: the guest is the
benchmark's code calling the program's public MPI API, so this is still a
measurement from outside the layers.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram


def make_oracle_program(count: int = 48) -> GuestProgram:
    """Collectives over rank-derived values, checked against closed forms.

    Every rank returns ``{"errors": n, "digest": hex}``; a job is right when
    every rank reports zero errors and the wasm and native runs return the
    same list.
    """

    def main(api, args):
        api.mpi_init()
        rank, size = api.rank(), api.size()
        errors = 0
        digest = hashlib.blake2b(digest_size=8)
        index = np.arange(1, count + 1)

        # allreduce(SUM) of (rank+1)*i  ==  i * p(p+1)/2
        send_ptr, send = api.alloc_array(count, abi.MPI_DOUBLE)
        recv_ptr, recv = api.alloc_array(count, abi.MPI_DOUBLE)
        send[:] = (rank + 1) * index
        api.allreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM)
        errors += int(not np.array_equal(recv, index * (size * (size + 1) / 2)))
        digest.update(recv.tobytes())

        # bcast from the last rank of 7*i + root
        root = size - 1
        bc_ptr, bc = api.alloc_array(count, abi.MPI_INT, fill=0)
        if rank == root:
            bc[:] = 7 * index + root
        api.bcast(bc_ptr, count, abi.MPI_INT, root)
        errors += int(not np.array_equal(bc, 7 * index + root))
        digest.update(bc.tobytes())

        # alltoall: rank r sends 1000*r + d to rank d, so it receives 1000*s + r
        a2a_send_ptr, a2a_send = api.alloc_array(size, abi.MPI_INT)
        a2a_recv_ptr, a2a_recv = api.alloc_array(size, abi.MPI_INT, fill=0)
        a2a_send[:] = 1000 * rank + np.arange(size)
        api.alltoall(a2a_send_ptr, 1, abi.MPI_INT, a2a_recv_ptr, 1, abi.MPI_INT)
        errors += int(not np.array_equal(a2a_recv, 1000 * np.arange(size) + rank))
        digest.update(a2a_recv.tobytes())

        # gather of r*r to rank 0
        g_send_ptr, g_send = api.alloc_array(1, abi.MPI_INT)
        g_recv_ptr, g_recv = api.alloc_array(size, abi.MPI_INT, fill=0)
        g_send[0] = rank * rank
        api.gather(g_send_ptr, 1, abi.MPI_INT, g_recv_ptr, 1, abi.MPI_INT, 0)
        if rank == 0:
            errors += int(not np.array_equal(g_recv, np.arange(size) ** 2))
            digest.update(g_recv.tobytes())

        api.mpi_finalize()
        return {"errors": errors, "digest": digest.hexdigest()}

    return GuestProgram(name="e2e-oracle", main=main,
                        description="closed-form collective oracle")


def make_empty_program() -> GuestProgram:
    """``MPI_Init`` + ``MPI_Finalize`` only: the fixed cost of one job."""

    def main(api, args):
        api.mpi_init()
        api.mpi_finalize()
        return 0

    return GuestProgram(name="e2e-empty", main=main, description="init/finalize only")


def make_call_loop_program(calls: int) -> GuestProgram:
    """``calls`` cheap MPI queries on one rank; returns the loop's host seconds."""

    def main(api, args):
        api.mpi_init()
        start = time.perf_counter()
        for _ in range(calls // 2):
            api.rank()
            api.wtime()
        elapsed = time.perf_counter() - start
        api.mpi_finalize()
        return elapsed

    return GuestProgram(name="e2e-call-loop", main=main, description="rank()/wtime() loop")


def make_pingpong_program(nbytes: int, iterations: int) -> GuestProgram:
    """Two-rank ping-pong; rank 0 returns the loop's host seconds."""

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        ptr, _buf = api.alloc_array(max(nbytes, 1), abi.MPI_BYTE, fill=1)
        api.barrier()
        start = time.perf_counter()
        for _ in range(iterations):
            if rank == 0:
                api.send(ptr, nbytes, abi.MPI_BYTE, 1, 0)
                api.recv(ptr, nbytes, abi.MPI_BYTE, 1, 0)
            elif rank == 1:
                api.recv(ptr, nbytes, abi.MPI_BYTE, 0, 0)
                api.send(ptr, nbytes, abi.MPI_BYTE, 0, 0)
        elapsed = time.perf_counter() - start
        api.mpi_finalize()
        return elapsed

    return GuestProgram(
        name="e2e-pingpong", main=main,
        # send buffer + the allocator's own scratch, with room to spare, so
        # the heap never grows (see README "known limits").
        memory_pages=max(64, 2 * nbytes // 65536 + 32),
        description=f"{nbytes}-byte ping-pong",
    )


#: Collective loops the ``mpi.runtime`` probes time, by name.
COLLECTIVE_LOOPS = ("barrier", "allreduce", "alltoall", "iallreduce")


def make_collective_loop_program(collective: str, iterations: int,
                                 count: int = 16) -> GuestProgram:
    """``iterations`` calls of one collective; rank 0 returns host seconds."""
    if collective not in COLLECTIVE_LOOPS:
        raise KeyError(f"unknown collective loop {collective!r}; known: {COLLECTIVE_LOOPS}")

    def main(api, args):
        api.mpi_init()
        size = api.size()
        send_ptr, _s = api.alloc_array(count * size, abi.MPI_DOUBLE, fill=1.0)
        recv_ptr, _r = api.alloc_array(count * size, abi.MPI_DOUBLE, fill=0.0)
        api.barrier()
        start = time.perf_counter()
        for _ in range(iterations):
            if collective == "barrier":
                api.barrier()
            elif collective == "allreduce":
                api.allreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM)
            elif collective == "alltoall":
                api.alltoall(send_ptr, count, abi.MPI_DOUBLE, recv_ptr, count, abi.MPI_DOUBLE)
            else:
                api.wait(api.iallreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM))
        elapsed = time.perf_counter() - start
        api.mpi_finalize()
        return elapsed

    return GuestProgram(name=f"e2e-loop-{collective}", main=main,
                        description=f"{collective} loop")
