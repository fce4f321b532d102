"""Tests for the MPI collectives and communicator management."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import datatypes, ops
from repro.mpi.algorithms.registry import COLLECTIVES
from repro.mpi.errors import (
    MPI_ERR_BUFFER,
    MPI_ERR_COUNT,
    MPI_ERR_TRUNCATE,
    InvalidCountError,
    InvalidRootError,
    MPIError,
    TruncationError,
)
from repro.mpi.runtime import MPIRuntime
from tests.conftest import collective_args, collective_expected, run_mpi_program


@pytest.mark.parametrize("nranks", [2, 3, 4, 5])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_delivers_root_data(nranks, root):
    def program(rt, ctx):
        buf = np.full(16, ctx.rank, dtype=np.int32)
        rt.bcast(buf, 16, datatypes.INT, root=root)
        return buf.tolist()

    results = run_mpi_program(program, nranks)
    for r in results:
        assert r == [root] * 16


@pytest.mark.parametrize("op,expected_fn", [
    (ops.SUM, lambda ranks: sum(ranks)),
    (ops.MAX, lambda ranks: max(ranks)),
    (ops.MIN, lambda ranks: min(ranks)),
    (ops.PROD, lambda ranks: int(np.prod(ranks))),
])
def test_allreduce_operations(op, expected_fn):
    nranks = 4

    def program(rt, ctx):
        send = np.array([ctx.rank + 1, 2 * (ctx.rank + 1)], dtype=np.int64)
        recv = np.zeros(2, dtype=np.int64)
        rt.allreduce(send, recv, 2, datatypes.LONG, op)
        return recv.tolist()

    results = run_mpi_program(program, nranks)
    ranks = [r + 1 for r in range(nranks)]
    expected = [expected_fn(ranks), expected_fn([2 * r for r in ranks])]
    for r in results:
        assert r == expected


def test_allreduce_double_precision_sum():
    def program(rt, ctx):
        send = np.full(8, 0.5 * (ctx.rank + 1))
        recv = np.zeros(8)
        rt.allreduce(send, recv, 8, datatypes.DOUBLE, ops.SUM)
        return recv[0]

    results = run_mpi_program(program, 4)
    assert all(r == pytest.approx(0.5 * (1 + 2 + 3 + 4)) for r in results)


@pytest.mark.parametrize("nranks", [2, 3, 4])
def test_reduce_only_root_gets_result(nranks):
    def program(rt, ctx):
        send = np.array([ctx.rank], dtype=np.int32)
        recv = np.full(1, -1, dtype=np.int32)
        rt.reduce(send, recv, 1, datatypes.INT, ops.SUM, root=0)
        return int(recv[0])

    results = run_mpi_program(program, nranks)
    assert results[0] == sum(range(nranks))
    assert all(r == -1 for r in results[1:])


def test_gather_and_scatter_roundtrip():
    nranks = 4

    def program(rt, ctx):
        send = np.array([ctx.rank * 10, ctx.rank * 10 + 1], dtype=np.int32)
        recv = np.zeros(2 * nranks, dtype=np.int32) if ctx.rank == 1 else None
        rt.gather(send, 2, datatypes.INT, recv, 2, datatypes.INT, root=1)
        gathered = recv.tolist() if ctx.rank == 1 else None

        out = np.zeros(2, dtype=np.int32)
        rt.scatter(recv if ctx.rank == 1 else None, 2, datatypes.INT, out, 2, datatypes.INT, root=1)
        return (gathered, out.tolist())

    results = run_mpi_program(program, nranks)
    assert results[1][0] == [0, 1, 10, 11, 20, 21, 30, 31]
    for rank, (_g, scattered) in enumerate(results):
        assert scattered == [rank * 10, rank * 10 + 1]


@pytest.mark.parametrize("nranks", [2, 3, 4, 6])
def test_allgather_collects_every_rank_block(nranks):
    def program(rt, ctx):
        send = np.array([ctx.rank], dtype=np.float64)
        recv = np.zeros(nranks)
        rt.allgather(send, 1, datatypes.DOUBLE, recv, 1, datatypes.DOUBLE)
        return recv.tolist()

    for r in run_mpi_program(program, nranks):
        assert r == list(range(nranks))


@pytest.mark.parametrize("nranks", [2, 4, 5])
def test_alltoall_transposes_blocks(nranks):
    def program(rt, ctx):
        send = np.array([ctx.rank * 100 + j for j in range(nranks)], dtype=np.int32)
        recv = np.zeros(nranks, dtype=np.int32)
        rt.alltoall(send, 1, datatypes.INT, recv, 1, datatypes.INT)
        return recv.tolist()

    results = run_mpi_program(program, nranks)
    for rank, received in enumerate(results):
        assert received == [src * 100 + rank for src in range(nranks)]


def test_barrier_synchronises_virtual_clocks():
    def program(rt, ctx):
        ctx.advance(0.001 * (ctx.rank + 1))
        rt.barrier()
        return rt.wtime()

    times = run_mpi_program(program, 4)
    # After the barrier no rank may be earlier than the slowest pre-barrier rank.
    assert min(times) >= 0.004


def test_invalid_root_raises():
    def program(rt, ctx):
        with pytest.raises(InvalidRootError):
            rt.bcast(np.zeros(1, dtype=np.int32), 1, datatypes.INT, root=77)
        return True

    assert all(run_mpi_program(program, 2))


def test_root_without_its_buffer_gets_err_buffer_before_anything_is_posted():
    """The root of scatter/gather/reduce must supply the buffer only it uses.
    The error is raised before any message (or sequence number) is spent, so
    the same collective, called correctly afterwards, still completes."""
    byte = datatypes.BYTE

    def program(rt, ctx):
        back = np.zeros(4, dtype=np.uint8)
        block = np.full(4, ctx.rank + 1, dtype=np.uint8)
        if ctx.rank == 0:
            for bad_call in (
                lambda: rt.scatter(None, 4, byte, back, 4, byte, root=0),
                lambda: rt.gather(block, 4, byte, None, 4, byte, root=0),
                lambda: rt.reduce(block, None, 4, byte, ops.SUM, root=0),
            ):
                with pytest.raises(MPIError) as err:
                    bad_call()
                assert err.value.code == MPI_ERR_BUFFER
        send = np.arange(8, dtype=np.uint8) if ctx.rank == 0 else None
        rt.scatter(send, 4, byte, back, 4, byte, root=0)
        return back.tolist()

    assert run_mpi_program(program, 2) == [[0, 1, 2, 3], [4, 5, 6, 7]]


@pytest.mark.parametrize("collective", ["gather", "scatter"])
def test_root_count_mismatch_raises_truncate_up_front(collective):
    """8 bytes sent per rank into 4 received: ``MPI_ERR_TRUNCATE`` at the
    root before any communication, not a ``ValueError`` after all of it."""
    byte = datatypes.BYTE

    def program(rt, ctx):
        root = ctx.rank == 0

        def call(sendcount, recvcount):
            if collective == "gather":
                recv = np.zeros(16, dtype=np.uint8) if root else None
                rt.gather(np.full(8, ctx.rank + 1, dtype=np.uint8), sendcount, byte,
                          recv, recvcount, byte, root=0)
                return recv.tolist() if root else None
            send = np.arange(16, dtype=np.uint8) if root else None
            recv = np.zeros(8, dtype=np.uint8)
            rt.scatter(send, sendcount, byte, recv, recvcount, byte, root=0)
            return recv.tolist()

        if root:
            with pytest.raises(TruncationError) as err:
                call(8, 4)
            assert err.value.code == MPI_ERR_TRUNCATE
        return call(8, 8)

    results = run_mpi_program(program, 2)
    if collective == "gather":
        assert results == [[1] * 8 + [2] * 8, None]
    else:
        assert results == [list(range(8)), list(range(8, 16))]


@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
@pytest.mark.parametrize("defect", ["short_recvbuf", "negative_count"])
@pytest.mark.parametrize("collective", [c for c in COLLECTIVES if c != "barrier"])
def test_bad_call_is_rejected_before_anything_is_spent(collective, defect, nonblocking):
    """A receive buffer one element short, or a negative count, on one rank:
    ``MPI_ERR_COUNT`` from ``MPI_<C>`` and ``MPI_I<c>`` alike, raised before
    the algorithm is counted, a sequence number spent or a message posted --
    so the same collective, called correctly afterwards, completes."""
    nranks = 3
    method = ("i" if nonblocking else "") + collective
    names = list(inspect.signature(getattr(MPIRuntime, method)).parameters)[1:]

    def spent(rt):
        counters = rt.world.metrics.counters()
        return dict(rt._coll_seq), {k: v for k, v in counters.items() if k.startswith("mpi.coll.")}

    def program(rt, ctx):
        call = getattr(rt, method)
        if ctx.rank == 0:
            args, out = collective_args(collective, 0, nranks)
            bad = dict(zip(names, args))
            if defect == "short_recvbuf":
                bad["buf" if collective == "bcast" else "recvbuf"] = out[:-1]
            else:
                bad.update({name: -1 for name in bad if name.endswith("count")})
            before = spent(rt)
            with pytest.raises(InvalidCountError) as err:
                call(**bad)
            assert err.value.code == MPI_ERR_COUNT
            assert spent(rt) == before
        args, out = collective_args(collective, ctx.rank, nranks)
        request = call(*args)
        if nonblocking:
            rt.wait(request)
        return None if out is None else out.tolist()

    assert run_mpi_program(program, nranks) == [
        collective_expected(collective, rank, nranks) for rank in range(nranks)
    ]


def test_guest_negative_count_returns_err_count():
    """Through the guest ABI a negative count is an error code -- checked
    before any guest pointer is translated, so not an out-of-bounds trap --
    and the next call succeeds."""
    from repro.api import Session
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    def main(api, args):
        api.mpi_init()
        send_ptr, _send = api.alloc_array(4, abi.MPI_DOUBLE, fill=float(api.rank() + 1))
        recv_ptr, recv = api.alloc_array(4, abi.MPI_DOUBLE, fill=0)
        codes = [api.allreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM)
                 for count in (-1, 4)]
        api.mpi_finalize()
        return (codes, recv.tolist())

    with Session(machine="graviton2") as session:
        job = session.run(GuestProgram(name="allreduce-negative-count", main=main), 2)
    assert job.return_values() == [([MPI_ERR_COUNT, abi.MPI_SUCCESS], [3.0] * 4)] * 2


def test_guest_bad_handles_return_their_error_class():
    """An unknown datatype, op or communicator handle is ``MPI_ERR_TYPE`` /
    ``MPI_ERR_OP`` / ``MPI_ERR_COMM``, not ``MPI_ERR_OTHER`` -- and the next
    correct call succeeds."""
    from repro.api import Session
    from repro.mpi.errors import MPI_ERR_COMM, MPI_ERR_OP, MPI_ERR_TYPE
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    def main(api, args):
        api.mpi_init()
        send_ptr, _send = api.alloc_array(4, abi.MPI_DOUBLE, fill=float(api.rank() + 1))
        recv_ptr, recv = api.alloc_array(4, abi.MPI_DOUBLE, fill=0)
        codes = [api.allreduce(send_ptr, recv_ptr, 4, datatype, op, comm)
                 for datatype, op, comm in ((999, abi.MPI_SUM, abi.MPI_COMM_WORLD),
                                            (abi.MPI_DOUBLE, 999, abi.MPI_COMM_WORLD),
                                            (abi.MPI_DOUBLE, abi.MPI_SUM, 999),
                                            (abi.MPI_DOUBLE, abi.MPI_SUM, abi.MPI_COMM_WORLD))]
        api.mpi_finalize()
        return (codes, recv.tolist())

    with Session(machine="graviton2") as session:
        job = session.run(GuestProgram(name="allreduce-bad-handles", main=main), 2)
    assert job.return_values() == [
        ([MPI_ERR_TYPE, MPI_ERR_OP, MPI_ERR_COMM, abi.MPI_SUCCESS], [3.0] * 4)] * 2


def test_guest_scatter_with_null_root_buffer_returns_err_buffer():
    """Through the guest ABI the same failure is an error code, not a trap."""
    from repro.api import Session
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    def main(api, args):
        api.mpi_init()
        root = api.rank() == 0
        recv_ptr, recv = api.alloc_array(4, abi.MPI_BYTE, fill=0)
        send_ptr, send = api.alloc_array(8, abi.MPI_BYTE)
        send[:] = np.arange(8, dtype=np.uint8)
        codes = []
        if root:
            codes.append(api.scatter(0, 4, abi.MPI_BYTE, recv_ptr, 4, abi.MPI_BYTE, 0))
        codes.append(api.scatter(send_ptr, 4, abi.MPI_BYTE, recv_ptr, 4, abi.MPI_BYTE, 0))
        api.mpi_finalize()
        return (codes, recv.tolist())

    with Session(machine="graviton2") as session:
        job = session.run(GuestProgram(name="scatter-null-root", main=main), 2)
    assert job.return_values() == [
        ([MPI_ERR_BUFFER, abi.MPI_SUCCESS], [0, 1, 2, 3]),
        ([abi.MPI_SUCCESS], [4, 5, 6, 7]),
    ]


def test_comm_split_even_odd():
    def program(rt, ctx):
        color = ctx.rank % 2
        sub = rt.comm_split(None, color, key=ctx.rank)
        sub_rank = rt.comm_rank(sub)
        sub_size = rt.comm_size(sub)
        # Reduce inside the sub-communicator only.
        send = np.array([ctx.rank], dtype=np.int32)
        recv = np.zeros(1, dtype=np.int32)
        rt.allreduce(send, recv, 1, datatypes.INT, ops.SUM, comm=sub)
        return (color, sub_rank, sub_size, int(recv[0]))

    results = run_mpi_program(program, 4)
    # Even ranks {0, 2}: sum 2; odd ranks {1, 3}: sum 4.
    assert results[0] == (0, 0, 2, 2)
    assert results[2] == (0, 1, 2, 2)
    assert results[1] == (1, 0, 2, 4)
    assert results[3] == (1, 1, 2, 4)


def test_comm_split_undefined_color_returns_none():
    def program(rt, ctx):
        sub = rt.comm_split(None, -1 if ctx.rank == 0 else 0, key=0)
        return sub is None

    results = run_mpi_program(program, 3)
    assert results == [True, False, False]


def test_comm_dup_isolates_traffic():
    def program(rt, ctx):
        dup = rt.comm_dup()
        # Same group, different context: collectives on the dup still work.
        send = np.array([1], dtype=np.int32)
        recv = np.zeros(1, dtype=np.int32)
        rt.allreduce(send, recv, 1, datatypes.INT, ops.SUM, comm=dup)
        return (dup.context_id != rt.comm_world.context_id, int(recv[0]))

    results = run_mpi_program(program, 3)
    assert all(distinct and total == 3 for distinct, total in results)


@given(counts=st.integers(min_value=1, max_value=64), nranks=st.sampled_from([2, 3, 4]))
@settings(max_examples=10, deadline=None)
def test_allreduce_sum_matches_numpy_for_random_sizes(counts, nranks):
    def program(rt, ctx):
        send = np.arange(counts, dtype=np.float64) * (ctx.rank + 1)
        recv = np.zeros(counts)
        rt.allreduce(send, recv, counts, datatypes.DOUBLE, ops.SUM)
        return recv

    results = run_mpi_program(program, nranks)
    expected = np.arange(counts, dtype=np.float64) * sum(range(1, nranks + 1))
    for r in results:
        assert np.allclose(r, expected)


def test_bitwise_ops_on_integers():
    def program(rt, ctx):
        send = np.array([1 << ctx.rank], dtype=np.int32)
        recv = np.zeros(1, dtype=np.int32)
        rt.allreduce(send, recv, 1, datatypes.INT, ops.BOR)
        return int(recv[0])

    assert run_mpi_program(program, 4) == [0b1111] * 4
