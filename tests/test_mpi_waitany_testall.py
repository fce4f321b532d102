"""Tests for ``MPI_Waitany`` / ``MPI_Testall`` (and the underlying
``MPI_Test``) at the host-runtime level and through the guest ABI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes
from repro.mpi.status import Request
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from tests.conftest import run_mpi_program


# ------------------------------------------------------------- runtime level


def test_waitany_no_active_requests_returns_undefined():
    def program(rt, ctx):
        index, status = rt.waitany([Request.null(), Request.null()])
        return (index, status.count_bytes)

    for index, count in run_mpi_program(program, 2):
        assert index == -1
        assert count == 0


def test_waitany_returns_the_ready_request():
    """Rank 0 waits on receives from ranks 1 and 2; rank 2's message arrives
    first (rank 1 only sends after a token from rank 0), so waitany must pick
    index 1 first even though index 0 was posted first."""

    def program(rt, ctx):
        if ctx.rank == 0:
            buf1 = np.zeros(4, dtype=np.int32)
            buf2 = np.zeros(4, dtype=np.int32)
            requests = [
                rt.irecv(buf1, 4, datatypes.INT, 1, 11),
                rt.irecv(buf2, 4, datatypes.INT, 2, 22),
            ]
            first, status_first = rt.waitany(requests)
            requests[first] = Request.null()
            # Release rank 1, whose send is gated on this token.
            rt.send(np.zeros(1, dtype=np.int32), 1, datatypes.INT, 1, 99)
            second, _ = rt.waitany(requests)
            return (first, second, status_first.source, buf1.tolist(), buf2.tolist())
        if ctx.rank == 1:
            token = np.zeros(1, dtype=np.int32)
            rt.recv(token, 1, datatypes.INT, 0, 99)
            rt.send(np.full(4, 10, dtype=np.int32), 4, datatypes.INT, 0, 11)
        elif ctx.rank == 2:
            rt.send(np.full(4, 20, dtype=np.int32), 4, datatypes.INT, 0, 22)
        return None

    results = run_mpi_program(program, 3)
    first, second, source_first, buf1, buf2 = results[0]
    assert first == 1
    assert source_first == 2
    assert second == 0
    assert buf1 == [10] * 4
    assert buf2 == [20] * 4


def test_proc_null_irecv_completes_immediately_in_test_and_waitany():
    """MPI requires operations on PROC_NULL to complete at once with an
    empty status -- including through Test/Waitany/Testall."""

    def program(rt, ctx):
        buf = np.zeros(4, dtype=np.int32)
        req = rt.irecv(buf, 4, datatypes.INT, rt.PROC_NULL, 3)
        flag, status = rt.test(req)
        req2 = rt.irecv(buf, 4, datatypes.INT, rt.PROC_NULL, 4)
        index, _ = rt.waitany([req2])
        req3 = rt.irecv(buf, 4, datatypes.INT, rt.PROC_NULL, 5)
        all_flag, _ = rt.testall([req3])
        return (flag, status.count_bytes, index, all_flag)

    for flag, count, index, all_flag in run_mpi_program(program, 2):
        assert flag is True
        assert count == 0
        assert index == 0
        assert all_flag is True


def test_waitany_completed_isend_returns_immediately():
    def program(rt, ctx):
        if ctx.rank == 0:
            req = rt.isend(np.arange(4, dtype=np.int32), 4, datatypes.INT, 1, 5)
            index, status = rt.waitany([req])
            return (index, status.count_bytes)
        buf = np.zeros(4, dtype=np.int32)
        rt.recv(buf, 4, datatypes.INT, 0, 5)
        return buf.tolist()

    results = run_mpi_program(program, 2)
    assert results[0] == (0, 16)
    assert results[1] == [0, 1, 2, 3]


def test_testall_false_until_message_posted():
    """Rank 1's reply is gated on rank 0's send, so rank 0's first testall
    must report False without blocking; after the exchange the request
    completes normally."""

    def program(rt, ctx):
        if ctx.rank == 0:
            buf = np.zeros(4, dtype=np.int32)
            req = rt.irecv(buf, 4, datatypes.INT, 1, 7)
            flag_before, _ = rt.testall([req])
            rt.send(np.arange(4, dtype=np.int32), 4, datatypes.INT, 1, 5)
            status = rt.wait(req)
            return (flag_before, status.count_bytes, buf.tolist())
        buf = np.zeros(4, dtype=np.int32)
        rt.recv(buf, 4, datatypes.INT, 0, 5)
        rt.send(buf * 2, 4, datatypes.INT, 0, 7)
        return None

    results = run_mpi_program(program, 2)
    assert results[0] == (False, 16, [0, 2, 4, 6])


def test_testall_completes_all_when_ready():
    def program(rt, ctx):
        if ctx.rank == 0:
            # Let both senders run first so their messages are buffered.
            ctx.advance(0.01)
            buf1 = np.zeros(2, dtype=np.int32)
            buf2 = np.zeros(2, dtype=np.int32)
            requests = [
                rt.irecv(buf1, 2, datatypes.INT, 1, 1),
                rt.irecv(buf2, 2, datatypes.INT, 2, 2),
            ]
            flag, statuses = rt.testall(requests)
            return (flag, [s.source for s in statuses], buf1.tolist(), buf2.tolist())
        rt.send(np.full(2, ctx.rank, dtype=np.int32), 2, datatypes.INT, 0, ctx.rank)
        return None

    results = run_mpi_program(program, 3)
    flag, sources, buf1, buf2 = results[0]
    assert flag is True
    assert sources == [1, 2]
    assert buf1 == [1, 1]
    assert buf2 == [2, 2]


# ----------------------------------------------------------------- guest ABI


@pytest.mark.parametrize("poll", ["iprobe", "testall"])
def test_polling_rank_lets_a_later_sender_run(poll):
    """A rank spinning on ``MPI_Iprobe``/``MPI_Testall`` must not keep the
    token: rank 1 computes 1 ms before it sends, and starts with the same
    clock as rank 0 but a higher rank, so a poll that yields without
    advancing the clock would hand the token back to rank 0 forever."""
    spin_bound = 1000

    def program(rt, ctx):
        if ctx.rank == 1:
            ctx.advance(1e-3)
            rt.send(np.full(1, 7, dtype=np.int32), 1, datatypes.INT, 0, 5)
            return None
        buf = np.zeros(1, dtype=np.int32)
        requests = [rt.irecv(buf, 1, datatypes.INT, 1, 5)]
        for _ in range(spin_bound):
            if poll == "iprobe" and rt.iprobe(1, 5)[0]:
                rt.wait(requests[0])
                break
            if poll == "testall" and rt.testall(requests)[0]:
                break
        else:
            return None  # livelocked: rank 1 never got the token
        return int(buf[0]), ctx.now

    value, now = run_mpi_program(program, 2)[0] or (None, 0.0)
    assert value == 7
    assert now >= 1e-3


def test_guest_waitany_and_testall():
    """Drive MPI_Waitany/MPI_Testall through the full Wasm import path."""
    from repro.api import run

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        out = None
        if rank == 0:
            p1, a1 = api.alloc_array(4, abi.MPI_INT, fill=0)
            p2, a2 = api.alloc_array(4, abi.MPI_INT, fill=0)
            handles = [
                api.irecv(p1, 4, abi.MPI_INT, 1, 1),
                api.irecv(p2, 4, abi.MPI_INT, 1, 2),
            ]
            index, status = api.waitany(handles)
            handles[index] = abi.MPI_REQUEST_NULL
            flag, statuses = api.testall(handles)
            if not flag:
                other = 1 - index
                _, status2 = api.waitany(handles)
                statuses = [status2]
                flag = True
            out = (index, status["count_bytes"], flag, a1.tolist(), a2.tolist())
        else:
            ptr, arr = api.alloc_array(4, abi.MPI_INT)
            arr[:] = [1, 2, 3, 4]
            api.send(ptr, 4, abi.MPI_INT, 0, 1)
            arr[:] = [5, 6, 7, 8]
            api.send(ptr, 4, abi.MPI_INT, 0, 2)
        api.mpi_finalize()
        return out

    job = run(GuestProgram(name="waitany-testall", main=main), 2, machine="graviton2")
    index, count_bytes, flag, a1, a2 = job.return_values()[0]
    assert index in (0, 1)
    assert count_bytes == 16
    assert flag is True
    assert a1 == [1, 2, 3, 4]
    assert a2 == [5, 6, 7, 8]
    counts = job.rank_results[0].call_counts
    assert counts["MPI_Waitany"] >= 1
    assert counts["MPI_Testall"] == 1


def test_guest_waitany_undefined_when_no_live_handles():
    from repro.api import run

    def main(api, args):
        api.mpi_init()
        index, _status = api.waitany([abi.MPI_REQUEST_NULL, abi.MPI_REQUEST_NULL])
        api.mpi_finalize()
        return index

    job = run(GuestProgram(name="waitany-undef", main=main), 1, machine="graviton2")
    assert job.return_values()[0] == abi.MPI_UNDEFINED


def test_header_declares_new_functions():
    source = abi.header_source()
    assert "MPI_Waitany" in source
    assert "MPI_Testall" in source
    assert abi.MPI_SIGNATURES["MPI_Waitany"] == (["i32", "i32", "i32", "i32"], ["i32"])
    assert abi.MPI_SIGNATURES["MPI_Testall"] == (["i32", "i32", "i32", "i32"], ["i32"])
