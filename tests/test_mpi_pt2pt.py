"""Tests for the MPI point-to-point layer (matching, wildcards, timing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes, ops
from repro.mpi.errors import InvalidCountError, InvalidRankError, InvalidTagError, TruncationError
from repro.mpi.pt2pt import ANY_SOURCE, ANY_TAG, PROC_NULL
from tests.conftest import run_mpi_program


def test_basic_send_recv_moves_data():
    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.arange(10, dtype=np.int32), 10, datatypes.INT, dest=1, tag=5)
            return None
        if ctx.rank == 1:
            buf = np.zeros(10, dtype=np.int32)
            status = rt.recv(buf, 10, datatypes.INT, source=0, tag=5)
            assert np.array_equal(buf, np.arange(10))
            return (status.source, status.tag, status.count_bytes)
        return None

    results = run_mpi_program(program, 2)
    assert results[1] == (0, 5, 40)


def test_message_ordering_is_fifo_per_pair():
    def program(rt, ctx):
        if ctx.rank == 0:
            for i in range(5):
                rt.send(np.array([i], dtype=np.int32), 1, datatypes.INT, dest=1, tag=9)
            return None
        received = []
        buf = np.zeros(1, dtype=np.int32)
        for _ in range(5):
            rt.recv(buf, 1, datatypes.INT, source=0, tag=9)
            received.append(int(buf[0]))
        return received

    assert run_mpi_program(program, 2)[1] == [0, 1, 2, 3, 4]


def test_any_source_and_any_tag_wildcards():
    def program(rt, ctx):
        if ctx.rank == 0:
            buf = np.zeros(1, dtype=np.int32)
            sources = set()
            for _ in range(2):
                status = rt.recv(buf, 1, datatypes.INT, source=ANY_SOURCE, tag=ANY_TAG)
                sources.add(status.source)
            return sources
        rt.send(np.array([ctx.rank], dtype=np.int32), 1, datatypes.INT, dest=0, tag=ctx.rank)
        return None

    assert run_mpi_program(program, 3)[0] == {1, 2}


def test_tag_selectivity():
    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.array([111], dtype=np.int32), 1, datatypes.INT, dest=1, tag=1)
            rt.send(np.array([222], dtype=np.int32), 1, datatypes.INT, dest=1, tag=2)
            return None
        buf = np.zeros(1, dtype=np.int32)
        rt.recv(buf, 1, datatypes.INT, source=0, tag=2)
        first = int(buf[0])
        rt.recv(buf, 1, datatypes.INT, source=0, tag=1)
        return (first, int(buf[0]))

    assert run_mpi_program(program, 2)[1] == (222, 111)


def test_truncation_error_when_buffer_too_small():
    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.zeros(100, dtype=np.float64), 100, datatypes.DOUBLE, dest=1, tag=0)
            return None
        buf = np.zeros(10, dtype=np.float64)
        with pytest.raises(TruncationError):
            rt.recv(buf, 10, datatypes.DOUBLE, source=0, tag=0)
        return "checked"

    assert run_mpi_program(program, 2)[1] == "checked"


TRUNCATED_SEND_BYTES = 1 << 20  # above every transport's eager threshold: rendezvous


def test_truncated_receive_still_completes_a_rendezvous_send():
    """MPI completes the send and reports ``MPI_ERR_TRUNCATE`` to the receiver
    only: the sender blocked in the rendezvous is woken, not deadlocked."""
    nbytes = TRUNCATED_SEND_BYTES

    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.ones(nbytes, dtype=np.uint8), nbytes, datatypes.BYTE, dest=1, tag=7)
            return "sent"
        with pytest.raises(TruncationError):
            rt.recv(np.zeros(16, dtype=np.uint8), 16, datatypes.BYTE, source=0, tag=7)
        assert rt.world.matching.pending_count() == 0
        return "truncated"

    assert run_mpi_program(program, 2) == ["sent", "truncated"]


def test_guest_truncated_receive_returns_err_truncate_and_the_send_succeeds():
    from repro.api import Session
    from repro.mpi.errors import MPI_ERR_TRUNCATE, MPI_SUCCESS
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    nbytes = TRUNCATED_SEND_BYTES

    def main(api, args):
        api.mpi_init()
        if api.rank() == 0:
            ptr, _ = api.alloc_array(nbytes, abi.MPI_BYTE, fill=1)
            code = api.send(ptr, nbytes, abi.MPI_BYTE, 1, 7)
        else:
            ptr, _ = api.alloc_array(16, abi.MPI_BYTE, fill=0)
            code = api._call("MPI_Recv", ptr, 16, abi.MPI_BYTE, 0, 7, abi.MPI_COMM_WORLD,
                             abi.MPI_STATUS_IGNORE)
        api.mpi_finalize()
        return code

    with Session(machine="graviton2") as session:
        job = session.run(GuestProgram(name="truncated-rendezvous", main=main), 2)
    assert job.return_values() == [MPI_SUCCESS, MPI_ERR_TRUNCATE]


def test_proc_null_send_recv_are_noops():
    def program(rt, ctx):
        rt.send(np.zeros(1, dtype=np.int32), 1, datatypes.INT, dest=PROC_NULL, tag=0)
        status = rt.recv(np.zeros(1, dtype=np.int32), 1, datatypes.INT, source=PROC_NULL, tag=0)
        return status.source

    assert run_mpi_program(program, 2) == [PROC_NULL, PROC_NULL]


def test_invalid_arguments_raise():
    def program(rt, ctx):
        with pytest.raises(InvalidRankError):
            rt.send(b"", 0, datatypes.BYTE, dest=99, tag=0)
        with pytest.raises(InvalidTagError):
            rt.send(b"", 0, datatypes.BYTE, dest=0, tag=-5)
        with pytest.raises(InvalidCountError):
            rt.send(b"", -1, datatypes.BYTE, dest=0, tag=0)
        with pytest.raises(InvalidCountError):
            rt.send(b"\x00" * 4, 100, datatypes.INT, dest=0, tag=0)
        return True

    assert run_mpi_program(program, 2) == [True, True]


def test_rendezvous_large_message_round_trip():
    nbytes = 1 << 20  # above every transport's eager threshold

    def program(rt, ctx):
        if ctx.rank == 0:
            data = np.arange(nbytes, dtype=np.uint8)
            rt.send(data, nbytes, datatypes.BYTE, dest=1, tag=3)
            return rt.wtime()
        buf = np.zeros(nbytes, dtype=np.uint8)
        rt.recv(buf, nbytes, datatypes.BYTE, source=0, tag=3)
        assert buf[12345] == np.arange(nbytes, dtype=np.uint8)[12345]
        return rt.wtime()

    times = run_mpi_program(program, 2)
    # Rendezvous: the sender cannot complete much earlier than the receiver.
    assert times[0] == pytest.approx(times[1], rel=0.2)
    assert times[0] > 1e-6  # a megabyte takes real virtual time


def test_small_message_is_faster_than_large_message():
    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.zeros(8, dtype=np.uint8), 8, datatypes.BYTE, dest=1, tag=0)
            return None
        buf = np.zeros(8, dtype=np.uint8)
        rt.recv(buf, 8, datatypes.BYTE, source=0, tag=0)
        return rt.wtime()

    small_time = run_mpi_program(program, 2)[1]

    def program_large(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.zeros(1 << 18, dtype=np.uint8), 1 << 18, datatypes.BYTE, dest=1, tag=0)
            return None
        buf = np.zeros(1 << 18, dtype=np.uint8)
        rt.recv(buf, 1 << 18, datatypes.BYTE, source=0, tag=0)
        return rt.wtime()

    large_time = run_mpi_program(program_large, 2)[1]
    assert large_time > small_time


def test_sendrecv_ring_does_not_deadlock():
    def program(rt, ctx):
        size = rt.comm_size()
        right = (ctx.rank + 1) % size
        left = (ctx.rank - 1) % size
        send = np.array([ctx.rank], dtype=np.int32)
        recv = np.zeros(1, dtype=np.int32)
        rt.sendrecv(send, 1, datatypes.INT, right, 7, recv, 1, datatypes.INT, left, 7)
        return int(recv[0])

    assert run_mpi_program(program, 4) == [3, 0, 1, 2]


def test_isend_irecv_wait():
    def program(rt, ctx):
        if ctx.rank == 0:
            req = rt.isend(np.array([42.5]), 1, datatypes.DOUBLE, dest=1, tag=8)
            rt.wait(req)
            return None
        buf = np.zeros(1)
        req = rt.irecv(buf, 1, datatypes.DOUBLE, source=0, tag=8)
        status = rt.wait(req)
        return (float(buf[0]), status.source)

    assert run_mpi_program(program, 2)[1] == (42.5, 0)


def test_waitall_completes_multiple_requests():
    def program(rt, ctx):
        if ctx.rank == 0:
            reqs = [
                rt.isend(np.array([i], dtype=np.int32), 1, datatypes.INT, dest=1, tag=i)
                for i in range(3)
            ]
            rt.waitall(reqs)
            return None
        bufs = [np.zeros(1, dtype=np.int32) for _ in range(3)]
        reqs = [rt.irecv(bufs[i], 1, datatypes.INT, source=0, tag=i) for i in range(3)]
        rt.waitall(reqs)
        return [int(b[0]) for b in bufs]

    assert run_mpi_program(program, 2)[1] == [0, 1, 2]


def test_iprobe_finds_buffered_message():
    def program(rt, ctx):
        if ctx.rank == 0:
            rt.send(np.array([9], dtype=np.int32), 1, datatypes.INT, dest=1, tag=4)
            rt.barrier()
            return None
        rt.barrier()
        found, status = rt.iprobe(source=0, tag=4)
        assert found and status.count_bytes == 4
        buf = np.zeros(1, dtype=np.int32)
        rt.recv(buf, 1, datatypes.INT, source=0, tag=4)
        found_after, _ = rt.iprobe(source=0, tag=4)
        return (found, found_after)

    assert run_mpi_program(program, 2)[1] == (True, False)


def test_wtime_is_monotone_and_processor_name_is_stable():
    def program(rt, ctx):
        t0 = rt.wtime()
        rt.barrier()
        t1 = rt.wtime()
        assert t1 >= t0
        name = rt.get_processor_name()
        assert "node" in name
        return name

    names = run_mpi_program(program, 4)
    assert len(set(names)) == 1  # 4 ranks on one Graviton2 node


# ------------------------------------------------- one span per public call


def _sendrecv_then_waitall(rt, ctx):
    peer = 1 - ctx.rank
    out, back = np.zeros(1, dtype=np.int32), np.zeros(2, dtype=np.int32)
    rt.sendrecv(np.array([ctx.rank], dtype=np.int32), 1, datatypes.INT, peer, 1,
                out, 1, datatypes.INT, peer, 1)
    requests = [rt.isend(np.full(2, ctx.rank + 5, dtype=np.int32), 2, datatypes.INT, peer, 2),
                rt.irecv(back, 2, datatypes.INT, peer, 2)]
    rt.waitall(requests)
    return int(out[0]), back.tolist()


def test_every_public_call_is_one_span():
    """``MPI_Sendrecv`` and ``MPI_Waitall`` wait through the runtime's
    untraced internals: at np 2 the trace holds exactly the 8 calls the
    program makes, not a nested ``MPI_Recv`` per Sendrecv and an
    ``MPI_Wait`` per waited request."""
    from collections import Counter

    from repro.obs.trace import tracing

    with tracing() as recorder:
        results = run_mpi_program(_sendrecv_then_waitall, 2)
    assert results == [(1, [6, 6]), (0, [5, 5])]
    spans = Counter(e["name"] for e in recorder.events() if e["name"].startswith("MPI_"))
    assert spans == {"MPI_Sendrecv": 2, "MPI_Isend": 2, "MPI_Irecv": 2, "MPI_Waitall": 2}


def test_kill_rank_counts_only_public_calls():
    """``kill_rank`` at the first ``MPI_Wait`` must not fire inside an
    ``MPI_Waitall`` (nor at the first ``MPI_Recv`` inside an ``MPI_Sendrecv``):
    the program below makes neither call, so the plan never fires."""
    from repro.fault import Fault, FaultPlan, inject_faults

    plan = FaultPlan(faults=(Fault(kind="kill_rank", rank=1, call="MPI_Wait", call_index=0),
                             Fault(kind="kill_rank", rank=0, call="MPI_Recv", call_index=0)))
    with inject_faults(plan) as active:
        assert run_mpi_program(_sendrecv_then_waitall, 2) == [(1, [6, 6]), (0, [5, 5])]
    assert active.fired == []
