"""Regression tests for the request state machine and progress engine.

Covers the two request-layer bugs this layer was rebuilt around:

* ``wait``/``test`` on an ``MPI_Isend`` never drained the posted message, so
  a rendezvous send was never synchronised with the receiver's virtual clock
  (the way ``sendrecv`` synchronises);
* ``waitany``'s blocking wait once blocked on ``active[0]`` unconditionally,
  deadlocking (or returning the wrong index) when a *different* request was
  the one that could complete.

Plus the progress-engine property those fixes rest on: any outstanding
request advances whenever the rank sits in a ``test``/``wait``-family call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes, ops
from repro.mpi.status import Request
from repro.sim.engine import DeadlockError
from tests.conftest import run_mpi_program

#: Any payload larger than the shared-memory transport's eager threshold
#: (64 KiB on the graviton2 preset) takes the rendezvous protocol.
RENDEZVOUS_BYTES = 128 * 1024


# ------------------------------------------------------------- isend draining


def test_wait_on_rendezvous_isend_synchronises_with_receiver_clock():
    """A rendezvous isend's wait must block until the receiver drains the
    message and advance the sender's clock to the consumption time -- the
    same synchronisation ``sendrecv`` performs (previously wait returned
    immediately and the send was never drained)."""
    delay = 0.01

    def program(rt, ctx):
        if ctx.rank == 0:
            data = np.arange(RENDEZVOUS_BYTES, dtype=np.uint8)
            req = rt.isend(data, RENDEZVOUS_BYTES, datatypes.BYTE, 1, 7)
            status = rt.wait(req)
            return (rt.wtime(), status.count_bytes)
        ctx.advance(delay)  # the receiver shows up late
        buf = np.zeros(RENDEZVOUS_BYTES, dtype=np.uint8)
        rt.recv(buf, RENDEZVOUS_BYTES, datatypes.BYTE, 0, 7)
        return buf[:4].tolist()

    results = run_mpi_program(program, 2)
    sender_time, count_bytes = results[0]
    assert count_bytes == RENDEZVOUS_BYTES
    # The sender cannot have left the wait before the late receiver consumed.
    assert sender_time >= delay
    assert results[1] == [0, 1, 2, 3]


def test_test_on_rendezvous_isend_false_until_drained():
    """``MPI_Test`` on a rendezvous isend reports False until the receiver
    consumes the message, then completes with the send status."""

    def program(rt, ctx):
        if ctx.rank == 0:
            data = np.full(RENDEZVOUS_BYTES, 5, dtype=np.uint8)
            req = rt.isend(data, RENDEZVOUS_BYTES, datatypes.BYTE, 1, 3)
            # Rank 1 cannot have consumed yet: its recv is gated on our token.
            flag_before, _ = rt.test(req)
            rt.send(np.ones(1, dtype=np.uint8), 1, datatypes.BYTE, 1, 98)
            ack = np.zeros(1, dtype=np.uint8)
            rt.recv(ack, 1, datatypes.BYTE, 1, 99)
            flag_after, status = rt.test(req)
            return (flag_before, flag_after, status.count_bytes)
        token = np.zeros(1, dtype=np.uint8)
        rt.recv(token, 1, datatypes.BYTE, 0, 98)
        buf = np.zeros(RENDEZVOUS_BYTES, dtype=np.uint8)
        rt.recv(buf, RENDEZVOUS_BYTES, datatypes.BYTE, 0, 3)
        rt.send(np.ones(1, dtype=np.uint8), 1, datatypes.BYTE, 0, 99)
        return None

    flag_before, flag_after, count_bytes = run_mpi_program(program, 2)[0]
    assert flag_before is False
    assert flag_after is True
    assert count_bytes == RENDEZVOUS_BYTES


def test_wait_on_eager_isend_does_not_block():
    """An eager (below-threshold) isend is buffered at post time: its wait
    completes immediately, well before the receiver even posts the recv."""
    delay = 0.05

    def program(rt, ctx):
        if ctx.rank == 0:
            req = rt.isend(np.arange(4, dtype=np.int32), 4, datatypes.INT, 1, 5)
            status = rt.wait(req)
            return (rt.wtime(), status.count_bytes)
        ctx.advance(delay)
        buf = np.zeros(4, dtype=np.int32)
        rt.recv(buf, 4, datatypes.INT, 0, 5)
        return buf.tolist()

    results = run_mpi_program(program, 2)
    sender_time, count_bytes = results[0]
    assert count_bytes == 16
    assert sender_time < delay / 2  # nowhere near the receiver's late recv
    assert results[1] == [0, 1, 2, 3]


# ------------------------------------------------------------- waitany blocking


def test_waitany_fallback_unblocks_on_any_request():
    """waitany must block on progress of *any* active request: request 0's
    sender is gated on waitany returning first, so only request 1 (whose
    sender shows up late) can complete.  Blocking on request 0
    unconditionally -- as waitany once did -- is a deadlock."""
    late = 0.01

    def program(rt, ctx):
        if ctx.rank == 0:
            buf1 = np.zeros(4, dtype=np.int32)
            buf2 = np.zeros(4, dtype=np.int32)
            requests = [
                rt.irecv(buf1, 4, datatypes.INT, 1, 11),
                rt.irecv(buf2, 4, datatypes.INT, 2, 22),
            ]
            first, status = rt.waitany(requests)
            requests[first] = Request.null()
            # Only now release rank 1, whose send satisfies request 0.
            rt.send(np.zeros(1, dtype=np.int32), 1, datatypes.INT, 1, 99)
            second, _ = rt.waitany(requests)
            return (first, second, status.source, buf1.tolist(), buf2.tolist())
        if ctx.rank == 1:
            token = np.zeros(1, dtype=np.int32)
            rt.recv(token, 1, datatypes.INT, 0, 99)
            rt.send(np.full(4, 10, dtype=np.int32), 4, datatypes.INT, 0, 11)
        else:
            ctx.advance(late)  # the only completable sender arrives late
            rt.send(np.full(4, 20, dtype=np.int32), 4, datatypes.INT, 0, 22)
        return None

    first, second, source_first, buf1, buf2 = run_mpi_program(program, 3)[0]
    assert first == 1, "waitany returned a request that could not have completed"
    assert source_first == 2
    assert second == 0
    assert buf1 == [10] * 4
    assert buf2 == [20] * 4


def test_waitany_genuine_deadlock_still_detected():
    """When *no* request can ever complete, waitany must block (so the
    engine's deadlock detection fires) instead of spinning forever."""

    def program(rt, ctx):
        if ctx.rank == 0:
            buf = np.zeros(1, dtype=np.int32)
            req = rt.irecv(buf, 1, datatypes.INT, 1, 5)
            rt.waitany([req])  # rank 1 never sends
        else:
            buf = np.zeros(1, dtype=np.int32)
            rt.recv(buf, 1, datatypes.INT, 0, 6)  # rank 0 never sends
        return None

    with pytest.raises(DeadlockError):
        run_mpi_program(program, 2)


# -------------------------------------------------------------- progress engine


def test_wait_on_unrelated_request_advances_stalled_sibling_collective():
    """Weak progress across requests: while rank 0 waits on an irecv, its
    outstanding iallreduce -- stalled on a data-dependent step that only time
    can unblock -- must still advance and post its later-round sends, or the
    peers (and hence the irecv's sender) never finish their own collectives."""
    count = 2048  # 16 KiB of doubles: eager messages, no rendezvous wakes

    def program(rt, ctx):
        if ctx.rank == 0:
            # Post late: the round-1 partner message is then already buffered
            # with an arrival still in the future, so consuming it at post
            # time leaves the schedule stalled on its data-dependent step.
            ctx.advance(2e-7)
            ctx.yield_turn()
        send = np.full(count, float(ctx.rank + 1), dtype=np.float64)
        recv = np.zeros(count, dtype=np.float64)
        coll_req = rt.iallreduce(send, recv, count, datatypes.DOUBLE, ops.SUM)
        if ctx.rank == 0:
            token = np.zeros(1, dtype=np.uint8)
            token_req = rt.irecv(token, 1, datatypes.BYTE, 2, 77)
            rt.wait(token_req)  # rank 2 sends only after its collective
            rt.wait(coll_req)
        else:
            rt.wait(coll_req)
            if ctx.rank == 2:
                rt.send(np.ones(1, dtype=np.uint8), 1, datatypes.BYTE, 0, 77)
        return recv.tolist()

    results = run_mpi_program(program, 4)
    expected = [float(sum(range(1, 5)))] * count
    assert all(r == expected for r in results)


def test_wait_on_one_request_progresses_other_outstanding_requests():
    """While blocked in wait(B), the progress engine must keep consuming
    messages for the sibling request A as they arrive."""

    def program(rt, ctx):
        if ctx.rank == 0:
            buf_a = np.zeros(4, dtype=np.int32)
            buf_b = np.zeros(4, dtype=np.int32)
            req_a = rt.irecv(buf_a, 4, datatypes.INT, 1, 1)
            req_b = rt.irecv(buf_b, 4, datatypes.INT, 2, 2)
            rt.wait(req_b)  # A's message arrives while we wait on B
            flag, status = rt.test(req_a)
            return (flag, status.count_bytes, buf_a.tolist(), buf_b.tolist())
        if ctx.rank == 1:
            rt.send(np.full(4, 10, dtype=np.int32), 4, datatypes.INT, 0, 1)
        else:
            ctx.advance(0.01)  # B's sender is the late one
            rt.send(np.full(4, 20, dtype=np.int32), 4, datatypes.INT, 0, 2)
        return None

    flag, count_bytes, buf_a, buf_b = run_mpi_program(program, 3)[0]
    assert flag is True
    assert count_bytes == 16
    assert buf_a == [10] * 4
    assert buf_b == [20] * 4


def test_receive_behind_a_blocked_sender_completes_at_its_true_arrival():
    """Rank 0 receives from rank 1, which first waits for a message from the
    slow rank 2, while rank 0's own ibcast has a later, time-only completion
    (its payload is still in flight).  The receive completes when rank 1's
    message arrives -- not at the sibling schedule's completion, which a
    wait that jumped to its earliest watched completion would stamp it with
    because rank 1 cannot post before rank 2 runs."""
    sibling_bytes = 32 * 1024  # eager, and long in flight at 3 ranks on one node

    def program(rt, ctx):
        rt.world.collectives.force("bcast", "binomial")
        if ctx.rank != 2:
            # Let the root post the ibcast first, so ranks 0 and 1 consume
            # its payload at post time and only its arrival is outstanding.
            ctx.advance(1e-8)
            ctx.yield_turn()
        sibling = rt.ibcast(np.zeros(sibling_bytes, dtype=np.uint8), sibling_bytes,
                            datatypes.BYTE, 2)
        token, out = np.zeros(1, dtype=np.uint8), {}
        if ctx.rank == 2:
            ctx.advance(2e-7)
            ctx.yield_turn()  # behind ranks 0 and 1, which block
            rt.send(token, 1, datatypes.BYTE, 1, 1)
        elif ctx.rank == 1:
            rt.recv(token, 1, datatypes.BYTE, 2, 1)
            rt.send(token, 1, datatypes.BYTE, 0, 2)
            out["sent"] = ctx.now
        else:
            rt.recv(token, 1, datatypes.BYTE, 1, 2)
            out["received"] = ctx.now
            transport = rt.world.cluster.transport(1, 0)
            out["transfer"] = transport.transfer_time(1)
            out["overhead"] = transport.recv_overhead(1)
        rt.wait(sibling)
        out["sibling_done"] = ctx.now
        return out

    receiver, sender, _root = run_mpi_program(program, 3)
    assert receiver["received"] < receiver["sibling_done"]
    assert sender["sent"] < sender["sibling_done"]  # nor was its sender's receive
    assert receiver["overhead"] < receiver["transfer"]  # overlapped by the transfer
    assert receiver["received"] == sender["sent"] + receiver["transfer"]


# ------------------------------------------------- blocking pt2pt is the wait

#: 1 MiB: rendezvous on every transport preset.
MIB = 1 << 20


def _send_beside_a_late_ibcast(nonblocking: bool):
    """np 4: every rank posts an ``MPI_Ibcast`` whose root is late; rank 2
    then sends 1 MiB to rank 3, which waits for the ibcast before receiving."""

    def program(rt, ctx):
        if ctx.rank == 0:
            ctx.advance(1e-3)  # the late root
        word = np.full(4, ctx.rank, dtype=np.int64)
        bcast = rt.ibcast(word, 4, datatypes.LONG, 0)
        payload = np.zeros(MIB, dtype=np.uint8)
        if ctx.rank == 2:
            payload[:] = 7
            if nonblocking:
                rt.wait(rt.isend(payload, MIB, datatypes.BYTE, 3, 1))
            else:
                rt.send(payload, MIB, datatypes.BYTE, 3, 1)
        rt.wait(bcast)
        if ctx.rank == 3:
            rt.recv(payload, MIB, datatypes.BYTE, 2, 1)
        return ctx.now, word.tolist(), int(payload.sum())

    return program


def test_rendezvous_send_keeps_outstanding_requests_moving():
    """A rendezvous ``MPI_Send`` waits in the one wait, so rank 2's ibcast
    keeps advancing while it waits for rank 3's drain -- rank 3 can only
    drain after that ibcast completes.  The send used to block on the drain
    alone, and the job deadlocked."""
    blocking = run_mpi_program(_send_beside_a_late_ibcast(False), 4)
    assert blocking == run_mpi_program(_send_beside_a_late_ibcast(True), 4)
    assert [words for _t, words, _s in blocking] == [[0] * 4] * 4
    assert blocking[3][2] == 7 * MIB


def _pt2pt_rounds(send_mode: str, recv_mode: str, nbytes: int, with_ibcast: bool):
    """Every rank sends to rank 0 (after a rank-dependent compute), then rank 0
    answers each; sends and receives use the given modes."""

    def send(rt, buf, dest, tag):
        if send_mode == "blocking":
            rt.send(buf, nbytes, datatypes.BYTE, dest, tag)
        else:
            rt.wait(rt.isend(buf, nbytes, datatypes.BYTE, dest, tag))

    def recv(rt, buf, source, tag):
        if recv_mode == "blocking":
            return rt.recv(buf, nbytes, datatypes.BYTE, source, tag)
        return rt.wait(rt.irecv(buf, nbytes, datatypes.BYTE, source, tag))

    def program(rt, ctx):
        size = rt.comm_size()
        word = np.full(2, ctx.rank, dtype=np.int64)
        bcast = rt.ibcast(word, 2, datatypes.LONG, size - 1) if with_ibcast else None
        mine = np.full(nbytes, ctx.rank + 1, dtype=np.uint8)
        got, statuses = [], []
        if ctx.rank == 0:
            for peer in range(1, size):
                buf = np.zeros(nbytes, dtype=np.uint8)
                status = recv(rt, buf, peer, 1)
                got.append(bytes(buf))
                statuses.append((status.source, status.tag, status.count_bytes))
            for peer in range(1, size):
                send(rt, mine, peer, 2)
        else:
            ctx.advance(ctx.rank * 3e-7)
            send(rt, mine, 0, 1)
            buf = np.zeros(nbytes, dtype=np.uint8)
            status = recv(rt, buf, 0, 2)
            got.append(bytes(buf))
            statuses.append((status.source, status.tag, status.count_bytes))
        if bcast is not None:
            rt.wait(bcast)
        return ctx.now, got, statuses, word.tolist()

    return program


#: An eager and a rendezvous size (the graviton2 eager limit is 64 KiB).
PT2PT_SIZES = [1024, RENDEZVOUS_BYTES]


@pytest.mark.parametrize("nbytes", PT2PT_SIZES, ids=["eager", "rendezvous"])
@pytest.mark.parametrize("nranks", range(2, 9))
@pytest.mark.parametrize("with_ibcast", [False, True], ids=["alone", "beside-ibcast"])
def test_send_is_isend_plus_wait(with_ibcast, nranks, nbytes):
    blocking = run_mpi_program(_pt2pt_rounds("blocking", "blocking", nbytes, with_ibcast), nranks)
    assert blocking == run_mpi_program(
        _pt2pt_rounds("nonblocking", "blocking", nbytes, with_ibcast), nranks)
    assert blocking[0][1] == [bytes([peer + 1]) * nbytes for peer in range(1, nranks)]


@pytest.mark.parametrize("nbytes", PT2PT_SIZES, ids=["eager", "rendezvous"])
@pytest.mark.parametrize("nranks", range(2, 9))
def test_recv_is_irecv_plus_wait(nranks, nbytes):
    blocking = run_mpi_program(_pt2pt_rounds("blocking", "blocking", nbytes, False), nranks)
    assert blocking == run_mpi_program(
        _pt2pt_rounds("blocking", "nonblocking", nbytes, False), nranks)
    assert all(got == [bytes([1]) * nbytes] for _t, got, _s, _w in blocking[1:])
