"""The MPI hot path: one payload copy per hop, reductions in place.

* **Aliasing** -- a seeded Hypothesis property over all 8 collectives, as
  ``MPI_<C>`` and as ``MPI_I<c>`` + wait, at np {2, 5, 8}: the send and the
  receive buffer are the same object, or overlapping slices of one rank-local
  memory (the shape of guest linear memory).  Every rank's whole memory after
  the call must equal the memory before it with only the receive region
  replaced by a NumPy oracle of the call-time inputs.
* **In-place reduction** -- ``Op.reduce_bytes`` combines through a view of
  the accumulator; every predefined op x datatype must leave the same bytes
  as the copy-based formula it replaced, kept here as the reference.
* **Faults on the receive path** -- ``corrupt_message`` and ``drop_message``
  plans fired inside a ring ``MPI_Allreduce`` leave results and deadlock
  reports pinned to the values the copying receive path produced.
* **Copy guard** -- a 1 MiB ring allreduce at np 4 delivers every payload
  straight into a schedule buffer, stages in with one copy, and allocates
  nothing payload-sized beyond stage-in, schedule temporaries and the
  messages in flight.
* **Blocking price** -- ``MPI_Allreduce`` and ``MPI_Iallreduce`` + wait hand
  the execution token on equally often, and no more often than the blocking
  call did before it shared the non-blocking wait.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fault import Fault, FaultPlan, inject_faults  # noqa: E402
from repro.mpi import datatypes, ops  # noqa: E402
from repro.mpi.algorithms import registry  # noqa: E402
from repro.mpi.algorithms.schedule import ScheduleExecutor  # noqa: E402
from repro.mpi.pt2pt import MatchingEngine  # noqa: E402
from repro.sim.engine import DeadlockError, SimEngine  # noqa: E402
from repro.sim.machines import supermuc_ng  # noqa: E402
from tests.conftest import run_mpi_program  # noqa: E402

LONG = datatypes.LONG

#: Element-wise reference of every predefined op, independent of ``Op.fn``.
#: Integer arithmetic wraps, so every op here is exact in any combine order.
REFERENCE_OPS = {
    "MPI_SUM": lambda a, b: a + b,
    "MPI_PROD": lambda a, b: a * b,
    "MPI_MAX": np.maximum,
    "MPI_MIN": np.minimum,
    "MPI_LAND": lambda a, b: ((a != 0) & (b != 0)).astype(a.dtype),
    "MPI_LOR": lambda a, b: ((a != 0) | (b != 0)).astype(a.dtype),
    "MPI_LXOR": lambda a, b: ((a != 0) ^ (b != 0)).astype(a.dtype),
    "MPI_BAND": lambda a, b: a & b,
    "MPI_BOR": lambda a, b: a | b,
    "MPI_BXOR": lambda a, b: a ^ b,
}
assert set(REFERENCE_OPS) == set(ops.PREDEFINED)


# ------------------------------------------------------------------- aliasing


def _extents(collective: str, nranks: int, count: int, is_root: bool):
    """``(send elements, receive elements)`` one rank's call involves."""
    _src, in_bytes, _res, out_bytes = registry.CONTRACTS[collective].buffers(
        is_root, count * LONG.size, nranks)
    return in_bytes // LONG.size, out_bytes // LONG.size


def _expected(collective, rank, nranks, count, root, op, inputs):
    """The oracle: what ``rank``'s receive region holds after the call."""
    block = slice(rank * count, (rank + 1) * count)
    if collective == "bcast":
        return inputs[root]
    if collective in ("reduce", "allreduce"):
        return functools.reduce(REFERENCE_OPS[op.name], inputs)
    if collective in ("gather", "allgather"):
        return np.concatenate(inputs)
    if collective == "scatter":
        return inputs[root][block]
    if collective == "alltoall":
        return np.concatenate([inputs[src][block] for src in range(nranks)])
    raise KeyError(collective)  # pragma: no cover - barrier has no output


def _call(rt, collective, nonblocking, send, recv, count, op, root):
    name = ("i" if nonblocking else "") + collective
    fn = getattr(rt, name)
    if collective == "barrier":
        out = fn()
    elif collective == "bcast":
        out = fn(recv, count, LONG, root)
    elif collective in ("reduce", "allreduce"):
        args = (send, recv, count, LONG, op) + ((root,) if collective == "reduce" else ())
        out = fn(*args)
    elif collective in ("gather", "scatter"):
        out = fn(send, count, LONG, recv, count, LONG, root)
    else:
        out = fn(send, count, LONG, recv, count, LONG)
    if nonblocking:
        rt.wait(out)


@st.composite
def alias_draws(draw, collective):
    return (
        draw(st.sampled_from(("same", "overlap"))),
        draw(st.sampled_from(registry.algorithms_for(collective))),
        draw(st.integers(min_value=1, max_value=24)),
        draw(st.sampled_from(sorted(REFERENCE_OPS))),
        draw(st.integers(min_value=0, max_value=7)),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@pytest.mark.parametrize("nranks", [2, 5, 8])
@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
@pytest.mark.parametrize("collective", registry.COLLECTIVES)
def test_aliased_buffers_give_the_oracle_result(collective, nonblocking, nranks):
    @settings(max_examples=3, derandomize=True, deadline=None)
    @given(alias_draws(collective))
    def check(draw):
        alias, algorithm, count, op_name, root, seed = draw
        root %= nranks
        op = ops.PREDEFINED[op_name]
        rng = np.random.default_rng(seed)
        layout = {}
        for rank in range(nranks):
            n_in, n_out = _extents(collective, nranks, count, rank == root)
            memory = rng.integers(-99, 100, size=n_in + 2 * n_out + 1, dtype=np.int64)
            if alias == "same":
                send_at = recv_at = 0
            else:
                # A shift that makes [send_at, +n_in) and [recv_at, +n_out)
                # overlap whenever both regions are non-empty.
                span = max(n_in + n_out - 1, 1)
                send_at = n_out
                recv_at = send_at - max(n_out - 1, 0) + seed % span
            layout[rank] = (memory, n_in, n_out, send_at, recv_at)
        if collective == "bcast":
            # One buffer, input at the root and output everywhere.
            inputs = [layout[r][0][layout[r][4]:layout[r][4] + count].copy() for r in range(nranks)]
        else:
            inputs = [m[s:s + n_in].copy() for m, n_in, _n, s, _r in layout.values()]

        def program(rt, ctx):
            rt.world.collectives.force(collective, algorithm)
            memory, n_in, n_out, send_at, recv_at = layout[ctx.rank]
            if alias == "same":
                send = recv = memory[:max(n_in, n_out, 1)]
            else:
                send = memory[send_at:send_at + n_in] if n_in else None
                recv = memory[recv_at:recv_at + n_out] if n_out else None
            _call(rt, collective, nonblocking, send, recv, count, op, root)
            return memory

        before = {rank: layout[rank][0].copy() for rank in range(nranks)}
        results = run_mpi_program(program, nranks)
        for rank, after in enumerate(results):
            expected = before[rank].copy()
            _m, _n_in, n_out, _s, recv_at = layout[rank]
            if n_out and collective != "barrier":
                expected[recv_at:recv_at + n_out] = _expected(
                    collective, rank, nranks, count, root, op, inputs)
            np.testing.assert_array_equal(after, expected, err_msg=f"rank {rank}")

    check()


# ------------------------------------------------------- in-place reductions


def _copying_reduce_bytes(op, acc, contribution, datatype, count):
    """The copy-based ``reduce_bytes`` the in-place one replaced."""
    dt = datatype.numpy()
    nbytes = count * datatype.size
    a = np.frombuffer(memoryview(acc)[:nbytes], dtype=dt).copy()
    b = np.frombuffer(memoryview(contribution)[:nbytes], dtype=dt)
    result = REFERENCE_OPS[op.name](a, b)
    memoryview(acc)[:nbytes] = result.astype(dt, copy=False).tobytes()


@pytest.mark.parametrize("datatype", sorted(datatypes.PREDEFINED.values(), key=lambda d: d.name),
                         ids=lambda d: d.name)
@settings(max_examples=8, derandomize=True, deadline=None)
@given(count=st.integers(min_value=0, max_value=17),
       data=st.binary(min_size=2 * 17 * 16 + 8, max_size=2 * 17 * 16 + 8))
def test_in_place_reduction_matches_the_copying_formula(datatype, count, data):
    half = len(data) // 2
    for op in ops.PREDEFINED.values():
        acc, contribution = bytearray(data[:half]), data[half:]
        expected = bytearray(acc)
        with np.errstate(all="ignore"):
            try:
                _copying_reduce_bytes(op, expected, contribution, datatype, count)
            except TypeError as exc:  # a bitwise op on a floating-point datatype
                with pytest.raises(type(exc)):
                    op.reduce_bytes(memoryview(acc), contribution, datatype, count)
                continue
            op.reduce_bytes(memoryview(acc), contribution, datatype, count)
        assert acc == expected, op.name  # bytes past ``count`` elements untouched, too


# ------------------------------------------------------- faults on the receive path

#: ``(sha256 prefix of every rank's result, makespan)`` and the deadlock
#: report of a ring ``MPI_Allreduce`` of 64 KiB at np 4 under the plans below,
#: as produced by the copying receive path this module guards.
CORRUPTED_RESULT = "41583e944bbb2311"
RING_MAKESPAN = 1.321425391304348e-05
#: One report for both modes: ``MPI_Wait`` blocks in the same receive wait.
DROPPED_REPORT = (
    "simulation deadlocked; blocked: rank 0 (recv src=3 tag=24117251 ctx=0), "
    "rank 1 (recv src=0 tag=24117252 ctx=0), rank 2 (recv src=1 tag=24117249 ctx=0), "
    "rank 3 (recv src=2 tag=24117250 ctx=0)"
)
DROPPED_CLOCKS = [7.67016695652174e-06, 9.544862608695654e-06, 2.610055652173913e-06,
                  5.140111304347827e-06]


def _ring_allreduce(nonblocking: bool):
    count = 8192  # 64 KiB of doubles

    def program(rt, ctx):
        rt.world.collectives.force("allreduce", "ring")
        send = np.arange(count, dtype=np.float64) * (ctx.rank + 1) + 0.25 * ctx.rank
        recv = np.zeros(count)
        if nonblocking:
            rt.wait(rt.iallreduce(send, recv, count, datatypes.DOUBLE, ops.SUM))
        else:
            rt.allreduce(send, recv, count, datatypes.DOUBLE, ops.SUM)
        return hashlib.sha256(recv.tobytes()).hexdigest()[:16], ctx.now

    return program


@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
def test_corrupted_hop_inside_ring_allreduce_is_pinned(nonblocking):
    plan = FaultPlan(faults=(Fault(kind="corrupt_message", src=1, dst=2, match_index=1),), seed=11)
    with inject_faults(plan) as active:
        results = run_mpi_program(_ring_allreduce(nonblocking), 4)
    assert [event["nbytes"] for event in active.fired] == [16384]
    assert results == [(CORRUPTED_RESULT, RING_MAKESPAN)] * 4


@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
def test_dropped_hop_inside_ring_allreduce_deadlocks_as_pinned(nonblocking):
    plan = FaultPlan(faults=(Fault(kind="drop_message", src=1, dst=2, match_index=1),), seed=11)
    with inject_faults(plan):
        with pytest.raises(DeadlockError) as excinfo:
            run_mpi_program(_ring_allreduce(nonblocking), 4)
    assert str(excinfo.value) == DROPPED_REPORT
    assert excinfo.value.rank_clocks == DROPPED_CLOCKS


# ----------------------------------------------------------------- copy guard

MIB = 1 << 20
#: Slack for everything that is not payload (records, views, metric series):
#: half of one 256 KiB hop of the guarded allreduce.
SLACK = 128 * 1024


def test_every_hop_is_delivered_straight_into_a_schedule_buffer(monkeypatch):
    """1 MiB ring allreduce at np 4: each delivery writes into a view of a
    schedule buffer (no per-receive scratch, no ``bytes`` copy of it), and
    the peak allocation is bounded by stage-in + temporaries + the messages
    in flight -- no reduction temporaries, no second stage-in copy."""
    schedule_buffers, sinks, staged = {}, [], []
    in_flight = {"now": 0, "max": 0}  # payload bytes sent and not yet delivered
    original_init = ScheduleExecutor.__init__
    original_post, original_consume = MatchingEngine.post_send, MatchingEngine._consume

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        schedule_buffers.update({id(buf): buf for buf in self.buffers.values()})
        staged.append(sum(len(buf) for buf in self.buffers.values()))

    def post_send(self, *args, **kwargs):
        msg = original_post(self, *args, **kwargs)
        in_flight["now"] += len(msg.data)
        in_flight["max"] = max(in_flight["max"], in_flight["now"])
        return msg

    def consume(self, ctx, msg, buffer, *args, **kwargs):
        if msg.data:
            sinks.append(buffer)
        try:
            return original_consume(self, ctx, msg, buffer, *args, **kwargs)
        finally:
            in_flight["now"] -= len(msg.data)

    monkeypatch.setattr(ScheduleExecutor, "__init__", init)
    monkeypatch.setattr(MatchingEngine, "post_send", post_send)
    monkeypatch.setattr(MatchingEngine, "_consume", consume)
    count, peak = MIB // 8, {}
    buffers = {rank: (np.full(count, rank + 1.0), np.zeros(count)) for rank in range(4)}

    def program(rt, ctx):
        rt.world.collectives.force("allreduce", "ring")
        rt.barrier()
        if ctx.rank == 0:
            tracemalloc.start()
        rt.barrier()
        rt.allreduce(*buffers[ctx.rank], count, datatypes.DOUBLE, ops.SUM)
        rt.barrier()
        if ctx.rank == 0:
            peak["bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return float(buffers[ctx.rank][1][0])

    assert run_mpi_program(program, 4) == [10.0] * 4
    # Two ring phases of p - 1 hops per rank, 256 KiB each.
    assert len(sinks) == 4 * 2 * 3
    assert all(isinstance(view, memoryview) and view.obj is schedule_buffers.get(id(view.obj))
               for view in sinks)
    assert peak["bytes"] <= sum(staged) + in_flight["max"] + SLACK


@pytest.mark.parametrize("op", list(ops.PREDEFINED.values()), ids=lambda o: o.name)
def test_ufunc_reductions_allocate_no_temporaries(op):
    acc, contribution = bytearray(MIB), bytes(MIB)
    tracemalloc.start()
    try:
        op.reduce_bytes(memoryview(acc), contribution, datatypes.LONG, MIB // 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SLACK


def test_a_job_that_raises_leaves_no_runtime_behind():
    """The per-communicator ``CollectiveContext`` a runtime caches must not
    refer back to it: with the cyclic GC off, a job that deadlocks after a
    collective (so no rank reaches ``MPI_Finalize``) frees every runtime."""
    runtimes = []

    def program(rt, ctx):
        runtimes.append(weakref.ref(rt))
        rt.allreduce(np.ones(4), np.zeros(4), 4, datatypes.DOUBLE, ops.SUM)
        rt.recv(np.zeros(1), 1, datatypes.DOUBLE, (ctx.rank + 1) % 4, 5)  # never sent

    gc.collect()
    gc.disable()
    try:
        with pytest.raises(DeadlockError):
            run_mpi_program(program, 4)
        assert len(runtimes) == 4
        assert [ref() for ref in runtimes] == [None] * 4
    finally:
        gc.enable()


def test_stage_in_copies_the_send_buffer_once():
    """np 1 allreduce: the schedule buffer is the only payload-sized
    allocation (the send buffer is copied into it, and out of it again)."""
    send, recv, peak = np.ones(MIB // 8), np.zeros(MIB // 8), {}

    def program(rt, ctx):
        tracemalloc.start()
        try:
            rt.allreduce(send, recv, MIB // 8, datatypes.DOUBLE, ops.SUM)
            peak["bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_mpi_program(program, 1)
    assert recv.tolist() == send.tolist()
    assert peak["bytes"] <= MIB + SLACK


# ------------------------------------------------------------ the blocking price

#: Engine entries (``SimEngine.yield_rank`` + ``SimEngine.block``) of the
#: loop below as ``MPI_Allreduce``: one per stall, each a single block.
ALLREDUCE_ENGINE_ENTRIES = 360


def test_blocking_and_nonblocking_allreduce_yield_equally(monkeypatch):
    """30 allreduces of 16 doubles at np 8: ``MPI_Iallreduce`` + ``MPI_Wait``
    enters the engine exactly as often as ``MPI_Allreduce``, which enters it
    no more often than pinned.  Engine entries are the host cost of a wait,
    and unlike wall time they are counted exactly."""
    yields = [0]
    yield_rank, block = SimEngine.yield_rank, SimEngine.block

    def counting(entry):
        def count(*args, **kwargs):
            yields[0] += 1
            return entry(*args, **kwargs)
        return count

    monkeypatch.setattr(SimEngine, "yield_rank", counting(yield_rank))
    monkeypatch.setattr(SimEngine, "block", counting(block))

    def measure(nonblocking: bool):
        def program(rt, ctx):
            send, recv = np.full(16, ctx.rank + 1.0), np.zeros(16)
            for _ in range(30):
                if nonblocking:
                    rt.wait(rt.iallreduce(send, recv, 16, datatypes.DOUBLE, ops.SUM))
                else:
                    rt.allreduce(send, recv, 16, datatypes.DOUBLE, ops.SUM)
            return ctx.now

        yields[0] = 0
        clocks = run_mpi_program(program, 8, machine=supermuc_ng())
        return yields[0], clocks

    blocking, clocks = measure(False)
    assert measure(True) == (blocking, clocks)
    assert blocking <= ALLREDUCE_ENGINE_ENTRIES
