"""Seeded property-based tests over the MPI layer.

The conformance properties below, checked on randomized draws with Hypothesis in
``derandomize`` mode (the shrink-friendly equivalent of a fixed seed, so CI
runs are reproducible):

* **Collective/oracle agreement** -- for random (algorithm x nranks x dtype x
  count) draws, every registered algorithm of every collective in
  ``repro.mpi.algorithms`` must agree *bit-for-bit* with a plain NumPy oracle
  computed outside the simulator.  Reduction draws use order-insensitive
  (op, dtype) pairs only, exactly as in real MPI libraries: different
  algorithms combine contributions in different orders and floating-point
  addition is not associative.
* **Point-to-point non-overtaking** -- for a random sequence of tagged sends
  from one rank and a random sequence of receive patterns (specific tag or
  ``ANY_TAG``) on the other, every receive must deliver the *earliest-sent*
  buffered message matching its pattern (MPI-3.1 §3.5 ordering).
* **Non-blocking/blocking agreement** -- for random (algorithm x nranks x
  dtype x count) draws (including ``count == 0``) and either completion order
  (immediate ``test`` polling or ``wait``), every non-blocking collective
  must agree *bit-for-bit* with the same NumPy oracle as its blocking
  counterpart.
* **Blocking/non-blocking virtual time** -- for random (algorithm x nranks
  2-12 x payload x root x ranks per node) draws of two back-to-back calls,
  ``MPI_<C>`` and ``MPI_I<c>`` + ``MPI_Wait`` leave every rank's final clock
  ``==``: one schedule loop prices both.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.mpi import datatypes, ops  # noqa: E402
from repro.mpi.algorithms import registry  # noqa: E402
from repro.mpi.algorithms import schedule as schedules  # noqa: E402
from repro.mpi.runtime import MPIRuntime, MPIWorld  # noqa: E402
from repro.sim.cluster import Cluster  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.sim.machines import graviton2, supermuc_ng  # noqa: E402
from tests.conftest import ALGORITHMS, collective_args  # noqa: E402

#: Fixed-seed mode: every example sequence is derived deterministically from
#: the test function, never from entropy -- what the CI main job relies on.
PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)

#: (MPI datatype, NumPy dtype) pairs the draws sample.
DTYPES = (
    (datatypes.BYTE, np.uint8),
    (datatypes.INT, np.int32),
    (datatypes.LONG, np.int64),
    (datatypes.DOUBLE, np.float64),
)

#: Order-insensitive reduction ops per dtype kind (float SUM is excluded:
#: its result legitimately depends on the combine order).
INT_OPS = (ops.SUM, ops.MIN, ops.MAX, ops.BAND, ops.BOR, ops.BXOR)
FLOAT_OPS = (ops.MIN, ops.MAX)


def _run_ranks(program, nranks: int, forced=None):
    """Run ``program(runtime, ctx)`` on every rank of a fresh simulation."""
    preset = graviton2()
    cluster = Cluster(preset, nranks, min(nranks, preset.cores_per_node))
    engine = SimEngine(nranks)
    world = MPIWorld.install(cluster, engine)
    if forced:
        world.collectives.force_many(forced)

    def make(rank):
        def rank_main(ctx):
            runtime = MPIRuntime(world, ctx)
            runtime.init()
            result = program(runtime, ctx)
            runtime.finalize()
            return result

        return rank_main

    engine.spawn_all(make)
    return engine.run()


def _rand_inputs(rng, nranks, count, npdtype):
    if np.issubdtype(npdtype, np.floating):
        return [rng.integers(-999, 999, size=count).astype(npdtype) for _ in range(nranks)]
    info = np.iinfo(npdtype)
    lo, hi = max(info.min, -1000), min(info.max, 1000)
    return [rng.integers(lo, hi + 1, size=count, dtype=npdtype) for _ in range(nranks)]


def _oracle_reduce(inputs, op, npdtype):
    acc = inputs[0].copy()
    for contribution in inputs[1:]:
        acc = op.apply(acc, contribution).astype(npdtype)
    return acc


# --------------------------------------------------- collectives vs the oracle


@st.composite
def collective_draws(draw):
    collective = draw(st.sampled_from(registry.COLLECTIVES))
    algorithm = draw(st.sampled_from(registry.algorithms_for(collective)))
    nranks = draw(st.integers(min_value=2, max_value=7))
    dtype, npdtype = draw(st.sampled_from(DTYPES))
    if collective in ("reduce", "allreduce"):
        count = draw(st.integers(min_value=0, max_value=70))
        op_pool = FLOAT_OPS if np.issubdtype(npdtype, np.floating) else INT_OPS
        op = draw(st.sampled_from(op_pool))
    else:
        count = draw(st.integers(min_value=1, max_value=70))
        op = None
    root = draw(st.integers(min_value=0, max_value=nranks - 1))
    data_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return collective, algorithm, nranks, dtype, npdtype, count, op, root, data_seed


@PROPERTY_SETTINGS
@given(collective_draws())
def test_collectives_agree_with_numpy_oracle(params):
    collective, algorithm, nranks, dtype, npdtype, count, op, root, data_seed = params
    rng = np.random.default_rng(data_seed)
    forced = {collective: algorithm}

    if collective == "barrier":
        def program(rt, ctx):
            ctx.advance(0.001 * (ctx.rank + 1))
            rt.barrier()
            return rt.wtime()

        times = _run_ranks(program, nranks, forced)
        # Oracle: nobody leaves the barrier before the slowest entrant joined.
        assert min(times) >= 0.001 * nranks
        return

    inputs = _rand_inputs(rng, nranks, count, npdtype)

    if collective == "bcast":
        expected = inputs[root].tobytes()

        def program(rt, ctx):
            buf = inputs[ctx.rank].copy() if ctx.rank == root else np.zeros(count, dtype=npdtype)
            rt.bcast(buf, count, dtype, root=root)
            return buf.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "reduce":
        expected = _oracle_reduce(inputs, op, npdtype).tobytes()

        def program(rt, ctx):
            recv = np.zeros(count, dtype=npdtype) if ctx.rank == root else None
            rt.reduce(inputs[ctx.rank].copy(), recv, count, dtype, op, root=root)
            return recv.tobytes() if ctx.rank == root else None

        results = _run_ranks(program, nranks, forced)
        assert results[root] == expected

    elif collective == "allreduce":
        expected = _oracle_reduce(inputs, op, npdtype).tobytes()

        def program(rt, ctx):
            recv = np.zeros(count, dtype=npdtype)
            rt.allreduce(inputs[ctx.rank].copy(), recv, count, dtype, op)
            return recv.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "gather":
        expected = b"".join(block.tobytes() for block in inputs)

        def program(rt, ctx):
            recv = np.zeros(count * nranks, dtype=npdtype) if ctx.rank == root else None
            rt.gather(inputs[ctx.rank].copy(), count, dtype, recv, count, dtype, root=root)
            return recv.tobytes() if ctx.rank == root else None

        results = _run_ranks(program, nranks, forced)
        assert results[root] == expected

    elif collective == "scatter":
        flat = np.concatenate(inputs)

        def program(rt, ctx):
            send = flat.copy() if ctx.rank == root else None
            recv = np.zeros(count, dtype=npdtype)
            rt.scatter(send, count, dtype, recv, count, dtype, root=root)
            return recv.tobytes()

        results = _run_ranks(program, nranks, forced)
        for rank, received in enumerate(results):
            assert received == inputs[rank].tobytes()

    elif collective == "allgather":
        expected = b"".join(block.tobytes() for block in inputs)

        def program(rt, ctx):
            recv = np.zeros(count * nranks, dtype=npdtype)
            rt.allgather(inputs[ctx.rank].copy(), count, dtype, recv, count, dtype)
            return recv.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "alltoall":
        matrix = _rand_inputs(rng, nranks, count * nranks, npdtype)

        def program(rt, ctx):
            recv = np.zeros(count * nranks, dtype=npdtype)
            rt.alltoall(matrix[ctx.rank].copy(), count, dtype, recv, count, dtype)
            return recv.tobytes()

        results = _run_ranks(program, nranks, forced)
        for rank, received in enumerate(results):
            expected = b"".join(
                matrix[src][rank * count : (rank + 1) * count].tobytes() for src in range(nranks)
            )
            assert received == expected

    else:  # pragma: no cover - keeps the draw space and dispatch in sync
        pytest.fail(f"collective {collective!r} not covered by the oracle")


# --------------------------------------- non-blocking collectives vs the oracle

#: The collectives exposed through the non-blocking API.
NBC_COLLECTIVES = ("barrier", "bcast", "allreduce", "allgather", "alltoall")


def _complete(rt, ctx, request, mode: str):
    """Drive a request to completion the drawn way: blocking wait or an
    immediate-``test`` polling loop (both must yield identical payloads)."""
    if mode == "wait":
        return rt.wait(request)
    flag, status = rt.test(request)
    while not flag:
        flag, status = rt.test(request)
    return status


@st.composite
def nbc_draws(draw):
    collective = draw(st.sampled_from(NBC_COLLECTIVES))
    algorithm = draw(st.sampled_from(schedules.builders_for(collective)))
    nranks = draw(st.integers(min_value=2, max_value=6))
    dtype, npdtype = draw(st.sampled_from(DTYPES))
    if collective == "allreduce":
        count = draw(st.integers(min_value=0, max_value=48))
        op_pool = FLOAT_OPS if np.issubdtype(npdtype, np.floating) else INT_OPS
        op = draw(st.sampled_from(op_pool))
    else:
        count = draw(st.integers(min_value=0 if collective == "bcast" else 1, max_value=48))
        op = None
    root = draw(st.integers(min_value=0, max_value=nranks - 1))
    mode = draw(st.sampled_from(("wait", "test")))
    data_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return collective, algorithm, nranks, dtype, npdtype, count, op, root, mode, data_seed


@PROPERTY_SETTINGS
@given(nbc_draws())
def test_nonblocking_collectives_agree_with_blocking_oracle(params):
    collective, algorithm, nranks, dtype, npdtype, count, op, root, mode, data_seed = params
    rng = np.random.default_rng(data_seed)
    forced = {collective: algorithm}

    if collective == "barrier":
        def program(rt, ctx):
            ctx.advance(0.001 * (ctx.rank + 1))
            _complete(rt, ctx, rt.ibarrier(), mode)
            return rt.wtime()

        times = _run_ranks(program, nranks, forced)
        # Oracle: nobody leaves the barrier before the slowest entrant joined.
        assert min(times) >= 0.001 * nranks
        return

    inputs = _rand_inputs(rng, nranks, count, npdtype)

    if collective == "bcast":
        expected = inputs[root].tobytes()

        def program(rt, ctx):
            buf = inputs[ctx.rank].copy() if ctx.rank == root else np.zeros(count, dtype=npdtype)
            _complete(rt, ctx, rt.ibcast(buf, count, dtype, root=root), mode)
            return buf.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "allreduce":
        expected = _oracle_reduce(inputs, op, npdtype).tobytes()

        def program(rt, ctx):
            recv = np.zeros(count, dtype=npdtype)
            _complete(rt, ctx, rt.iallreduce(inputs[ctx.rank].copy(), recv, count, dtype, op), mode)
            return recv.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "allgather":
        expected = b"".join(block.tobytes() for block in inputs)

        def program(rt, ctx):
            recv = np.zeros(count * nranks, dtype=npdtype)
            request = rt.iallgather(inputs[ctx.rank].copy(), count, dtype, recv, count, dtype)
            _complete(rt, ctx, request, mode)
            return recv.tobytes()

        assert all(r == expected for r in _run_ranks(program, nranks, forced))

    elif collective == "alltoall":
        matrix = _rand_inputs(rng, nranks, count * nranks, npdtype)

        def program(rt, ctx):
            recv = np.zeros(count * nranks, dtype=npdtype)
            request = rt.ialltoall(matrix[ctx.rank].copy(), count, dtype, recv, count, dtype)
            _complete(rt, ctx, request, mode)
            return recv.tobytes()

        results = _run_ranks(program, nranks, forced)
        for rank, received in enumerate(results):
            expected = b"".join(
                matrix[src][rank * count : (rank + 1) * count].tobytes() for src in range(nranks)
            )
            assert received == expected

    else:  # pragma: no cover - keeps the draw space and dispatch in sync
        pytest.fail(f"collective {collective!r} not covered by the oracle")


# ------------------------------------------- blocking/non-blocking virtual time

@st.composite
def timing_draws(draw):
    collective, algorithm = draw(st.sampled_from(ALGORITHMS))
    nranks = draw(st.integers(min_value=2, max_value=12))
    count = draw(st.integers(min_value=1, max_value=8192))  # MPI_LONGs: 8 B to 64 KiB
    root = draw(st.integers(min_value=0, max_value=nranks - 1))
    ranks_per_node = draw(st.integers(min_value=1, max_value=nranks))
    return collective, algorithm, nranks, count, root, ranks_per_node


def _clocks(collective, algorithm, nranks, count, root, ranks_per_node, nonblocking):
    """Every rank's final clock after two back-to-back calls."""
    engine = SimEngine(nranks)
    world = MPIWorld.install(Cluster(supermuc_ng(), nranks, ranks_per_node), engine)
    world.collectives.force_many({collective: algorithm})

    def make(rank):
        def rank_main(ctx):
            rt = MPIRuntime(world, ctx)
            rt.init()
            for _ in range(2):
                args, _out = collective_args(collective, ctx.rank, nranks, root, count)
                if nonblocking:
                    rt.wait(getattr(rt, "i" + collective)(*args))
                else:
                    getattr(rt, collective)(*args)
            rt.finalize()

        return rank_main

    engine.spawn_all(make)
    engine.run()
    return engine.clocks()


@PROPERTY_SETTINGS
@given(timing_draws())
def test_blocking_and_nonblocking_collectives_cost_the_same_virtual_time(params):
    """One schedule loop: ``MPI_<C>`` and ``MPI_I<c>`` + ``MPI_Wait`` leave
    every rank's clock identical, off the golden points too (odd rank
    counts, any root, any node packing)."""
    assert _clocks(*params, nonblocking=False) == _clocks(*params, nonblocking=True)


# ------------------------------------------------------- pt2pt non-overtaking


@st.composite
def pt2pt_draws(draw):
    n_messages = draw(st.integers(min_value=1, max_value=8))
    tags = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=n_messages, max_size=n_messages)
    )
    # Each receive either names the tag of a specific pending message stream
    # or uses ANY_TAG; both must obey send-order within what they match.
    use_any = draw(
        st.lists(st.booleans(), min_size=n_messages, max_size=n_messages)
    )
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=64), min_size=n_messages, max_size=n_messages)
    )
    return tags, use_any, sizes


def _expected_delivery(tags, use_any):
    """Oracle for the receive order: MPI non-overtaking over one sender.

    Walks the receive patterns, always consuming the earliest-sent pending
    message matching the pattern; returns the message index each receive
    must observe (or None when nothing pending matches -- the draw then
    falls back to ANY_TAG for that receive to avoid a deadlock).
    """
    pending = list(range(len(tags)))
    order = []
    patterns = []
    for i, any_tag in enumerate(use_any):
        wanted = None if any_tag else tags[i]
        match = next((m for m in pending if wanted is None or tags[m] == wanted), None)
        if match is None:
            wanted = None
            match = pending[0]
        patterns.append(wanted)
        order.append(match)
        pending.remove(match)
    return patterns, order


@PROPERTY_SETTINGS
@given(pt2pt_draws())
def test_pt2pt_non_overtaking(params):
    tags, use_any, sizes = params
    n = len(tags)
    patterns, expected_order = _expected_delivery(tags, use_any)
    payloads = [np.full(sizes[i], i + 1, dtype=np.uint8) for i in range(n)]

    def program(rt, ctx):
        if ctx.rank == 0:
            for i in range(n):
                rt.send(payloads[i], sizes[i], datatypes.BYTE, dest=1, tag=tags[i])
            return None
        observed = []
        for wanted in patterns:
            buf = np.zeros(64, dtype=np.uint8)
            status = rt.recv(
                buf, 64, datatypes.BYTE, source=0,
                tag=rt.ANY_TAG if wanted is None else wanted,
            )
            observed.append((buf[0] - 1, status.tag, status.count_bytes))
        return observed

    results = _run_ranks(program, 2)
    observed = results[1]
    for recv_idx, (msg_idx, tag, nbytes) in enumerate(observed):
        expected_msg = expected_order[recv_idx]
        assert msg_idx == expected_msg, (
            f"receive {recv_idx} (pattern {patterns[recv_idx]!r}) got message {msg_idx}, "
            f"but non-overtaking requires message {expected_msg} (tags={tags})"
        )
        assert tag == tags[expected_msg]
        assert nbytes == sizes[expected_msg]


@PROPERTY_SETTINGS
@given(pt2pt_draws())
def test_pt2pt_payloads_survive_wildcard_matching(params):
    """Companion property: whatever the matching order, payload bytes and
    status metadata always belong to one single sent message (no mixing)."""
    tags, use_any, sizes = params
    n = len(tags)
    patterns, _ = _expected_delivery(tags, use_any)
    rng = np.random.default_rng(sum(sizes) * 31 + n)
    payloads = [rng.integers(0, 256, size=sizes[i], dtype=np.uint8) for i in range(n)]

    def program(rt, ctx):
        if ctx.rank == 0:
            for i in range(n):
                rt.send(payloads[i], sizes[i], datatypes.BYTE, dest=1, tag=tags[i])
            return None
        got = []
        for wanted in patterns:
            buf = np.zeros(64, dtype=np.uint8)
            status = rt.recv(
                buf, 64, datatypes.BYTE, source=0,
                tag=rt.ANY_TAG if wanted is None else wanted,
            )
            got.append(bytes(buf[: status.count_bytes]))
        return got

    results = _run_ranks(program, 2)
    sent = {p.tobytes() for p in payloads}
    received = results[1]
    assert len(received) == n
    for blob in received:
        assert blob in sent
    # Every message is delivered exactly once.
    assert sorted(received) == sorted(p.tobytes() for p in payloads)
