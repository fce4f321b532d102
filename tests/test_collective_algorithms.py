"""Tests for the pluggable collective-algorithm subsystem.

Covers:

* registry contents (every collective has at least two algorithms),
* cross-algorithm payload equivalence -- every registered algorithm of a
  collective produces byte-identical results on randomized payloads, sizes
  and communicator sizes, including non-power-of-two rank counts,
* the size-based decision table and forced overrides,
* the ``REPRO_COLL_ALGO`` environment knob end-to-end
  (guest -> embedder -> dispatcher), and the ``EmbedderConfig`` override.

The reduction equivalence cases use order-insensitive (op, dtype) pairs --
integer SUM/XOR and floating-point MAX -- because, exactly as in real MPI
libraries, different reduction algorithms combine contributions in different
orders and floating-point addition is not associative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes, ops
from repro.mpi.algorithms import CollectiveSelector, DecisionTable, Rule, registry
from repro.mpi.algorithms.decision import ENV_KNOB, parse_env_knob
from repro.mpi.runtime import MPIRuntime, MPIWorld
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEngine
from repro.sim.machines import graviton2

#: Rank counts exercising both power-of-two and non-power-of-two topologies.
RANK_COUNTS = (2, 3, 5, 8)

#: Randomized payload sizes in elements (odd, smaller than p, larger than p).
ELEMENT_COUNTS = (1, 3, 13, 260)


def run_with_algorithm(program, nranks: int, forced=None):
    """Run ``program(runtime, ctx)`` per rank with forced collective algorithms."""
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
    return engine.run(), world


def _payload(seed: int, nbytes: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


# ------------------------------------------------------------------- registry


def test_every_collective_has_at_least_two_algorithms():
    catalog = registry.catalog()
    assert set(catalog) == set(registry.COLLECTIVES)
    for collective, algorithms in catalog.items():
        assert len(algorithms) >= 2, f"{collective} has only {algorithms}"


def test_unknown_algorithm_raises():
    with pytest.raises(registry.UnknownAlgorithmError):
        registry.get("bcast", "definitely-not-an-algorithm")


# ------------------------------------------------- cross-algorithm equivalence


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("count", ELEMENT_COUNTS)
def test_bcast_algorithms_equivalent(nranks, count):
    expected = _payload(count * 7 + nranks, count)
    root = nranks - 1
    per_algorithm = {}
    for algorithm in registry.algorithms_for("bcast"):
        def program(rt, ctx):
            buf = expected.copy() if ctx.rank == root else np.zeros(count, dtype=np.uint8)
            rt.bcast(buf, count, datatypes.BYTE, root=root)
            return buf.tobytes()

        results, _ = run_with_algorithm(program, nranks, {"bcast": algorithm})
        assert all(r == expected.tobytes() for r in results), algorithm
        per_algorithm[algorithm] = results
    assert len({tuple(r) for r in per_algorithm.values()}) == 1


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("count", ELEMENT_COUNTS)
@pytest.mark.parametrize("op,dtype,npdtype", [
    (ops.SUM, datatypes.LONG, np.int64),
    (ops.BXOR, datatypes.INT, np.int32),
    (ops.MAX, datatypes.DOUBLE, np.float64),
])
def test_reduce_algorithms_equivalent(nranks, count, op, dtype, npdtype):
    # Root 0 is a folded-out rank in Rabenseifner's pre-phase whenever the
    # communicator size is not a power of two -- deliberately exercised here.
    root = 0
    rng = np.random.default_rng(count * 31 + nranks)
    inputs = [
        rng.integers(-1000, 1000, size=count).astype(npdtype) for _ in range(nranks)
    ]
    expected = inputs[0].copy()
    for contribution in inputs[1:]:
        expected = op.apply(expected, contribution).astype(npdtype)
    per_algorithm = {}
    for algorithm in registry.algorithms_for("reduce"):
        def program(rt, ctx):
            recv = np.zeros(count, dtype=npdtype) if ctx.rank == root else None
            rt.reduce(inputs[ctx.rank].copy(), recv, count, dtype, op, root=root)
            return recv.tobytes() if ctx.rank == root else None

        results, _ = run_with_algorithm(program, nranks, {"reduce": algorithm})
        assert results[root] == expected.tobytes(), algorithm
        per_algorithm[algorithm] = results[root]
    assert len(set(per_algorithm.values())) == 1


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("count", ELEMENT_COUNTS)
@pytest.mark.parametrize("op,dtype,npdtype", [
    (ops.SUM, datatypes.LONG, np.int64),
    (ops.BOR, datatypes.INT, np.int32),
    (ops.MIN, datatypes.DOUBLE, np.float64),
])
def test_allreduce_algorithms_equivalent(nranks, count, op, dtype, npdtype):
    rng = np.random.default_rng(count * 13 + nranks)
    inputs = [
        rng.integers(-1000, 1000, size=count).astype(npdtype) for _ in range(nranks)
    ]
    expected = inputs[0].copy()
    for contribution in inputs[1:]:
        expected = op.apply(expected, contribution).astype(npdtype)
    per_algorithm = {}
    for algorithm in registry.algorithms_for("allreduce"):
        def program(rt, ctx):
            recv = np.zeros(count, dtype=npdtype)
            rt.allreduce(inputs[ctx.rank].copy(), recv, count, dtype, op)
            return recv.tobytes()

        results, _ = run_with_algorithm(program, nranks, {"allreduce": algorithm})
        assert all(r == expected.tobytes() for r in results), algorithm
        per_algorithm[algorithm] = tuple(results)
    assert len(set(per_algorithm.values())) == 1


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("block", (1, 7, 65))
def test_allgather_algorithms_equivalent(nranks, block):
    blocks = [_payload(rank * 101 + block, block) for rank in range(nranks)]
    expected = b"".join(b.tobytes() for b in blocks)
    per_algorithm = {}
    for algorithm in registry.algorithms_for("allgather"):
        def program(rt, ctx):
            recv = np.zeros(block * nranks, dtype=np.uint8)
            rt.allgather(blocks[ctx.rank].copy(), block, datatypes.BYTE, recv, block, datatypes.BYTE)
            return recv.tobytes()

        results, _ = run_with_algorithm(program, nranks, {"allgather": algorithm})
        assert all(r == expected for r in results), algorithm
        per_algorithm[algorithm] = tuple(results)
    assert len(set(per_algorithm.values())) == 1


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("block", (1, 9, 33))
def test_alltoall_algorithms_equivalent(nranks, block):
    matrix = [_payload(rank * 211 + block, block * nranks) for rank in range(nranks)]
    per_algorithm = {}
    for algorithm in registry.algorithms_for("alltoall"):
        def program(rt, ctx):
            recv = np.zeros(block * nranks, dtype=np.uint8)
            rt.alltoall(matrix[ctx.rank].copy(), block, datatypes.BYTE, recv, block, datatypes.BYTE)
            return recv.tobytes()

        results, _ = run_with_algorithm(program, nranks, {"alltoall": algorithm})
        for rank, received in enumerate(results):
            expected = b"".join(
                matrix[src][rank * block : (rank + 1) * block].tobytes()
                for src in range(nranks)
            )
            assert received == expected, algorithm
        per_algorithm[algorithm] = tuple(results)
    assert len(set(per_algorithm.values())) == 1


@pytest.mark.parametrize("nranks", RANK_COUNTS)
@pytest.mark.parametrize("block", (1, 17))
@pytest.mark.parametrize("root", (0, 1))
def test_gather_and_scatter_algorithms_equivalent(nranks, block, root):
    blocks = [_payload(rank * 19 + block, block) for rank in range(nranks)]
    gathered_expected = b"".join(b.tobytes() for b in blocks)
    for collective in ("gather", "scatter"):
        per_algorithm = {}
        for algorithm in registry.algorithms_for(collective):
            def program(rt, ctx):
                if collective == "gather":
                    recv = np.zeros(block * nranks, dtype=np.uint8) if ctx.rank == root else None
                    rt.gather(blocks[ctx.rank].copy(), block, datatypes.BYTE,
                              recv, block, datatypes.BYTE, root=root)
                    return recv.tobytes() if ctx.rank == root else None
                send = (
                    np.frombuffer(gathered_expected, dtype=np.uint8).copy()
                    if ctx.rank == root else None
                )
                recv = np.zeros(block, dtype=np.uint8)
                rt.scatter(send, block, datatypes.BYTE, recv, block, datatypes.BYTE, root=root)
                return recv.tobytes()

            results, _ = run_with_algorithm(program, nranks, {collective: algorithm})
            if collective == "gather":
                assert results[root] == gathered_expected, algorithm
            else:
                for rank, received in enumerate(results):
                    assert received == blocks[rank].tobytes(), algorithm
            per_algorithm[algorithm] = tuple(results)
        assert len(set(per_algorithm.values())) == 1, collective


@pytest.mark.parametrize("nranks", RANK_COUNTS)
def test_barrier_algorithms_synchronise(nranks):
    for algorithm in registry.algorithms_for("barrier"):
        def program(rt, ctx):
            ctx.advance(0.001 * (ctx.rank + 1))
            rt.barrier()
            return rt.wtime()

        times, _ = run_with_algorithm(program, nranks, {"barrier": algorithm})
        # After the barrier no rank may be earlier than the slowest entrant.
        assert min(times) >= 0.001 * nranks, algorithm


# ----------------------------------------------------------- decision layer


def test_decision_table_picks_by_message_size():
    table = DecisionTable()
    assert table.decide("allreduce", 64, 16) == "recursive_doubling"
    assert table.decide("allreduce", 1 << 20, 16) == "ring"
    assert table.decide("bcast", 1 << 20, 64) == "scatter_allgather"
    assert table.decide("reduce", 1 << 20, 64) == "rabenseifner"
    assert table.decide("alltoall", 64, 64) == "linear"
    assert table.decide("alltoall", 1 << 20, 64) == "pairwise"


def test_decision_table_picks_by_communicator_size():
    table = DecisionTable()
    assert table.decide("barrier", 0, 2) == "linear"
    assert table.decide("barrier", 0, 64) == "dissemination"
    # Large payload but tiny communicator: the rank rule wins for bcast.
    assert table.decide("bcast", 1 << 20, 2) == "binomial"


def test_custom_rules_override_defaults():
    table = DecisionTable({"allreduce": (Rule("ring"),)})
    assert table.decide("allreduce", 1, 2) == "ring"
    # Other collectives keep their defaults.
    assert table.decide("barrier", 0, 64) == "dissemination"


def test_selector_force_wins_over_table():
    selector = CollectiveSelector()
    assert selector.decide("allreduce", 64, 16) == "recursive_doubling"
    selector.force("allreduce", "ring")
    assert selector.decide("allreduce", 64, 16) == "ring"
    selector.force("allreduce", None)
    assert selector.decide("allreduce", 64, 16) == "recursive_doubling"


def test_selector_rejects_unknown_algorithm():
    selector = CollectiveSelector()
    with pytest.raises(registry.UnknownAlgorithmError):
        selector.force("allreduce", "nope")
    with pytest.raises(ValueError):
        selector.force("not-a-collective", "ring")


def test_parse_env_knob():
    assert parse_env_knob("") == {}
    assert parse_env_knob("allreduce:ring") == {"allreduce": "ring"}
    assert parse_env_knob("allreduce:ring, bcast:binomial") == {
        "allreduce": "ring",
        "bcast": "binomial",
    }
    with pytest.raises(ValueError):
        parse_env_knob("allreduce=ring")
    with pytest.raises(KeyError):
        parse_env_knob("allreduce:nope")


# --------------------------------------------------- end-to-end knob plumbing


def _bcast_guest():
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    def main(api, args):
        api.mpi_init()
        ptr, arr = api.alloc_array(256, abi.MPI_BYTE)
        if api.rank() == 0:
            arr[:] = np.arange(256, dtype=np.uint8)
        api.bcast(ptr, 256, abi.MPI_BYTE, 0)
        api.mpi_finalize()
        return bytes(arr)

    return GuestProgram(name="bcast-knob", main=main)


def test_env_knob_forces_algorithm_end_to_end(monkeypatch):
    """``REPRO_COLL_ALGO`` reaches the dispatcher through a real Wasm guest."""
    from repro.api import run

    monkeypatch.setenv(ENV_KNOB, "bcast:scatter_allgather,barrier:linear")
    job = run(_bcast_guest(), 3, machine="graviton2")
    expected = bytes(np.arange(256, dtype=np.uint8))
    assert all(v == expected for v in job.return_values())
    summary = job.metrics.collective_summary()
    # Every bcast call went through the forced algorithm, none elsewhere.
    assert summary["bcast"]["algorithms"] == {"scatter_allgather": 3}
    assert summary["bcast"]["calls"] == 3
    assert summary["bcast"]["bytes"] == 256 * 3


def test_malformed_env_knob_fails_loudly(monkeypatch):
    from repro.api import run

    # The resolver rejects the knob before any rank starts.
    monkeypatch.setenv(ENV_KNOB, "bcast:no-such-algorithm")
    with pytest.raises(ValueError, match=ENV_KNOB):
        run(_bcast_guest(), 2, machine="graviton2")


def test_config_override_forces_algorithm(monkeypatch):
    from repro.core.config import EmbedderConfig
    from repro.api import run

    # The config override must beat the environment knob.
    monkeypatch.setenv(ENV_KNOB, "bcast:binomial")
    config = EmbedderConfig(collective_algorithms={"bcast": "scatter_allgather"})
    job = run(_bcast_guest(), 2, machine="graviton2", config=config)
    summary = job.metrics.collective_summary()
    assert summary["bcast"]["algorithms"] == {"scatter_allgather": 2}


def test_native_run_honours_forced_algorithms():
    from repro.api import run

    job = run(
        _bcast_guest(), 2, machine="graviton2",
        algorithms={"bcast": "scatter_allgather"}, mode="native",
    )
    summary = job.metrics.collective_summary()
    assert summary["bcast"]["algorithms"] == {"scatter_allgather": 2}


def test_algosweep_restores_job_level_force():
    """The sweep guest must hand back any REPRO_COLL_ALGO/config force it
    temporarily overrode, not clear it."""
    from repro.baselines.native import NativeAPI
    from repro.benchmarks_suite.imb import make_imb_algorithm_sweep_program

    preset = graviton2()
    nranks = 3
    cluster = Cluster(preset, nranks, nranks)
    engine = SimEngine(nranks)
    world = MPIWorld.install(cluster, engine)
    world.collectives.force("allreduce", "ring")
    program = make_imb_algorithm_sweep_program("allreduce", message_sizes=(64,), iterations=1)

    def make(rank):
        def rank_main(ctx):
            return program.main(NativeAPI(MPIRuntime(world, ctx)), [])

        return rank_main

    engine.spawn_all(make)
    results = engine.run()
    assert set(results[0]["algorithms"]) == set(registry.algorithms_for("allreduce"))
    assert world.collectives.forced() == {"allreduce": "ring"}


def test_collective_report_renders(monkeypatch):
    from repro.api import run
    from repro.harness.report import format_collective_report

    job = run(_bcast_guest(), 2, machine="graviton2")
    text = format_collective_report(job.metrics)
    assert "bcast" in text
    assert "binomial:2" in text
