"""Tests for the non-blocking collectives (``MPI_I<c>`` of all eight
collectives) at the host-runtime level and through the full guest ABI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import datatypes, ops
from repro.mpi.algorithms import registry
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from tests.conftest import collective_args, collective_expected, run_mpi_program

ALL_POINTS = [
    (collective, algorithm)
    for collective, algorithms in sorted(registry.catalog().items())
    for algorithm in algorithms
]


# ------------------------------------------------------------- runtime level


def test_iallreduce_matches_blocking_result_with_overlap():
    n = 32

    def program(rt, ctx):
        send = np.arange(n, dtype=np.int64) * (ctx.rank + 1)
        nb = np.zeros(n, dtype=np.int64)
        req = rt.iallreduce(send, nb, n, datatypes.LONG, ops.SUM)
        ctx.advance(0.001)  # overlapped compute between post and wait
        rt.wait(req)
        blocking = np.zeros(n, dtype=np.int64)
        rt.allreduce(send, blocking, n, datatypes.LONG, ops.SUM)
        return (nb.tolist(), blocking.tolist())

    for nonblocking, blocking in run_mpi_program(program, 5):
        assert nonblocking == blocking


def test_ibarrier_blocks_until_all_ranks_arrive():
    def program(rt, ctx):
        ctx.advance(0.001 * (ctx.rank + 1))
        rt.wait(rt.ibarrier())
        return rt.wtime()

    times = run_mpi_program(program, 4)
    assert min(times) >= 0.004


def test_ibcast_and_iallgather_deliver_payloads():
    def program(rt, ctx):
        p = 4
        bc = np.full(16, ctx.rank, dtype=np.uint8)
        r1 = rt.ibcast(bc, 16, datatypes.BYTE, root=2)
        block = np.full(8, ctx.rank + 1, dtype=np.uint8)
        gathered = np.zeros(8 * p, dtype=np.uint8)
        r2 = rt.iallgather(block, 8, datatypes.BYTE, gathered, 8, datatypes.BYTE)
        rt.waitall([r1, r2])
        return (bc.tolist(), gathered.tolist())

    for bc, gathered in run_mpi_program(program, 4):
        assert bc == [2] * 16
        assert gathered == [src + 1 for src in range(4) for _ in range(8)]


def test_ialltoall_completed_by_test_polling():
    def program(rt, ctx):
        p, b = 4, 8
        send = np.repeat(np.arange(p, dtype=np.uint8) * 10 + ctx.rank, b)
        recv = np.zeros(p * b, dtype=np.uint8)
        req = rt.ialltoall(send, b, datatypes.BYTE, recv, b, datatypes.BYTE)
        flag, _ = rt.test(req)
        while not flag:
            flag, _ = rt.test(req)
        return recv.tolist()

    for rank, received in enumerate(run_mpi_program(program, 4)):
        assert received == [rank * 10 + src for src in range(4) for _ in range(8)]


def test_nbc_zero_count_completes():
    def program(rt, ctx):
        send = np.zeros(0, dtype=np.float64)
        recv = np.zeros(0, dtype=np.float64)
        req = rt.iallreduce(send, recv, 0, datatypes.DOUBLE, ops.SUM)
        status = rt.wait(req)
        return status.count_bytes

    assert run_mpi_program(program, 3) == [0, 0, 0]


def test_nbc_routes_through_decision_table():
    """A large iallreduce must select the same decision-table algorithm as
    the blocking path (ring above the 16 KiB threshold) and record it in the
    per-collective counters."""
    count = 8192  # 64 KiB of doubles -> the table picks "ring"

    def program(rt, ctx):
        send = np.ones(count, dtype=np.float64)
        recv = np.zeros(count, dtype=np.float64)
        rt.wait(rt.iallreduce(send, recv, count, datatypes.DOUBLE, ops.SUM))
        return rt.world.metrics.counters().get("mpi.coll.allreduce.algo.ring", 0)

    nranks = 4
    results = run_mpi_program(program, nranks)
    assert results[-1] == nranks  # one rank-call per rank, all on "ring"


def test_nbc_forced_algorithm_runs_as_named():
    """A forced algorithm runs under the non-blocking entry point exactly as
    under the blocking one: ``reduce_bcast`` (never picked by the default
    table) is recorded and executed by ``MPI_Iallreduce``, and the result
    equals the blocking oracle."""

    def program(rt, ctx):
        rt.world.collectives.force("allreduce", "reduce_bcast")
        send = np.full(8, ctx.rank + 1, dtype=np.int64)
        recv = np.zeros(8, dtype=np.int64)
        rt.wait(rt.iallreduce(send, recv, 8, datatypes.LONG, ops.SUM))
        algos = {
            k: v for k, v in rt.world.metrics.counters().items()
            if k.startswith("mpi.coll.allreduce.algo.")
        }
        oracle = np.zeros(8, dtype=np.int64)
        rt.allreduce(send, oracle, 8, datatypes.LONG, ops.SUM)
        return (recv.tolist(), oracle.tolist(), algos)

    results = run_mpi_program(program, 3)
    expected = [sum(range(1, 4))] * 8
    for recv, oracle, algos in results:
        assert recv == oracle == expected
        assert set(algos) == {"mpi.coll.allreduce.algo.reduce_bcast"}


@pytest.mark.parametrize("nranks", [5, 8])
@pytest.mark.parametrize("collective,algorithm", ALL_POINTS,
                         ids=[f"{c}:{a}" for c, a in ALL_POINTS])
def test_nonblocking_leaves_the_same_bytes_as_blocking(collective, algorithm, nranks):
    """The result oracle, for every registered algorithm of every collective:
    ``MPI_I<c>`` + ``wait`` leaves the bytes in the caller's buffers that
    ``MPI_<C>`` does, and both run the forced algorithm as named."""
    root = nranks - 2

    def program(rt, ctx):
        rt.world.collectives.force(collective, algorithm)
        results = []
        for method in (collective, "i" + collective):
            args, out = collective_args(collective, ctx.rank, nranks, root)
            request = getattr(rt, method)(*args)
            if request is not None:
                rt.wait(request)
            results.append(None if out is None else out.tolist())
        ran = {k for k in rt.world.metrics.counters()
               if k.startswith(f"mpi.coll.{collective}.algo.")}
        return (results, ran)

    for rank, ((blocking, nonblocking), ran) in enumerate(run_mpi_program(program, nranks)):
        assert nonblocking == blocking == collective_expected(collective, rank, nranks, root)
        assert ran == {f"mpi.coll.{collective}.algo.{algorithm}"}


# ----------------------------------------------------------------- guest ABI


def test_guest_nbc_end_to_end():
    """Drive all eight non-blocking collectives through the guest API -- the
    full Wasm import path, and the native baseline -- overlapping compute,
    and verify payloads bit-for-bit."""
    from repro.api import run

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        p = api.size()
        sp, sa = api.alloc_array(8, abi.MPI_DOUBLE, fill=float(rank + 1))
        rp, ra = api.alloc_array(8, abi.MPI_DOUBLE, fill=0)
        r_all = api.iallreduce(sp, rp, 8, abi.MPI_DOUBLE, abi.MPI_SUM)
        bp, ba = api.alloc_array(16, abi.MPI_INT, fill=rank)
        r_bc = api.ibcast(bp, 16, abi.MPI_INT, 1)
        gp, ga = api.alloc_array(4, abi.MPI_INT, fill=rank + 1)
        agp, aga = api.alloc_array(4 * p, abi.MPI_INT, fill=0)
        r_ag = api.iallgather(gp, 4, abi.MPI_INT, agp, 4, abi.MPI_INT)
        a2p, a2a = api.alloc_array(p, abi.MPI_INT)
        a2a[:] = [rank * 100 + dst for dst in range(p)]
        a2rp, a2ra = api.alloc_array(p, abi.MPI_INT, fill=0)
        r_a2 = api.ialltoall(a2p, 1, abi.MPI_INT, a2rp, 1, abi.MPI_INT)
        # The rooted three: non-roots pass NULL for the buffer only root 2 uses.
        rdp, rda = api.alloc_array(8, abi.MPI_DOUBLE, fill=0)
        r_rd = api.ireduce(sp, rdp if rank == 2 else 0, 8, abi.MPI_DOUBLE, abi.MPI_SUM, 2)
        grp, gra = api.alloc_array(4 * p, abi.MPI_INT, fill=0)
        r_ga = api.igather(gp, 4, abi.MPI_INT, grp if rank == 2 else 0, 4, abi.MPI_INT, 2)
        scp, sca = api.alloc_array(p, abi.MPI_INT)
        sca[:] = [7 * dst for dst in range(p)]
        scrp, scra = api.alloc_array(1, abi.MPI_INT, fill=-1)
        r_sc = api.iscatter(scp if rank == 2 else 0, 1, abi.MPI_INT, scrp, 1, abi.MPI_INT, 2)
        api.compute(1e-4)  # overlapped work while all seven progress
        for handle in (r_all, r_bc, r_ag, r_a2, r_rd, r_ga, r_sc):
            api.wait(handle)
        r_bar = api.ibarrier()
        flag, _ = api.test(r_bar)
        while not flag:
            flag, _ = api.test(r_bar)
        api.mpi_finalize()
        return (ra.tolist(), ba.tolist(), aga.tolist(), a2ra.tolist(),
                rda.tolist(), gra.tolist(), scra.tolist())

    for mode in ("wasm", "native"):
        job = run(GuestProgram(name="nbc-guest", main=main), 4, machine="graviton2", mode=mode)
        for rank, (allred, bc, ag, a2, red, gat, sca) in enumerate(job.return_values()):
            assert allred == [float(sum(range(1, 5)))] * 8
            assert bc == [1] * 16
            assert ag == [src + 1 for src in range(4) for _ in range(4)]
            assert a2 == [src * 100 + rank for src in range(4)]
            assert red == ([float(sum(range(1, 5)))] * 8 if rank == 2 else [0.0] * 8)
            assert gat == ([src + 1 for src in range(4) for _ in range(4)] if rank == 2
                           else [0] * 16)
            assert sca == [7 * rank]
        if mode == "wasm":
            counts = job.rank_results[0].call_counts
            for collective in registry.COLLECTIVES:
                assert counts[f"MPI_I{collective}"] == 1, (collective, counts)


def test_guest_memory_can_grow_while_nbc_outstanding():
    """Growing linear memory between the post and the wait (e.g. a malloc
    during the overlapped compute) works while the guest's own views and the
    outstanding requests' buffers are alive, and the views taken before the
    grow see the results."""
    from repro.api import run

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        sp, sa = api.alloc_array(8, abi.MPI_DOUBLE, fill=float(rank + 1))
        rp, ra = api.alloc_array(8, abi.MPI_DOUBLE, fill=0)
        bp, ba = api.alloc_array(4, abi.MPI_INT, fill=rank)
        req = api.iallreduce(sp, rp, 8, abi.MPI_DOUBLE, abi.MPI_SUM)
        ireq = api.irecv(bp, 4, abi.MPI_INT, (rank - 1) % api.size(), 5)
        grown_from = api.instance.exported_memory().grow(1)
        api.send(bp, 4, abi.MPI_INT, (rank + 1) % api.size(), 5)
        api.wait(req)
        api.wait(ireq)
        api.mpi_finalize()
        return (grown_from, ra.tolist())

    job = run(GuestProgram(name="nbc-grow", main=main), 3, machine="graviton2")
    for grown_from, allred in job.return_values():
        assert grown_from > 0  # grow succeeded and returned the old page count
        assert allred == [float(sum(range(1, 4)))] * 8


def test_nbc_campaign_spec_matches_example_and_expands():
    """``nbc_campaign_spec`` is the programmatic form of
    ``examples/campaign_nbc.json``: its benchmark matrix must stay in sync
    with the checked-in file and expand to a valid job list."""
    import json
    from pathlib import Path

    from repro.harness.campaign import CampaignSpec
    from repro.harness.experiments import nbc_campaign_spec

    spec = nbc_campaign_spec(seed=4)
    example = json.loads(
        (Path(__file__).resolve().parents[1] / "examples" / "campaign_nbc.json").read_text()
    )
    assert spec["benchmarks"] == example["benchmarks"]
    jobs = CampaignSpec.from_mapping(spec).expand()
    # 5 routines x (2 wasm backends + 1 native) x 2 rank counts.
    assert len(jobs) == 5 * 3 * 2
    assert {j.name for j in jobs} == {"ibarrier", "ibcast", "iallreduce", "iallgather", "ialltoall"}


def test_nbc_benchmark_reports_overlap_both_modes():
    """The IMB-NBC overlap benchmark runs under both the embedder and the
    native baseline, reporting bounded overlap percentages and recording
    per-collective samples in the job metrics."""
    from repro.benchmarks_suite.imb import make_imb_nbc_program
    from repro.api import run

    program = make_imb_nbc_program("iallgather", message_sizes=(256,), iterations=2)
    for job in (run(program, 3, machine="graviton2"),
                run(program, 3, machine="graviton2", mode="native")):
        rows = job.return_values()[0]["rows"]
        row = rows[256]
        assert 0.0 <= row["overlap_pct"] <= 100.0
        assert row["t_ovrl_us"] <= row["t_pure_us"] + row["t_cpu_us"] + 1e-6
        summary = job.metrics.nbc_overlap_summary()
        assert summary["allgather"]["count"] == 2 * 3  # iterations x ranks
