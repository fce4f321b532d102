"""Tests for the guest benchmark suites and the baselines (native, Faasm)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.faasm import FaabricMessageBus, FaasmConfig, FaasmPlatform
from repro.benchmarks_suite import registry
from repro.benchmarks_suite.custom_pingpong import make_translation_pingpong_program
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.benchmarks_suite.imb import ROUTINES, make_imb_program, make_imb_suite_program
from repro.benchmarks_suite.ior import make_ior_program
from repro.benchmarks_suite.npb import make_dt_program, make_is_program
from repro.api import run

SIZES = (16, 1024)


# ------------------------------------------------------------------------ IMB


@pytest.mark.parametrize("routine", ["pingpong", "sendrecv", "bcast", "allreduce", "reduce"])
def test_imb_routines_run_under_wasm_and_report_rows(routine):
    nranks = 2 if routine == "pingpong" else 3
    job = run(make_imb_program(routine, message_sizes=SIZES, iterations=2), nranks,
              machine="graviton2")
    rows = job.return_values()[0]["rows"]
    assert set(rows) == set(SIZES)
    for row in rows.values():
        assert row["t_avg_us"] > 0
        assert row["t_min_us"] <= row["t_avg_us"] <= row["t_max_us"]


@pytest.mark.parametrize("routine", ["allgather", "alltoall", "gather", "scatter"])
def test_imb_rooted_and_allto_routines_native(routine):
    job = run(make_imb_program(routine, message_sizes=SIZES, iterations=2), 4,
              machine="graviton2", mode="native")
    rows = job.return_values()[0]["rows"]
    assert all(row["t_avg_us"] > 0 for row in rows.values())


def test_imb_iteration_time_grows_with_message_size():
    job = run(make_imb_program("pingpong", message_sizes=(64, 65536), iterations=3), 2,
              machine="graviton2", mode="native")
    rows = job.return_values()[0]["rows"]
    assert rows[65536]["t_avg_us"] > rows[64]["t_avg_us"]


def test_imb_suite_program_runs_multiple_routines():
    job = run(make_imb_suite_program(routines=("pingpong", "bcast"), message_sizes=(64,),
                                     iterations=1), 2, machine="graviton2")
    assert set(job.return_values()[0]["routines"]) == {"pingpong", "bcast"}


def test_registry_contains_all_benchmarks():
    names = registry.names()
    for expected in [*ROUTINES, "hpcg", "ior", "is", "dt-bh", "translation-pingpong"]:
        assert expected in names
    assert registry.get_program("hpcg").name == "hpcg"
    with pytest.raises(KeyError):
        registry.get_program("linpack")


# ----------------------------------------------------------------------- HPCG


def test_hpcg_converges_and_reports_metrics_wasm_vs_native():
    program = make_hpcg_program(dims=(8, 4, 4), iterations=5)
    wasm = run(program, 2, machine="graviton2", backend="llvm")
    native = run(program, 2, machine="graviton2", mode="native")
    for job in (wasm, native):
        result = job.return_values()[0]
        assert result["converging"]
        assert result["gflops_total"] > 0
        assert result["bandwidth_gb_s"] > 0
        assert result["allreduce_calls"] == 2 * 5 + 1
    # Same algorithm, same data: the residuals must agree across modes.
    assert wasm.return_values()[0]["residual_final"] == pytest.approx(
        native.return_values()[0]["residual_final"], rel=1e-9
    )
    assert wasm.makespan >= native.makespan


def test_hpcg_wasm_kernels_execute_real_wasm_code():
    job = run(make_hpcg_program(dims=(4, 4, 2), iterations=2), 1, machine="graviton2")
    result = job.rank_results[0]
    # The ddot kernel never goes through MPI, but malloc does get exercised,
    # and the module must have been AoT compiled (compile time recorded).
    assert result.compile_seconds >= 0.0
    assert result.call_counts["MPI_Allreduce"] == 5


# ---------------------------------------------------------------------- NPB IS


def test_is_benchmark_sorts_and_reports_mops():
    job = run(make_is_program("S"), 4, machine="graviton2")
    results = job.return_values()
    assert all(r["sorted_ok"] for r in results)
    assert all(r["mops_total"] > 0 for r in results)
    # The verification checksum is an allreduce, so every rank agrees on it.
    assert len({r["checksum"] for r in results}) == 1


def test_is_native_and_wasm_agree_on_checksum():
    program = make_is_program("S")
    wasm = run(program, 2, machine="graviton2")
    native = run(program, 2, machine="graviton2", mode="native")
    assert wasm.return_values()[0]["checksum"] == native.return_values()[0]["checksum"]


# ---------------------------------------------------------------------- NPB DT


@pytest.mark.parametrize("topology", ["bh", "wh"])
def test_dt_topologies_move_expected_volume(topology):
    job = run(make_dt_program(topology, "S"), 4, machine="graviton2")
    results = job.return_values()
    total_bytes = sum(r["bytes_moved"] for r in results)
    elems = 1 << 10
    # bh: 3 feeders send to rank 0 (each message counted at both endpoints).
    assert total_bytes == 2 * 3 * elems * 8
    assert all(r["throughput_mb_s"] > 0 for r in results)


def test_dt_simd_flag_is_carried_through():
    with_simd = make_dt_program("bh", "S", simd=True)
    without = with_simd.with_simd(False)
    assert with_simd.simd and not without.simd
    job = run(without, 2, machine="graviton2")
    assert job.return_values()[0]["simd"] is True or job.return_values()[0]["simd"] is False


# ------------------------------------------------------------------------- IOR


def test_ior_round_trips_data_through_wasi_and_reports_bandwidth():
    job = run(make_ior_program(block_size=1 << 20, functional_bytes=1 << 14), 2,
              machine="supermuc-ng", ranks_per_node=1)
    result = job.return_values()[0]
    assert result["data_ok"]
    assert result["written_bytes"] == 1 << 14
    assert result["read_bandwidth_mib_s"] > 0
    assert result["write_bandwidth_mib_s"] > 0


def test_ior_native_path_also_round_trips():
    job = run(make_ior_program(block_size=1 << 20, functional_bytes=1 << 12), 2,
              machine="supermuc-ng", ranks_per_node=1, mode="native")
    assert all(r["data_ok"] for r in job.return_values())


# ------------------------------------------------------------ translation probe


def test_translation_pingpong_records_per_datatype_samples():
    job = run(make_translation_pingpong_program(message_sizes=(8, 1024), iterations=1), 2,
              machine="graviton2")
    rows = job.return_values()[0]["rows"]
    assert set(rows) == {"MPI_BYTE", "MPI_CHAR", "MPI_INT", "MPI_FLOAT", "MPI_DOUBLE", "MPI_LONG"}
    for name in rows:
        assert job.metrics.series(f"embedder.translation.{name}").count > 0


def test_translation_pingpong_single_rank_skips():
    job = run(make_translation_pingpong_program(message_sizes=(8,), iterations=1), 1,
              machine="graviton2")
    assert "skipped" in job.return_values()[0]


# ----------------------------------------------------------------------- Faasm


def test_faabric_bus_moves_messages_in_order():
    bus = FaabricMessageBus()
    bus.send(0, 1, 7, b"first")
    bus.send(0, 1, 7, b"second")
    assert bus.recv(1, 0, 7) == b"first"
    assert bus.recv(1, 0, 7) == b"second"
    with pytest.raises(LookupError):
        bus.recv(1, 0, 7)
    assert bus.messages == 2


def test_faasm_pingpong_is_slower_than_mpiwasm_model():
    from repro.harness.experiments import imb_model_series
    from repro.sim.machines import supermuc_ng

    faasm = FaasmPlatform()
    sizes = (1, 1024, 65536, 1 << 20)
    mpiwasm = imb_model_series(supermuc_ng(), "pingpong", 2, sizes)
    for nbytes in sizes:
        assert faasm.pingpong_iteration_time(nbytes) * 1e6 > mpiwasm[nbytes]["wasm_us"]


def test_faasm_functional_pingpong_preserves_payload():
    faasm = FaasmPlatform()
    total, payload = faasm.run_pingpong(nbytes=512, iterations=3)
    assert total > 0
    assert len(payload) == 512
    assert payload == bytes((i * 31) & 0xFF for i in range(512))


def test_faasm_cannot_run_imb_without_user_communicators():
    faasm = FaasmPlatform()
    assert not faasm.supports_benchmark("imb")
    assert faasm.supports_benchmark("pingpong")
    assert FaasmPlatform(FaasmConfig(supports_user_communicators=True)).supports_benchmark("imb")
