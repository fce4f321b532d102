"""Tests for the experiment harness: every table/figure driver and its claims."""

from __future__ import annotations

import pytest

from repro.harness import (
    figure3_imb_supermuc,
    figure4_graviton2,
    figure5_npb_ior_hpcg,
    figure6_translation_overhead,
    figure7_faasm_comparison,
    hpcg_scaling_model,
    imb_model_series,
    table1_compiler_backends,
    table2_binary_sizes,
)
from repro.harness.report import format_table, geometric_mean_ratio, rows_to_csv, series_to_csv
from repro.sim.machines import graviton2, supermuc_ng

SMALL_SIZES = (1, 64, 4096, 65536, 1 << 20)


# ------------------------------------------------------------------- reporting


def test_format_table_aligns_columns():
    text = format_table(["a", "metric"], [[1, 2.5], ["xx", 0.001]], title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "a" in lines[1] and "metric" in lines[1]
    assert len(lines) == 5


def test_csv_helpers():
    csv_text = series_to_csv({1: {"x": 2}, 2: {"x": 3}}, x_name="size")
    assert csv_text.splitlines()[0] == "size,x"
    assert rows_to_csv(["a"], [[1], [2]]).splitlines() == ["a", "1", "2"]
    assert geometric_mean_ratio({1: 4.0}, {1: 2.0}) == pytest.approx(2.0)
    assert geometric_mean_ratio({}, {}) == 0.0


# --------------------------------------------------------------------- Table 1


@pytest.fixture(scope="module")
def table1():
    return table1_compiler_backends(dims=(8, 4, 4), kernel_iterations=10)


def test_table1_has_all_backends(table1):
    assert set(table1) == {"singlepass", "cranelift", "llvm"}
    for row in table1.values():
        assert row["compile_ms"] >= 0
        assert row["kernel_mflops"] > 0


def test_table1_orderings_match_paper(table1):
    # Compile and kernel: Singlepass < Cranelift < LLVM, and Cranelift at
    # least half of LLVM (the paper has 86 %).
    compile_ms = [table1[name]["compile_ms"] for name in ("singlepass", "cranelift", "llvm")]
    kernel = [table1[name]["kernel_mflops"] for name in ("singlepass", "cranelift", "llvm")]
    assert compile_ms[0] < compile_ms[1] < compile_ms[2], compile_ms
    assert kernel[0] < kernel[1] < kernel[2], kernel
    assert kernel[1] >= 0.5 * kernel[2], kernel
    # All back-ends compute the same checksum (they agree bit-for-bit).
    checks = {round(row["checksum"], 6) for row in table1.values()}
    assert len(checks) == 1


# --------------------------------------------------------------------- Table 2


def test_table2_reproduces_headline_claims():
    result = table2_binary_sizes()
    assert len(result["rows"]) == 5
    assert 110 <= result["average_static_to_wasm_ratio"] <= 175   # paper: 139.5x
    assert set(result["wasm_larger_than_dynamic"]) == {"HPCG", "IS", "DT"}
    # The repository's own guest modules encode to real (non-trivial) binaries.
    for name, size in result["encoded_guest_module_bytes"].items():
        assert size > 500, name


# -------------------------------------------------------------------- Figure 3


@pytest.fixture(scope="module")
def figure3():
    return figure3_imb_supermuc(message_sizes=SMALL_SIZES)


def test_figure3_covers_all_nine_routines(figure3):
    assert set(figure3["series"]) == {
        "pingpong", "sendrecv", "bcast", "allreduce", "allgather", "alltoall",
        "reduce", "gather", "scatter",
    }


def test_figure3_wasm_close_to_native(figure3):
    for routine, slowdown in figure3["gm_slowdowns"].items():
        assert -0.01 <= slowdown <= 0.20, routine   # paper: 0.05x-0.14x


def test_figure3_pingpong_bandwidth_matches_paper_magnitude(figure3):
    # Paper: ~12.8 GiB/s native, ~13.4 GiB/s Wasm maximum PingPong bandwidth.
    assert 8 <= figure3["max_bandwidth_native_gib_s"] <= 16
    assert 8 <= figure3["max_bandwidth_wasm_gib_s"] <= 16


def test_figure3_times_grow_with_message_size_and_ranks(figure3):
    series = figure3["series"]["allreduce"]
    for nranks, rows in series.items():
        sizes = sorted(rows)
        assert rows[sizes[-1]]["native_us"] > rows[sizes[0]]["native_us"]
    assert series[6144][65536]["native_us"] > series[768][65536]["native_us"]


# -------------------------------------------------------------------- Figure 4


def test_figure4_graviton_slowdowns_are_small():
    result = figure4_graviton2(message_sizes=SMALL_SIZES)
    assert set(result["series"]) == {"pingpong", "sendrecv", "allreduce", "allgather", "alltoall"}
    for routine, slowdown in result["gm_slowdowns"].items():
        assert -0.05 <= slowdown <= 0.35, routine
    hpcg = result["hpcg"]
    assert hpcg[32]["native_gflops"] > hpcg[1]["native_gflops"]
    # Single node: Wasm tracks native closely (paper Figure 4f).
    assert hpcg[32]["wasm_reduction"] < 0.08


# -------------------------------------------------------------------- Figure 5


@pytest.fixture(scope="module")
def figure5():
    return figure5_npb_ior_hpcg()


def test_figure5_is_scaling(figure5):
    is_series = figure5["is"]
    assert is_series[1024]["native_mops"] > is_series[64]["native_mops"]
    for row in is_series.values():
        assert row["wasm_mops"] <= row["native_mops"]
        assert row["wasm_mops"] > 0.8 * row["native_mops"]


def test_figure5_dt_simd_ablation(figure5):
    for row in figure5["dt"].values():
        assert row["native_mb_s"] >= row["wasm_simd_mb_s"] >= row["wasm_nosimd_mb_s"]
    # Paper: SIMD gives the Wasm DT build ~1.36x more throughput.
    assert 1.15 <= figure5["dt_simd_speedup"] <= 2.2


def test_figure5_ior_wasi_overhead_negligible(figure5):
    for row in figure5["ior"].values():
        assert row["wasm_read_mib_s"] == pytest.approx(row["native_read_mib_s"], rel=0.05)
        assert row["wasm_write_mib_s"] == pytest.approx(row["native_write_mib_s"], rel=0.05)
        assert row["native_read_mib_s"] < 47684 * 1.05   # the 400 Gbit/s ceiling


def test_figure5_hpcg_gap_grows_with_scale(figure5):
    hpcg = figure5["hpcg"]
    assert hpcg[6144]["wasm_reduction"] == pytest.approx(0.14, abs=0.05)   # paper: 14%
    assert hpcg[192]["wasm_reduction"] < hpcg[6144]["wasm_reduction"]
    assert hpcg[6144]["native_gflops"] > hpcg[192]["native_gflops"]


def test_hpcg_scaling_model_monotone_in_ranks():
    model = hpcg_scaling_model(supermuc_ng(), rank_counts=(48, 192, 768))
    assert model[768]["native_gflops"] > model[192]["native_gflops"] > model[48]["native_gflops"]


# -------------------------------------------------------------------- Figure 6


def test_figure6_translation_overheads_match_paper_band():
    result = figure6_translation_overhead(functional=False)
    avg = result["average_ns"]
    assert set(avg) == {"MPI_BYTE", "MPI_CHAR", "MPI_INT", "MPI_FLOAT", "MPI_DOUBLE", "MPI_LONG"}
    # The paper's per-datatype averages are 85-105 ns; the sweep includes
    # multi-MiB messages where the lock-contention knee raises the mean.
    for name, value in avg.items():
        assert 70 <= value <= 220, name
    assert avg["MPI_BYTE"] < avg["MPI_LONG"]
    # Knee above 256 KiB is visible in the per-size series.
    model = result["model_ns"]["MPI_DOUBLE"]
    assert model[1048576] > model[1024] + 30


def test_figure6_functional_measurement_agrees_with_model():
    result = figure6_translation_overhead(message_sizes=(8, 1024), functional=True)
    measured = result["measured_mean_ns"]
    assert measured, "expected instrumented samples from the functional run"
    for name, value in measured.items():
        assert 60 <= value <= 250, name


# -------------------------------------------------------------------- Figure 7


def test_figure7_mpiwasm_beats_faasm_by_paper_factor():
    result = figure7_faasm_comparison(message_sizes=SMALL_SIZES)
    assert result["gm_speedup"] == pytest.approx(4.28, rel=0.45)   # paper: 4.28x
    assert not result["faasm_runs_imb"]
    for row in result["series"].values():
        assert row["faasm_us"] > row["mpiwasm_us"]


# -------------------------------------------------------------- imb model sanity


def test_imb_model_series_slowdown_positive_and_bounded():
    series = imb_model_series(graviton2(), "allreduce", 32, SMALL_SIZES)
    for row in series.values():
        assert row["wasm_us"] >= row["native_us"]
        assert row["slowdown"] < 0.5


def test_harness_cli_runs_selected_experiment(capsys):
    from repro.harness.cli import main

    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "static/wasm" in out
    with pytest.raises(SystemExit):
        main(["tableX"])


def test_harness_cli_profile_emits_fusion_report(capsys):
    import json

    from repro.harness.cli import main

    assert main(["profile", "allreduce", "--nranks", "2",
                 "--emit-fusion-report"]) == 0
    out = capsys.readouterr().out
    assert "mined superinstruction candidates" in out

    assert main(["profile", "allreduce", "--nranks", "2",
                 "--emit-fusion-report", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "fusion_report" in report
    for rec in report["fusion_report"]:
        assert rec["width"] == len(rec["kinds"]) >= 2 and rec["score"] > 0


@pytest.mark.parametrize("backend", ["cranelift", "llvm"])
def test_harness_cli_profile_rejects_generated_code_backends(capsys, backend):
    from repro.harness.cli import main

    assert main(["profile", "allreduce", "--nranks", "2", "--backend", backend]) != 0
    out = capsys.readouterr().out.strip()
    assert len(out.splitlines()) == 1
    assert backend in out and "singlepass" in out
    assert "dispatches" not in out
