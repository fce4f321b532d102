"""Figure 5: NPB IS/DT, IOR bandwidth, and HPCG scaling on SuperMUC-NG."""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.benchmarks_suite.npb import make_is_program
from repro.api import run
from repro.harness import figure5_npb_ior_hpcg


def test_figure5_model_sweep(benchmark):
    result = benchmark(figure5_npb_ior_hpcg)
    hpcg = result["hpcg"]
    lines = [
        f"IS   @1024 ranks: native={result['is'][1024]['native_mops']:.0f} Mop/s, "
        f"wasm={result['is'][1024]['wasm_mops']:.0f} Mop/s (paper: ~8546 vs ~8260)",
        f"DT   SIMD speedup (Wasm w/ vs w/o): {result['dt_simd_speedup']:.2f}x (paper: 1.36x)",
        f"IOR  @16 MiB blocks: read={result['ior'][16]['wasm_read_mib_s']:.0f} MiB/s, "
        f"write={result['ior'][16]['wasm_write_mib_s']:.0f} MiB/s (ceiling 47684 MiB/s)",
        f"HPCG @6144 ranks: native={hpcg[6144]['native_gflops']:.0f} GF, "
        f"wasm={hpcg[6144]['wasm_gflops']:.0f} GF, reduction="
        f"{hpcg[6144]['wasm_reduction']:.1%} (paper: 14%)",
    ]
    report("Figure 5 (NPB / IOR / HPCG)", lines)
    assert hpcg[6144]["wasm_reduction"] == pytest.approx(0.14, abs=0.05)


def test_figure5_functional_is_point(benchmark):
    """Functional NPB IS run (class S, 4 ranks) under MPIWasm."""
    job = benchmark.pedantic(
        lambda: run(make_is_program("S"), 4, machine="supermuc-ng", ranks_per_node=4),
        rounds=1, iterations=1,
    )
    assert all(r["sorted_ok"] for r in job.return_values())


def test_figure5_functional_hpcg_point(benchmark):
    """Functional HPCG run (small grid, 2 ranks) under MPIWasm."""
    program = make_hpcg_program(dims=(8, 4, 4), iterations=4)
    job = benchmark.pedantic(
        lambda: run(program, 2, machine="supermuc-ng", ranks_per_node=2),
        rounds=1, iterations=1,
    )
    assert job.return_values()[0]["converging"]
