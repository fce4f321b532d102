"""Table 1: compile duration and single-core performance per compiler back-end."""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.toolchain.wasicc import compile_guest
from repro.wasm.compilers import get_backend
from repro.harness import table1_compiler_backends


@pytest.mark.parametrize("backend", ["singlepass", "cranelift", "llvm"])
def test_table1_compile_duration(benchmark, backend):
    """Wall-clock AoT compilation time of the HPCG guest module per back-end."""
    app = compile_guest(make_hpcg_program(dims=(12, 6, 6), iterations=2))
    compiled = benchmark(lambda: get_backend(backend).compile(app.module))
    assert compiled.function_count == len(app.module.functions)


def test_table1_rows(benchmark):
    """The full Table 1 (compile ms + kernel MFLOP/s) as produced by the harness."""
    result = benchmark.pedantic(
        lambda: table1_compiler_backends(dims=(10, 6, 6), kernel_iterations=20),
        rounds=1, iterations=1,
    )
    report(
        "Table 1 (paper: Singlepass 52 ms / 0.38 GF, Cranelift 150 ms / 1.32 GF, LLVM 2811 ms / 1.54 GF)",
        [
            f"{name:<11s} compile={row['compile_ms']:.3f} ms   kernel={row['kernel_mflops']:.3f} MFLOP/s"
            for name, row in result.items()
        ],
    )
    # Table 1's orderings, and Cranelift at >= half of LLVM (the paper: 86 %).
    compile_ms = [result[name]["compile_ms"] for name in ("singlepass", "cranelift", "llvm")]
    kernel = [result[name]["kernel_mflops"] for name in ("singlepass", "cranelift", "llvm")]
    assert compile_ms[0] < compile_ms[1] < compile_ms[2], compile_ms
    assert kernel[0] < kernel[1] < kernel[2], kernel
    assert kernel[1] >= 0.5 * kernel[2], kernel
