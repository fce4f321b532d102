#!/usr/bin/env python3
"""Compare the Singlepass, Cranelift and LLVM back-ends (Table 1 of the paper).

Compiles the HPCG guest module with each back-end, reports the compile
duration and the achieved throughput of the Wasm ``hpcg_ddot`` kernel, and
demonstrates the AoT compilation cache (§3.3): the second compilation of the
same module is a cache hit and skips the compile step entirely.

Run:  python examples/compiler_backends.py
"""

from __future__ import annotations

from repro.api import Session
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.harness import table1_compiler_backends


def main() -> int:
    print("Table 1 reproduction (compile duration and single-core kernel performance)")
    print(f"{'backend':<12s} {'compile (ms)':>14s} {'kernel MFLOP/s':>16s}")
    rows = table1_compiler_backends(dims=(12, 6, 6), kernel_iterations=30)
    for backend, row in rows.items():
        print(f"{backend:<12s} {row['compile_ms']:>14.3f} {row['kernel_mflops']:>16.3f}")
    print("(paper, native scale: Singlepass 52 ms / 0.38 GFLOP/s, Cranelift 150 ms / 1.32, LLVM 2811 ms / 1.54)")

    print("\nAoT cache behaviour (same module, compiled twice with LLVM):")
    program = make_hpcg_program(dims=(12, 6, 6), iterations=2)
    with Session(backend="llvm") as session:
        for attempt in ("first", "second"):
            compiled = session.compile(program)
            hit = session.cache_summary()["hits"] > 0
            print(f"  {attempt:<6s} compile: {compiled.compile_seconds * 1e3:8.3f} ms (cache hit: {hit})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
