#!/usr/bin/env python3
"""HPCG scaling study: native vs Wasm from 1 rank to 6144 ranks (Figure 5c / 4f).

Small configurations are executed functionally (the CG solver really runs and
converges on every rank, dot products go through ``MPI_Allreduce`` in the
embedder); the paper-scale configurations use the calibrated performance model
so the full curve regenerates in seconds.

Run:  python examples/hpcg_scaling.py
"""

from __future__ import annotations

from repro.api import run
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.harness import hpcg_scaling_model
from repro.sim.machines import graviton2, supermuc_ng


def main() -> int:
    print("Functional runs (small grids, every rank executes the CG solver):")
    program = make_hpcg_program(dims=(8, 6, 4), iterations=6)
    for nranks in (1, 2, 4):
        wasm = run(program, nranks, machine="graviton2", backend="llvm")
        native = run(program, nranks, machine="graviton2", mode="native")
        w = wasm.return_values()[0]
        print(f"  {nranks} ranks: residual {w['residual_initial']:.2e} -> {w['residual_final']:.2e} | "
              f"wasm {wasm.makespan*1e3:.2f} ms vs native {native.makespan*1e3:.2f} ms (virtual)")

    print("\nFigure 5c (SuperMUC-NG, model mode):")
    print(f"{'ranks':>6s} {'native GF':>12s} {'wasm GF':>12s} {'gap':>7s}")
    for nranks, row in hpcg_scaling_model(supermuc_ng(),
                                          rank_counts=(48, 96, 144, 192, 768, 1536, 3072, 6144)).items():
        print(f"{nranks:>6d} {row['native_gflops']:>12.1f} {row['wasm_gflops']:>12.1f} "
              f"{row['wasm_reduction']:>6.1%}")
    print("(paper: the Wasm execution falls ~14% behind native at 6144 ranks)")

    print("\nFigure 4f (Graviton2, model mode):")
    for nranks, row in hpcg_scaling_model(graviton2(), rank_counts=(1, 2, 4, 8, 16, 32)).items():
        print(f"  {nranks:>3d} ranks: native {row['native_gflops']:6.2f} GF, wasm {row['wasm_gflops']:6.2f} GF")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
