"""HPCG: the High Performance Conjugate Gradient benchmark.

HPCG solves a sparse linear system arising from a 27-point (here: 7-point)
Laplacian with a preconditioned conjugate-gradient iteration and reports the
achieved GFLOP/s and memory bandwidth.  Its communication signature -- the one
the paper analyses in §4.5 -- is the ``MPI_Allreduce`` of a single double per
dot product, called more and more often as the rank count grows.

The guest below runs a real (unpreconditioned) CG iteration on a local
7-point stencil subdomain per rank, with every dot product reduced across
ranks via ``MPI_Allreduce``.  In Wasm mode the vector kernels (``ddot`` and
``waxpby``) execute as genuine Wasm functions emitted by
:func:`build_hpcg_kernels` and compiled by the selected back-end -- this is
the workload Table 1 uses to compare Singlepass/Cranelift/LLVM.  Compute time
beyond the functional problem size is charged through the machine's sustained
rate model so figure-scale GFLOP/s numbers have the right magnitude.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.linker import PAPER_APPLICATIONS
from repro.wasm.builder import ModuleBuilder

#: Default (scaled-down) local problem dimensions for functional runs.
DEFAULT_DIMS = (16, 8, 8)
#: FLOPs per CG iteration per unknown (SpMV + 2 dots + 3 AXPYs, 7-pt stencil).
FLOPS_PER_ROW_PER_ITER = 14 + 2 * 2 + 3 * 2
#: Bytes touched per unknown per iteration (vectors + matrix row, 8-byte reals).
BYTES_PER_ROW_PER_ITER = 8 * (7 + 10)


def build_hpcg_kernels(mb: ModuleBuilder) -> None:
    """Emit the HPCG vector kernels as Wasm functions (``ddot`` and ``waxpby``).

    ``ddot(a_ptr, b_ptr, n) -> f64`` computes a dot product over ``n`` doubles;
    ``waxpby(w_ptr, x_ptr, y_ptr, alpha, beta, n)`` computes
    ``w = alpha*x + beta*y``.  Both loop over linear memory with f64 loads and
    stores, so the compiler back-end really executes numeric Wasm code.
    """
    ddot = mb.function(
        "hpcg_ddot",
        params=[("a", "i32"), ("b", "i32"), ("n", "i32")],
        results=["f64"],
        export=True,
    )
    ddot.add_local("i", "i32")
    ddot.add_local("acc", "f64")
    with ddot.for_range("i", end_local="n"):
        # acc += a[i] * b[i]
        ddot.get("acc")
        ddot.get("a").get("i").i32_const(8).emit("i32.mul").emit("i32.add").load("f64.load")
        ddot.get("b").get("i").i32_const(8).emit("i32.mul").emit("i32.add").load("f64.load")
        ddot.emit("f64.mul").emit("f64.add").set("acc")
    ddot.get("acc")

    waxpby = mb.function(
        "hpcg_waxpby",
        params=[("w", "i32"), ("x", "i32"), ("y", "i32"), ("alpha", "f64"), ("beta", "f64"), ("n", "i32")],
        results=[],
        export=True,
    )
    waxpby.add_local("i", "i32")
    waxpby.add_local("addr", "i32")
    with waxpby.for_range("i", end_local="n"):
        waxpby.get("w").get("i").i32_const(8).emit("i32.mul").emit("i32.add").set("addr")
        waxpby.get("addr")
        waxpby.get("alpha")
        waxpby.get("x").get("i").i32_const(8).emit("i32.mul").emit("i32.add").load("f64.load")
        waxpby.emit("f64.mul")
        waxpby.get("beta")
        waxpby.get("y").get("i").i32_const(8).emit("i32.mul").emit("i32.add").load("f64.load")
        waxpby.emit("f64.mul")
        waxpby.emit("f64.add")
        waxpby.store("f64.store")


def _apply_stencil(x: np.ndarray, dims) -> np.ndarray:
    """Matrix-free 7-point Laplacian on a local (nx, ny, nz) grid."""
    nx, ny, nz = dims
    grid = x.reshape(nz, ny, nx)
    out = 6.0 * grid
    out[1:, :, :] -= grid[:-1, :, :]
    out[:-1, :, :] -= grid[1:, :, :]
    out[:, 1:, :] -= grid[:, :-1, :]
    out[:, :-1, :] -= grid[:, 1:, :]
    out[:, :, 1:] -= grid[:, :, :-1]
    out[:, :, :-1] -= grid[:, :, 1:]
    # Keep the operator positive definite on the local block.
    out += 0.1 * grid
    return out.reshape(-1)


def make_hpcg_program(
    dims=DEFAULT_DIMS,
    iterations: int = 12,
    sustained_gflops: float = 1.0,
    use_wasm_kernels: bool = True,
    modelled_rows_per_rank: Optional[int] = None,
) -> GuestProgram:
    """Build the HPCG guest program.

    ``sustained_gflops`` is the per-rank sustained rate used to charge compute
    time (set by the harness from the machine preset and execution mode);
    ``modelled_rows_per_rank`` optionally scales the *charged* problem up to
    the paper's per-rank size while the functional solve stays small.
    """
    nx, ny, nz = dims
    n_local = nx * ny * nz

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        size = api.size()

        rows_for_model = modelled_rows_per_rank or n_local
        flops_per_iter = rows_for_model * FLOPS_PER_ROW_PER_ITER
        bytes_per_iter = rows_for_model * BYTES_PER_ROW_PER_ITER
        compute_seconds_per_iter = flops_per_iter / (sustained_gflops * 1e9)

        rng = np.random.default_rng(42 + rank)
        b = rng.random(n_local)
        x = np.zeros(n_local)

        # Guest-side vectors for the Wasm kernels (dot products of r and p).
        wasm_kernels = use_wasm_kernels and not api.native
        if wasm_kernels:
            r_ptr, r_view = api.alloc_array(n_local, abi.MPI_DOUBLE)
            p_ptr, p_view = api.alloc_array(n_local, abi.MPI_DOUBLE)

        dot_send_ptr, dot_send = api.alloc_array(1, abi.MPI_DOUBLE)
        dot_recv_ptr, dot_recv = api.alloc_array(1, abi.MPI_DOUBLE)

        def global_dot(u: np.ndarray, v: np.ndarray) -> float:
            if wasm_kernels:
                r_view[:] = u
                p_view[:] = v
                [local] = api.call_kernel("hpcg_ddot", r_ptr, p_ptr, n_local)
            else:
                local = float(np.dot(u, v))
            dot_send[0] = local
            api.allreduce(dot_send_ptr, dot_recv_ptr, 1, abi.MPI_DOUBLE, abi.MPI_SUM)
            return float(dot_recv[0])

        t_start = api.wtime()
        r = b - _apply_stencil(x, dims)
        p = r.copy()
        rs_old = global_dot(r, r)
        residuals = [rs_old]
        for _ in range(iterations):
            Ap = _apply_stencil(p, dims)
            alpha = rs_old / max(global_dot(p, Ap), 1e-300)
            x = x + alpha * p
            r = r - alpha * Ap
            rs_new = global_dot(r, r)
            beta = rs_new / max(rs_old, 1e-300)
            p = r + beta * p
            rs_old = rs_new
            residuals.append(rs_new)
            api.compute(compute_seconds_per_iter)
        elapsed = max(api.wtime() - t_start, 1e-12)

        total_flops = iterations * flops_per_iter * size
        total_bytes = iterations * bytes_per_iter * size
        api.mpi_finalize()
        return {
            "ranks": size,
            "iterations": iterations,
            "gflops_total": total_flops / elapsed / 1e9,
            "bandwidth_gb_s": total_bytes / elapsed / 1e9,
            "elapsed": elapsed,
            "residual_initial": residuals[0],
            "residual_final": residuals[-1],
            "converging": residuals[-1] < residuals[0],
            "allreduce_calls": 2 * iterations + 1,
        }

    return GuestProgram(
        name="hpcg",
        main=main,
        memory_pages=128,
        build_kernels=build_hpcg_kernels,
        profile=PAPER_APPLICATIONS["HPCG"],
        description=f"HPCG conjugate gradient, local grid {dims}, {iterations} iterations",
    )
