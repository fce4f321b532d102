"""Experiment drivers: one function per table/figure of the paper.

Each function returns plain dictionaries/lists (no plotting dependency) and
records which execution mode produced each point:

* ``functional`` -- real guests executed rank-by-rank on the simulated cluster
  (used for the small configurations and all correctness checks),
* ``model`` -- the same interconnect/collective/compute models evaluated in
  closed form (used for the paper's 768/6144-rank and 4-MiB-message sweeps,
  which would be pointlessly slow to run functionally on a laptop).

Both modes share one parameterisation (machine presets + the embedder's
measured overhead model), so the native-vs-Wasm deltas have a single source
of truth.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.api.registry import EXPERIMENTS, register_experiment
from repro.api.session import current_session
from repro.baselines.faasm import FaasmPlatform
from repro.core.config import OVERHEADS
from repro.benchmarks_suite.custom_pingpong import (
    FIGURE6_DATATYPES,
    FIGURE6_MESSAGE_SIZES,
    make_translation_pingpong_program,
)
from repro.benchmarks_suite.hpcg import (
    BYTES_PER_ROW_PER_ITER,
    FLOPS_PER_ROW_PER_ITER,
    make_hpcg_program,
)
from repro.benchmarks_suite.imb import NBC_ROUTINES, make_imb_program
from repro.benchmarks_suite.npb import make_dt_program, make_is_program
from repro.benchmarks_suite.ior import WASI_INDIRECTION_OVERHEAD_PER_BYTE, make_ior_program
from repro.sim.machines import MachinePreset, graviton2, supermuc_ng
from repro.sim.network import CollectiveCostModel
from repro.toolchain.linker import LinkerModel, table2_rows
from repro.toolchain.wasicc import compile_guest
from repro.wasm.compilers import get_backend

#: Table 1 reports each back-end's fastest of this many compiles.
_TABLE1_COMPILE_REPEATS = 3

#: Message-size sweep used by the figure-scale IMB models (1 B .. 4 MiB).
FIGURE_MESSAGE_SIZES = tuple(2 ** k for k in range(0, 23))

#: Datatype-argument count per IMB routine (send/recv types count separately).
_ROUTINE_DATATYPE_ARGS = {
    "pingpong": 1, "sendrecv": 2, "bcast": 1, "allreduce": 1, "reduce": 1,
    "allgather": 2, "alltoall": 2, "gather": 2, "scatter": 2,
}


# --------------------------------------------------------------------- helpers


def _wasm_call_overhead(routine: str, nbytes: int, nranks: int = 2) -> float:
    """Embedder overhead added to one IMB iteration in Wasm mode.

    Point-to-point routines pay one trampoline + translation per iteration
    (the receive-side translation overlaps with the wire time).  For the
    collectives the host library re-enters the embedder-provided progress
    path on every tree/ring round, so the effective per-iteration overhead
    grows with ``ceil(log2(p))`` -- this is the same effect the paper uses to
    explain the HPCG gap at large rank counts (§4.5/§4.6).
    """
    n_args = _ROUTINE_DATATYPE_ARGS.get(routine, 1)
    per_call = OVERHEADS.call_cost(n_args, "MPI_BYTE", nbytes)
    if routine in ("pingpong", "sendrecv"):
        return per_call
    rounds = max(1.0, math.ceil(math.log2(max(nranks, 2))) * 0.75)
    return per_call * rounds


def _geometric_mean(values: Sequence[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def imb_model_series(
    machine: MachinePreset,
    routine: str,
    nranks: int,
    message_sizes: Sequence[int] = FIGURE_MESSAGE_SIZES,
) -> Dict[int, Dict[str, float]]:
    """Native and Wasm iteration times (us) for one routine at figure scale."""
    # Multi-node machines benchmark across nodes (the paper's SuperMUC runs);
    # single-node machines (Graviton2) stay on the shared-memory transport.
    interconnect = machine.interconnect() if machine.max_nodes > 1 else machine.intranode()
    cost_model = CollectiveCostModel(interconnect)
    series: Dict[int, Dict[str, float]] = {}
    for nbytes in message_sizes:
        native = cost_model.cost(routine, nbytes, nranks)
        wasm = native + _wasm_call_overhead(routine, nbytes, nranks)
        series[nbytes] = {
            "native_us": native * 1e6,
            "wasm_us": wasm * 1e6,
            "slowdown": wasm / native - 1.0,
        }
    return series


# ------------------------------------------------------------------- Table 1


@register_experiment("table1")
def table1_compiler_backends(
    backends: Sequence[str] = ("singlepass", "cranelift", "llvm"),
    dims: Tuple[int, int, int] = (12, 6, 6),
    kernel_iterations: int = 40,
) -> Dict[str, Dict[str, float]]:
    """Table 1: compile duration and single-core HPCG kernel performance.

    Compile durations are real wall-clock measurements of each back-end
    compiling the HPCG guest module.  The "single-core performance" column
    runs the module's Wasm ``hpcg_ddot`` kernel ``kernel_iterations`` times
    under each back-end's executor and reports achieved (host-side) MFLOP/s
    -- absolute values are Python-scale, but the ordering and ratios between
    back-ends are the reproduced quantity.  Both columns take the best of
    their repeats, since host contention only ever slows a run, and the
    kernel calls rotate through the back-ends so that a slow spell of the
    host hits all of them alike.  The first call of each also pays
    Cranelift's first-call code generation.
    """
    from repro.wasm.runtime import ImportObject, Instance
    from repro.core.mpi_imports import register_mpi_imports
    from repro.wasi.snapshot_preview1 import WasiEnvironment, build_wasi_imports
    import numpy as np

    app = compile_guest(make_hpcg_program(dims=dims, iterations=2))
    n = dims[0] * dims[1] * dims[2]
    results: Dict[str, Dict[str, float]] = {}
    kernels = {}
    for backend_name in backends:
        backend = get_backend(backend_name)
        compiled = min((backend.compile(app.module) for _ in range(_TABLE1_COMPILE_REPEATS)),
                       key=lambda c: c.compile_seconds)
        executor = backend.executor_for(compiled)
        # Stand-alone instance: no MPI (no Env) needed to drive the ddot kernel.
        imports = ImportObject()
        register_mpi_imports(imports, None)
        build_wasi_imports(WasiEnvironment(), imports)
        instance = Instance(app.module, imports, executor=executor)
        [a_ptr] = instance.invoke("malloc", n * 8)
        [b_ptr] = instance.invoke("malloc", n * 8)
        instance.exported_memory().ndarray(a_ptr, n, "float64")[:] = np.arange(n, dtype=np.float64)
        instance.exported_memory().ndarray(b_ptr, n, "float64")[:] = 1.0
        kernels[backend_name] = (instance, a_ptr, b_ptr)
        results[backend_name] = {"compile_ms": compiled.compile_seconds * 1e3, "checksum": 0.0}

    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(kernel_iterations):
        for backend_name, (instance, a_ptr, b_ptr) in kernels.items():
            start = time.perf_counter()
            [value] = instance.invoke("hpcg_ddot", a_ptr, b_ptr, n)
            best[backend_name] = min(best[backend_name], time.perf_counter() - start)
            results[backend_name]["checksum"] += value
    for backend_name, row in results.items():
        row["kernel_mflops"] = 2.0 * n / best[backend_name] / 1e6
    return results


# ------------------------------------------------------------------- Table 2


@register_experiment("table2")
def table2_binary_sizes() -> Dict[str, object]:
    """Table 2: native dynamic / native static / Wasm binary sizes.

    Combines the linker size model (calibrated against the applications the
    paper measures) with the *actually encoded* sizes of this repository's
    guest modules, and reports the headline static-to-Wasm ratio of §4.4.
    """
    rows = table2_rows()
    model = LinkerModel()
    encoded = {}
    for name, factory in (
        ("IMB", lambda: make_imb_program("allreduce")),
        ("HPCG", make_hpcg_program),
        ("IOR", make_ior_program),
        ("IS", make_is_program),
        ("DT", make_dt_program),
    ):
        encoded[name] = compile_guest(factory()).size
    return {
        "rows": [r.row() for r in rows],
        "average_static_to_wasm_ratio": model.average_static_to_wasm_ratio(rows),
        "wasm_larger_than_dynamic": [r.application for r in rows if r.wasm_larger_than_dynamic],
        "encoded_guest_module_bytes": encoded,
    }


# ---------------------------------------------------------------- Figures 3/4


@register_experiment("figure3")
def figure3_imb_supermuc(
    routines: Sequence[str] = ("pingpong", "sendrecv", "bcast", "allreduce",
                               "allgather", "alltoall", "reduce", "gather", "scatter"),
    rank_counts: Sequence[int] = (768, 6144),
    message_sizes: Sequence[int] = FIGURE_MESSAGE_SIZES,
) -> Dict[str, object]:
    """Figure 3: IMB native vs Wasm on SuperMUC-NG (model mode at figure scale)."""
    machine = supermuc_ng()
    out: Dict[str, object] = {"machine": machine.name, "mode": "model", "series": {}}
    gm_slowdowns: Dict[str, float] = {}
    for routine in routines:
        per_routine: Dict[int, Dict[int, Dict[str, float]]] = {}
        ranks_list = [2] if routine == "pingpong" else list(rank_counts)
        for nranks in ranks_list:
            sizes = [s for s in message_sizes if s * (nranks if routine in ("alltoall", "allgather", "gather", "scatter") else 1) <= (1 << 28)]
            per_routine[nranks] = imb_model_series(machine, routine, nranks, sizes)
        out["series"][routine] = per_routine
        largest = per_routine[ranks_list[-1]]
        gm_slowdowns[routine] = _geometric_mean(
            [row["wasm_us"] / row["native_us"] for row in largest.values()]
        ) - 1.0
    out["gm_slowdowns"] = gm_slowdowns
    # Maximum PingPong bandwidth (the §4.5 text numbers).
    pingpong = out["series"]["pingpong"][2]
    out["max_bandwidth_native_gib_s"] = max(
        nbytes / (row["native_us"] * 1e-6) / 2**30 for nbytes, row in pingpong.items()
    )
    out["max_bandwidth_wasm_gib_s"] = max(
        nbytes / (row["wasm_us"] * 1e-6) / 2**30 for nbytes, row in pingpong.items()
    )
    return out


@register_experiment("figure4")
def figure4_graviton2(
    routines: Sequence[str] = ("pingpong", "sendrecv", "allreduce", "allgather", "alltoall"),
    nranks: int = 32,
    message_sizes: Sequence[int] = FIGURE_MESSAGE_SIZES,
) -> Dict[str, object]:
    """Figure 4: selected IMB routines + HPCG on the Graviton2 node."""
    machine = graviton2()
    out: Dict[str, object] = {"machine": machine.name, "mode": "model", "series": {}}
    for routine in routines:
        ranks = 2 if routine == "pingpong" else nranks
        out["series"][routine] = {ranks: imb_model_series(machine, routine, ranks, message_sizes)}
    out["hpcg"] = hpcg_scaling_model(machine, rank_counts=(1, 2, 4, 8, 16, 32))
    out["gm_slowdowns"] = {
        routine: _geometric_mean(
            [row["wasm_us"] / row["native_us"] for row in list(series.values())[0].values()]
        ) - 1.0
        for routine, series in out["series"].items()
    }
    return out


# -------------------------------------------------------------------- HPCG model


def hpcg_scaling_model(
    machine: MachinePreset,
    rank_counts: Sequence[int] = (48, 16, 96, 144, 192, 768, 1536, 3072, 6144),
    rows_per_rank: int = 128 ** 3 // 16,
    simd_fraction: float = 0.01,
) -> Dict[int, Dict[str, float]]:
    """HPCG GFLOP/s and memory bandwidth vs rank count, native and Wasm.

    Per iteration each rank does ``rows_per_rank`` stencil rows of work at the
    machine's sustained rate and joins two 8-byte ``MPI_Allreduce`` calls.  The
    number of allreduce calls per unit of work grows with the rank count (the
    §4.5 observation: 768 ranks make 4x more Allreduce calls than 192), so the
    embedder's per-call translation overhead grows into a visible gap -- about
    14% at 6144 ranks -- while staying negligible at small scale.
    """
    interconnect = machine.interconnect() if machine.max_nodes > 1 else machine.intranode()
    cost_model = CollectiveCostModel(interconnect)
    out: Dict[int, Dict[str, float]] = {}
    for nranks in sorted(rank_counts):
        flops_per_iter = rows_per_rank * FLOPS_PER_ROW_PER_ITER
        bytes_per_iter = rows_per_rank * BYTES_PER_ROW_PER_ITER
        compute_native = flops_per_iter / (machine.sustained_gflops_per_core * 1e9)
        compute_wasm = compute_native * machine.wasm_simd_penalty(simd_fraction)
        # Allreduce calls per iteration grow linearly with scale (weak scaling
        # of the dot-product count relative to the 192-rank baseline).
        allreduce_calls = 2.0 * max(1.0, nranks / 192.0)
        allreduce_native = allreduce_calls * cost_model.allreduce(8, nranks)
        per_call_overhead = OVERHEADS.call_cost(1, "MPI_DOUBLE", 8)
        # The embedder re-translates handles in every round of the collective,
        # and acquiring the Env read lock contends more as the number of
        # in-flight translations grows with the rank count (§4.6) -- the
        # contention factor is calibrated so the 6144-rank gap lands near the
        # paper's 14%.
        rounds = max(1, int(math.ceil(math.log2(max(nranks, 2)))))
        contention = 1.0 + nranks / 1536.0
        allreduce_wasm = allreduce_calls * (
            cost_model.allreduce(8, nranks) + per_call_overhead * rounds * contention
        )
        t_native = compute_native + allreduce_native
        t_wasm = compute_wasm + allreduce_wasm
        out[nranks] = {
            "native_gflops": nranks * flops_per_iter / t_native / 1e9,
            "wasm_gflops": nranks * flops_per_iter / t_wasm / 1e9,
            "native_gb_s": nranks * bytes_per_iter / t_native / 1e9,
            "wasm_gb_s": nranks * bytes_per_iter / t_wasm / 1e9,
            "wasm_reduction": 1.0 - t_native / t_wasm,
        }
    return out


# ------------------------------------------------------------------- Figure 5


@register_experiment("figure5")
def figure5_npb_ior_hpcg(functional_ranks: int = 4) -> Dict[str, object]:
    """Figure 5: NPB IS/DT, IOR bandwidth and HPCG scaling."""
    machine = supermuc_ng()
    out: Dict[str, object] = {"machine": machine.name}

    # -- IS: Mop/s vs rank count (model: communication-bound scaling curve) --
    is_series: Dict[int, Dict[str, float]] = {}
    cost_model = CollectiveCostModel(machine.interconnect())
    keys_per_rank = 1 << 21  # class C scale per rank
    for nranks in (64, 128, 256, 512, 1024):
        sort_time = keys_per_rank * 6e-9
        comm_time = cost_model.alltoall(keys_per_rank * 4 // nranks, nranks) + cost_model.allreduce(
            4 * nranks, nranks
        )
        native = sort_time + comm_time
        wasm = sort_time * 1.03 + comm_time + _wasm_call_overhead("alltoall", keys_per_rank * 4 // nranks)
        is_series[nranks] = {
            "native_mops": nranks * keys_per_rank / native / 1e6,
            "wasm_mops": nranks * keys_per_rank / wasm / 1e6,
        }
    out["is"] = is_series

    # -- DT: throughput per topology, native vs Wasm with and without SIMD --
    dt_series: Dict[str, Dict[str, float]] = {}
    elems = 1 << 20
    for topology, fan in (("bh", 4), ("wh", 4), ("sh", 1)):
        move_time = elems * 8 / machine.interconnect().params.bandwidth * fan
        compare_native = elems * 2 / (machine.sustained_gflops_per_core * 1e9)
        simd_fraction = 0.75  # DT's pairwise comparisons vectorise heavily
        compare_simd = compare_native * machine.wasm_simd_penalty(simd_fraction, True)
        compare_nosimd = compare_native * machine.wasm_simd_penalty(simd_fraction, False)
        total_bytes = elems * 8 * fan
        dt_series[topology] = {
            "native_mb_s": total_bytes / (move_time + compare_native) / 1e6,
            "wasm_simd_mb_s": total_bytes / (move_time + compare_simd) / 1e6,
            "wasm_nosimd_mb_s": total_bytes / (move_time + compare_nosimd) / 1e6,
        }
    out["dt"] = dt_series
    out["dt_simd_speedup"] = _geometric_mean(
        [row["wasm_simd_mb_s"] / row["wasm_nosimd_mb_s"] for row in dt_series.values()]
    )

    # -- IOR: aggregate read/write bandwidth vs block size on 4 nodes ---------
    ior_series: Dict[int, Dict[str, float]] = {}
    fs = machine.filesystem
    nnodes = 4
    nranks = nnodes * machine.cores_per_node
    for block_mib in (1, 4, 8, 12, 16):
        block = block_mib << 20
        ior_series[block_mib] = {
            "native_read_mib_s": fs.aggregate_bandwidth(block, nranks, nnodes, write=False) / 2**20,
            "native_write_mib_s": fs.aggregate_bandwidth(block, nranks, nnodes, write=True) / 2**20,
            "wasm_read_mib_s": fs.aggregate_bandwidth(
                block, nranks, nnodes, write=False,
                extra_overhead_per_byte=WASI_INDIRECTION_OVERHEAD_PER_BYTE) / 2**20,
            "wasm_write_mib_s": fs.aggregate_bandwidth(
                block, nranks, nnodes, write=True,
                extra_overhead_per_byte=WASI_INDIRECTION_OVERHEAD_PER_BYTE) / 2**20,
        }
    out["ior"] = ior_series

    # -- HPCG: GFLOP/s and bandwidth scaling up to 6144 ranks -----------------
    out["hpcg"] = hpcg_scaling_model(
        machine, rank_counts=(48, 16, 96, 144, 192, 768, 1536, 3072, 6144)
    )
    out["hpcg_reduction_at_6144"] = out["hpcg"][6144]["wasm_reduction"]
    return out


# ------------------------------------------------------------------- Figure 6


@register_experiment("figure6")
def figure6_translation_overhead(
    message_sizes: Sequence[int] = FIGURE6_MESSAGE_SIZES,
    functional: bool = True,
) -> Dict[str, object]:
    """Figure 6: datatype translation overhead per datatype and message size."""
    from repro.core.datatype_translation import DatatypeTranslator

    translator = DatatypeTranslator(OVERHEADS)
    names = tuple(name for name, _handle in FIGURE6_DATATYPES)
    model_table = translator.sweep(names, tuple(message_sizes))
    result: Dict[str, object] = {
        "model_ns": {
            name: {size: value * 1e9 for size, value in row.items()}
            for name, row in model_table.items()
        },
        "average_ns": {
            name: sum(row.values()) / len(row) * 1e9 for name, row in model_table.items()
        },
    }
    if functional:
        job = current_session().run(
            make_translation_pingpong_program(message_sizes=(8, 1024, 65536), iterations=1),
            2,
            machine="graviton2",
        )
        measured = {}
        for name, _handle in FIGURE6_DATATYPES:
            series = job.metrics.series(f"embedder.translation.{name}")
            if series.count:
                measured[name] = series.mean * 1e9
        result["measured_mean_ns"] = measured
    return result


# ------------------------------------------------------------------- Figure 7


@register_experiment("figure7")
def figure7_faasm_comparison(
    message_sizes: Sequence[int] = FIGURE_MESSAGE_SIZES,
) -> Dict[str, object]:
    """Figure 7: PingPong iteration time, MPIWasm vs Faasm."""
    machine = supermuc_ng()
    mpiwasm_series = imb_model_series(machine, "pingpong", 2, message_sizes)
    faasm = FaasmPlatform()
    faasm_series = faasm.pingpong_series(message_sizes)
    rows = {
        nbytes: {
            "mpiwasm_us": mpiwasm_series[nbytes]["wasm_us"],
            "faasm_us": faasm_series[nbytes] * 1e6,
        }
        for nbytes in message_sizes
    }
    speedups = [row["faasm_us"] / row["mpiwasm_us"] for row in rows.values()]
    return {
        "series": rows,
        "gm_speedup": _geometric_mean(speedups),
        "faasm_runs_imb": faasm.supports_benchmark("imb"),
    }


# ----------------------------------------------------- collective algorithms


@register_experiment("algosweep")
def imb_algorithm_sweep(
    routine: str = "allreduce",
    nranks: int = 5,
    machine: str = "graviton2",
    message_sizes: Sequence[int] = (256, 4096, 65536),
    iterations: int = 2,
    algorithms: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Functional IMB sweep over every registered algorithm of one collective.

    The algorithm-selection analogue of the figure experiments: runs the IMB
    routine once per algorithm (forced through the shared selector, the same
    path ``REPRO_COLL_ALGO`` takes), reports the per-size timings, the
    fastest algorithm per message size, and what the default decision table
    would have picked -- so decision-table thresholds can be (re)calibrated
    against measured behaviour.  The default 5 ranks deliberately exercise
    the non-power-of-two code paths.
    """
    from repro.benchmarks_suite.imb import make_imb_algorithm_sweep_program
    from repro.mpi.algorithms.decision import DecisionTable

    program = make_imb_algorithm_sweep_program(
        routine, message_sizes=message_sizes, iterations=iterations, algorithms=algorithms
    )
    job = current_session().run(program, nranks, machine=machine)
    result = job.return_values()[0]
    collective = result["collective"]
    per_algorithm: Dict[str, Dict[int, Dict[str, float]]] = result["algorithms"]
    table = DecisionTable()
    best_per_size: Dict[int, str] = {}
    table_choice_per_size: Dict[int, str] = {}
    for size in message_sizes:
        times = {name: rows[size]["t_avg_us"] for name, rows in per_algorithm.items()}
        best_per_size[size] = min(times, key=times.get)
        table_choice_per_size[size] = table.decide(collective, size, nranks)
    return {
        "routine": routine,
        "collective": collective,
        "machine": job.machine,
        "nranks": nranks,
        "mode": "functional",
        "series": per_algorithm,
        "best_per_size": best_per_size,
        "table_choice_per_size": table_choice_per_size,
        "collective_counters": job.metrics.collective_summary(),
    }


@register_experiment("nbc")
def nbc_overlap(
    routines: Sequence[str] = NBC_ROUTINES,
    nranks: int = 4,
    machine: str = "graviton2",
    message_sizes: Sequence[int] = (256, 4096, 65536),
    iterations: int = 2,
) -> Dict[str, object]:
    """IMB-NBC style overlap sweep over the benchmarked non-blocking collectives.

    Functional runs (real schedules advanced by the progress engine through
    the full Wasm import path): for each routine, the per-size pure/overlapped
    timings plus the achieved communication/computation overlap, and the
    per-collective overlap statistics accumulated in the metrics registry.
    """
    from repro.benchmarks_suite.imb import make_imb_nbc_program

    out: Dict[str, object] = {"machine": machine, "nranks": nranks, "mode": "functional",
                              "series": {}, "overlap": {}}
    for routine in routines:
        program = make_imb_nbc_program(routine, message_sizes=message_sizes, iterations=iterations)
        job = current_session().run(program, nranks, machine=machine)
        result = job.return_values()[0]
        out["series"][routine] = result["rows"]
        summary = job.metrics.nbc_overlap_summary().get(result["collective"], {})
        out["overlap"][routine] = summary
    out["gm_overlap"] = _geometric_mean(
        [row.get("mean", 0.0) for row in out["overlap"].values()]
    )
    return out


def nbc_campaign_spec(
    nranks: Sequence[int] = (2, 4),
    backends: Sequence[str] = ("singlepass", "cranelift"),
    machine: str = "graviton2",
    seed: int = 0,
) -> Dict[str, object]:
    """Scenario matrix sweeping the non-blocking collectives.

    Expands to (5 NBC routines) x (wasm across ``backends`` + native) x
    ``nranks`` on one machine -- the campaign shape the PR 3 harness runs
    with ``repro-harness campaign --workers N`` (see
    ``examples/campaign_nbc.json`` for the file form).
    """
    return {
        "name": "nbc-overlap",
        "seed": seed,
        "benchmarks": [
            {
                "benchmark": list(NBC_ROUTINES),
                "mode": ["wasm", "native"],
                "backend": list(backends),
                "nranks": list(nranks),
                "machine": machine,
            }
        ],
    }


# ------------------------------------------------------------- functional runs


@register_experiment("crosscheck-campaign")
def functional_crosscheck_campaign(
    nranks: int = 4, machine: str = "graviton2", workers: int = 1
) -> Dict[str, object]:
    """The :func:`functional_crosscheck` matrix expressed as a campaign.

    Same (routine x mode) points, but expanded from a declarative scenario
    matrix and executed by :func:`repro.harness.campaign.run_campaign` --
    the shape every figure sweep now shares.  With ``workers > 1`` the jobs
    run on the process pool; results are identical either way.
    """
    from repro.harness.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        name="crosscheck",
        benchmarks=[
            {"benchmark": "pingpong", "mode": ["wasm", "native"], "nranks": 2,
             "machine": machine},
            {"benchmark": ["allreduce", "alltoall"], "mode": ["wasm", "native"],
             "nranks": nranks, "machine": machine},
        ],
    )
    result = run_campaign(spec, workers=workers)
    out: Dict[str, object] = {}
    for routine in ("pingpong", "allreduce", "alltoall"):
        ranks = 2 if routine == "pingpong" else nranks
        wasm = result.outcome(f"{routine}/wasm/cranelift/np{ranks}/{machine}#r0")
        native = result.outcome(f"{routine}/native/np{ranks}/{machine}#r0")
        if not (wasm.ok and native.ok):
            out[routine] = {"error": (wasm.error or native.error)}
            continue
        wasm_rows = wasm.return_values[0]["rows"]
        native_rows = native.return_values[0]["rows"]
        slowdowns = [
            wasm_rows[s]["t_avg_us"] / native_rows[s]["t_avg_us"]
            for s in wasm_rows
            if native_rows[s]["t_avg_us"] > 0
        ]
        out[routine] = {
            "gm_slowdown": _geometric_mean(slowdowns) - 1.0,
            "wasm_makespan_us": wasm.makespan * 1e6,
            "native_makespan_us": native.makespan * 1e6,
        }
    return out


@register_experiment("crosscheck")
def functional_crosscheck(nranks: int = 4, machine: str = "graviton2") -> Dict[str, object]:
    """Small-scale functional native-vs-Wasm runs used to sanity check the models."""
    sizes = (1, 256, 4096, 65536)
    results: Dict[str, object] = {}
    for routine in ("pingpong", "allreduce", "alltoall"):
        ranks = 2 if routine == "pingpong" else nranks
        program = make_imb_program(routine, message_sizes=sizes, iterations=2)
        session = current_session()
        wasm_job = session.run(program, ranks, machine=machine)
        native_job = session.run(program, ranks, mode="native", machine=machine)
        wasm_rows = wasm_job.return_values()[0]["rows"]
        native_rows = native_job.return_values()[0]["rows"]
        slowdowns = [
            wasm_rows[s]["t_avg_us"] / native_rows[s]["t_avg_us"]
            for s in sizes
            if native_rows[s]["t_avg_us"] > 0
        ]
        results[routine] = {
            "gm_slowdown": _geometric_mean(slowdowns) - 1.0,
            "wasm_makespan_us": wasm_job.makespan * 1e6,
            "native_makespan_us": native_job.makespan * 1e6,
        }
    return results


@register_experiment("chaos")
def chaos_recovery(
    nranks: int = 4,
    machine: str = "graviton2",
    victim: int = 1,
    kill_call_index: int = 2,
    checkpoint_round: int = 1,
    max_restarts: int = 2,
) -> Dict[str, object]:
    """Kill one rank mid-``MPI_Allreduce``; recover and verify bit-for-bit.

    The fault-tolerance acceptance experiment (:mod:`repro.fault`), four
    phases sharing one IMB-allreduce job:

    1. a clean run establishes the oracle (makespan, exit codes, rows),
    2. the same job re-runs under a checkpoint capture at a schedule-round
       boundary, producing a restorable snapshot,
    3. a seeded :class:`FaultPlan` kills the victim rank on its
       ``kill_call_index``-th ``MPI_Allreduce`` and
       :func:`run_with_recovery` restarts past the injected failure,
    4. :func:`resume_from_checkpoint` replays the snapshot with per-rank
       state validation at the captured round crossing.

    Both the recovered run and the resumed run must match the oracle
    exactly -- any divergence is reported (and asserted on by the CI
    chaos-smoke job) rather than papered over.
    """
    from repro.fault import (
        Fault,
        FaultPlan,
        capture_checkpoint,
        job_descriptor,
        resume_from_checkpoint,
        run_with_recovery,
    )
    from repro.fault.checkpoint import Checkpoint

    session = current_session()
    benchmark = "allreduce"

    def oracle_view(job) -> Dict[str, object]:
        return {
            "makespan": job.makespan,
            "exit_codes": job.exit_codes(),
            "rows": job.return_values()[0]["rows"],
        }

    baseline = session.run(benchmark, nranks, machine=machine)
    oracle = oracle_view(baseline)

    with capture_checkpoint(
        checkpoint_round,
        job=job_descriptor(benchmark, nranks, machine=machine),
    ) as capture:
        ckpt_job = session.run(benchmark, nranks, machine=machine)
    checkpoint = Checkpoint(capture.build())

    plan = FaultPlan(
        faults=(Fault(kind="kill_rank", rank=victim, call="MPI_Allreduce",
                      call_index=kill_call_index),),
        seed=42,
    )
    recovery = run_with_recovery(
        benchmark, nranks, plan=plan, max_restarts=max_restarts,
        session=session, machine=machine,
    )
    resumed = resume_from_checkpoint(checkpoint, session=session)

    fault_counters = {
        name: value
        for name, value in recovery.job.metrics.counters().items()
        if name.startswith("fault.")
    }
    return {
        "benchmark": benchmark,
        "nranks": nranks,
        "victim": victim,
        "plan": plan.to_dict(),
        "oracle_makespan": oracle["makespan"],
        "attempts": recovery.attempts,
        "recovered": recovery.recovered,
        "fired": recovery.fired,
        "failures": recovery.failures,
        "fault_counters": fault_counters,
        "checkpoint": {
            "at_round": checkpoint.at_round,
            "nranks": checkpoint.nranks,
            "ranks_captured": len(checkpoint.ranks),
        },
        "checkpoint_run_matches_oracle": oracle_view(ckpt_job) == oracle,
        "recovered_matches_oracle": oracle_view(recovery.job) == oracle,
        "resume_matches_oracle": oracle_view(resumed) == oracle,
    }


# ------------------------------------------------------------ campaign plumbing

#: Every table/figure driver, keyed by the name the CLI and the campaign
#: runner's ``experiments`` entries use.  Since the session-API redesign this
#: is a live view of the unified registry
#: (:data:`repro.api.registry.EXPERIMENTS`): the drivers above register
#: themselves with ``@register_experiment``, and third-party drivers added
#: the same way appear here automatically.
EXPERIMENT_DRIVERS = EXPERIMENTS.entries


def figure_campaign_spec(
    figures: Sequence[str] = ("figure3", "figure4", "figure5", "figure6", "figure7"),
    functional_benchmarks: bool = True,
    seed: int = 0,
) -> Dict[str, object]:
    """Scenario matrix covering a full figure regeneration sweep.

    One ``experiment`` job per figure driver plus (optionally) the
    functional native-vs-Wasm benchmark points the models are sanity-checked
    against -- the job list the acceptance criterion's figure-5-class
    ``repro-harness campaign --workers 4`` run expands to.
    """
    spec: Dict[str, object] = {
        "name": "figures",
        "seed": seed,
        "experiments": [{"experiment": name} for name in figures],
    }
    if functional_benchmarks:
        spec["benchmarks"] = [
            {"benchmark": "pingpong", "mode": ["wasm", "native"], "nranks": 2,
             "machine": "graviton2"},
            {"benchmark": ["allreduce", "alltoall"], "mode": ["wasm", "native"],
             "nranks": 4, "machine": "graviton2"},
        ]
    return spec
