"""Intel MPI Benchmarks (IMB) guest programs.

Re-implements the IMB measurement loops the paper runs (§4.2): PingPong,
Sendrecv, Bcast, Allreduce, Allgather, Alltoall, Reduce, Gather and Scatter.
Each routine sweeps a range of message sizes, runs a fixed number of
iterations per size, and reports the average/min/max iteration time in
microseconds exactly like the original benchmark's ``t_avg``/``t_min``/
``t_max`` columns.

The guests are written against the GuestAPI, which both execution modes
hand them, so the same code produces both the "Native" and the "WASM" series
of Figures 3 and 4.
Like the original IMB, the collectives run on a duplicated communicator
(``MPI_Comm_dup``) -- the feature the paper points out Faasm lacks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.linker import PAPER_APPLICATIONS

#: Default IMB message-size sweep: powers of two from 1 B to 4 MiB.
DEFAULT_MESSAGE_SIZES = tuple(2 ** k for k in range(0, 23))
#: Reduced sweep used by tests and the quickstart example.
SMALL_MESSAGE_SIZES = (1, 16, 256, 4096, 65536)

ROUTINES = (
    "pingpong",
    "sendrecv",
    "bcast",
    "allreduce",
    "allgather",
    "alltoall",
    "reduce",
    "gather",
    "scatter",
)

#: IMB routines that exercise a collective (their names coincide with the
#: collective the algorithm subsystem dispatches); used by the sweep mode.
COLLECTIVE_ROUTINES = tuple(r for r in ROUTINES if r not in ("pingpong", "sendrecv"))

#: Non-blocking collective routines of the IMB-NBC style overlap benchmark.
NBC_ROUTINES = ("ibarrier", "ibcast", "iallreduce", "iallgather", "ialltoall")


def _stats(samples: List[float]) -> Dict[str, float]:
    return {
        "t_avg_us": 1e6 * sum(samples) / len(samples),
        "t_min_us": 1e6 * min(samples),
        "t_max_us": 1e6 * max(samples),
        "iterations": len(samples),
    }


def _run_routine(api, routine: str, message_sizes: Sequence[int], iterations: int) -> Dict[int, Dict[str, float]]:
    """Run one IMB routine's sweep and return its per-size timing rows."""
    rank = api.rank()
    size = api.size()
    comm = api.comm_dup(abi.MPI_COMM_WORLD)
    max_bytes = max(message_sizes)
    send_ptr, send_arr = api.alloc_array(max_bytes, abi.MPI_BYTE, fill=0)
    recv_bytes = max_bytes * (size if routine in ("allgather", "alltoall", "gather") else 1)
    send_bytes_needed = max_bytes * (size if routine in ("alltoall", "scatter") else 1)
    if send_bytes_needed > max_bytes:
        api.free(send_ptr)
        send_ptr, send_arr = api.alloc_array(send_bytes_needed, abi.MPI_BYTE, fill=0)
    recv_ptr, recv_arr = api.alloc_array(max(recv_bytes, 1), abi.MPI_BYTE, fill=0)
    send_arr[:] = (rank + 1) & 0xFF

    results: Dict[int, Dict[str, float]] = {}
    for nbytes in message_sizes:
        samples: List[float] = []
        for _ in range(iterations):
            t0 = api.wtime()
            if routine == "pingpong":
                if size < 2:
                    raise ValueError("PingPong needs at least 2 ranks")
                if rank == 0:
                    api.send(send_ptr, nbytes, abi.MPI_BYTE, 1, 0, comm)
                    api.recv(recv_ptr, nbytes, abi.MPI_BYTE, 1, 0, comm)
                elif rank == 1:
                    api.recv(recv_ptr, nbytes, abi.MPI_BYTE, 0, 0, comm)
                    api.send(send_ptr, nbytes, abi.MPI_BYTE, 0, 0, comm)
            elif routine == "sendrecv":
                right = (rank + 1) % size
                left = (rank - 1) % size
                api.sendrecv(send_ptr, nbytes, abi.MPI_BYTE, right, 1,
                             recv_ptr, nbytes, abi.MPI_BYTE, left, 1, comm)
            elif routine == "bcast":
                api.bcast(send_ptr, nbytes, abi.MPI_BYTE, 0, comm)
            elif routine == "allreduce":
                count = max(1, nbytes // 8)
                api.allreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM, comm)
            elif routine == "reduce":
                count = max(1, nbytes // 8)
                api.reduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM, 0, comm)
            elif routine == "allgather":
                api.allgather(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, comm)
            elif routine == "alltoall":
                api.alltoall(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, comm)
            elif routine == "gather":
                api.gather(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, 0, comm)
            elif routine == "scatter":
                api.scatter(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, 0, comm)
            else:
                raise KeyError(f"unknown IMB routine {routine!r}")
            samples.append(api.wtime() - t0)
        # PingPong reports the half round-trip, like the original benchmark.
        if routine == "pingpong":
            samples = [s / 2.0 for s in samples]
        results[nbytes] = _stats(samples)
        api.barrier(comm)
    return results


def make_imb_program(
    routine: str,
    message_sizes: Sequence[int] = SMALL_MESSAGE_SIZES,
    iterations: int = 4,
) -> GuestProgram:
    """Build the guest program for one IMB routine."""
    if routine not in ROUTINES:
        raise KeyError(f"unknown IMB routine {routine!r}; known: {ROUTINES}")

    def main(api, args):
        api.mpi_init()
        rows = _run_routine(api, routine, list(message_sizes), iterations)
        if api.rank() == 0:
            api.print(f"# IMB {routine}: {len(rows)} message sizes, {iterations} iterations")
        api.barrier()
        api.mpi_finalize()
        return {"routine": routine, "rows": rows}

    return GuestProgram(
        name=f"imb-{routine}",
        main=main,
        memory_pages=max(64, (max(message_sizes) * 4 // 65536) + 16),
        profile=PAPER_APPLICATIONS["IMB"],
        description=f"Intel MPI Benchmarks {routine} sweep",
    )


def make_imb_algorithm_sweep_program(
    routine: str,
    message_sizes: Sequence[int] = SMALL_MESSAGE_SIZES,
    iterations: int = 4,
    algorithms: Optional[Sequence[str]] = None,
) -> GuestProgram:
    """Build an IMB guest that re-runs one routine's sweep per algorithm.

    The counterpart of benchmarking Open MPI under different
    ``coll_tuned_*_algorithm`` MCA settings: for every registered algorithm of
    the routine's collective the guest forces that algorithm (through the
    selector shared by all ranks), runs the full message-size sweep, and
    reports rows keyed ``algorithm -> size``.  The force is applied right
    after a barrier so every rank switches at the same sequence point.
    """
    if routine not in COLLECTIVE_ROUTINES:
        raise KeyError(
            f"IMB routine {routine!r} has no collective to sweep; "
            f"known: {sorted(COLLECTIVE_ROUTINES)}"
        )
    collective = routine

    def main(api, args):
        from repro.mpi.algorithms import registry as algo_registry

        api.mpi_init()
        names = list(algorithms or algo_registry.algorithms_for(collective))
        # Restore any job-level force (REPRO_COLL_ALGO / config) afterwards
        # instead of clearing it outright.
        previous = api.collective_algorithm(collective)
        per_algorithm: Dict[str, Dict[int, Dict[str, float]]] = {}
        for name in names:
            api.barrier()
            api.set_collective_algorithm(collective, name)
            per_algorithm[name] = _run_routine(api, routine, list(message_sizes), iterations)
        api.barrier()
        api.set_collective_algorithm(collective, previous)
        if api.rank() == 0:
            api.print(
                f"# IMB {routine} algorithm sweep: {len(names)} algorithms x "
                f"{len(message_sizes)} sizes"
            )
        api.mpi_finalize()
        return {"routine": routine, "collective": collective, "algorithms": per_algorithm}

    return GuestProgram(
        name=f"imb-algosweep-{routine}",
        main=main,
        memory_pages=max(64, (max(message_sizes) * 8 // 65536) + 16),
        profile=PAPER_APPLICATIONS["IMB"],
        description=f"Intel MPI Benchmarks {routine} per-algorithm sweep",
    )


def _start_nbc(api, routine: str, nbytes: int, send_ptr: int, recv_ptr: int, comm: int):
    """Post one non-blocking collective; returns its request handle/object."""
    if routine == "ibarrier":
        return api.ibarrier(comm)
    if routine == "ibcast":
        return api.ibcast(send_ptr, nbytes, abi.MPI_BYTE, 0, comm)
    if routine == "iallreduce":
        count = max(1, nbytes // 8)
        return api.iallreduce(send_ptr, recv_ptr, count, abi.MPI_DOUBLE, abi.MPI_SUM, comm)
    if routine == "iallgather":
        return api.iallgather(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, comm)
    if routine == "ialltoall":
        return api.ialltoall(send_ptr, nbytes, abi.MPI_BYTE, recv_ptr, nbytes, abi.MPI_BYTE, comm)
    raise KeyError(f"unknown NBC routine {routine!r}; known: {NBC_ROUTINES}")


def _run_nbc_routine(api, routine: str, message_sizes: Sequence[int], iterations: int) -> Dict[int, Dict[str, float]]:
    """One IMB-NBC style overlap measurement: per size, the pure collective
    time, a same-length compute phase overlapped with the collective, and the
    achieved overlap percentage (the benchmark's headline column)."""
    size = api.size()
    comm = api.comm_dup(abi.MPI_COMM_WORLD)
    collective = routine[1:]  # "iallreduce" -> "allreduce"
    # iallreduce posts at least one MPI_DOUBLE element, so buffers must hold
    # 8 bytes even when the sweep's largest message size is smaller.
    max_bytes = max(8, max(message_sizes))
    send_bytes_needed = max(1, max_bytes * (size if routine == "ialltoall" else 1))
    recv_bytes_needed = max(1, max_bytes * (size if routine in ("iallgather", "ialltoall") else 1))
    send_ptr, send_arr = api.alloc_array(send_bytes_needed, abi.MPI_BYTE, fill=0)
    recv_ptr, _recv_arr = api.alloc_array(recv_bytes_needed, abi.MPI_BYTE, fill=0)
    send_arr[:] = (api.rank() + 1) & 0xFF

    results: Dict[int, Dict[str, float]] = {}
    for nbytes in message_sizes:
        pure: List[float] = []
        ovrl: List[float] = []
        overlaps: List[float] = []
        for _ in range(iterations):
            # Pure (non-overlapped) time: post and immediately wait.
            api.barrier(comm)
            t0 = api.wtime()
            api.wait(_start_nbc(api, routine, nbytes, send_ptr, recv_ptr, comm))
            t_pure = api.wtime() - t0
            # Overlapped: post, compute for the pure time, then wait.  The
            # overlap fraction is how much of the collective hid behind the
            # compute phase (IMB-NBC's definition, with t_CPU = t_pure).
            api.barrier(comm)
            t_cpu = t_pure
            t0 = api.wtime()
            request = _start_nbc(api, routine, nbytes, send_ptr, recv_ptr, comm)
            api.compute(t_cpu)
            api.wait(request)
            t_ovrl = api.wtime() - t0
            if min(t_pure, t_cpu) > 0:
                overlap = (t_pure + t_cpu - t_ovrl) / min(t_pure, t_cpu)
            else:
                overlap = 1.0
            overlap = max(0.0, min(1.0, overlap))
            pure.append(t_pure)
            ovrl.append(t_ovrl)
            overlaps.append(overlap)
            api.record_nbc_overlap(collective, overlap)
        results[nbytes] = {
            "t_pure_us": 1e6 * sum(pure) / len(pure),
            "t_ovrl_us": 1e6 * sum(ovrl) / len(ovrl),
            "t_cpu_us": 1e6 * sum(pure) / len(pure),
            "overlap_pct": 100.0 * sum(overlaps) / len(overlaps),
            "iterations": len(overlaps),
        }
        api.barrier(comm)
    return results


def make_imb_nbc_program(
    routine: str,
    message_sizes: Sequence[int] = SMALL_MESSAGE_SIZES,
    iterations: int = 4,
) -> GuestProgram:
    """Build the IMB-NBC style overlap benchmark for one non-blocking collective.

    Mirrors the IMB-NBC measurement: each iteration times the collective run
    back-to-back (``t_pure``), then re-runs it overlapped with a compute
    phase of the same length and reports how much of the communication was
    hidden.  Per-iteration overlap samples are also recorded into the job's
    metrics registry (``mpi.nbc.<collective>.overlap``).
    """
    if routine not in NBC_ROUTINES:
        raise KeyError(f"unknown NBC routine {routine!r}; known: {NBC_ROUTINES}")
    sizes = (0,) if routine == "ibarrier" else tuple(message_sizes)

    def main(api, args):
        api.mpi_init()
        rows = _run_nbc_routine(api, routine, list(sizes), iterations)
        if api.rank() == 0:
            api.print(f"# IMB-NBC {routine}: {len(rows)} message sizes, {iterations} iterations")
        api.barrier()
        api.mpi_finalize()
        return {"routine": routine, "collective": routine[1:], "rows": rows}

    return GuestProgram(
        name=f"imb-nbc-{routine}",
        main=main,
        memory_pages=max(64, (max(sizes) * 8 // 65536) + 16),
        profile=PAPER_APPLICATIONS["IMB"],
        description=f"Intel MPI Benchmarks NBC {routine} overlap sweep",
    )


def make_imb_suite_program(
    routines: Sequence[str] = ROUTINES,
    message_sizes: Sequence[int] = SMALL_MESSAGE_SIZES,
    iterations: int = 2,
) -> GuestProgram:
    """Build a guest that runs several IMB routines back to back."""

    def main(api, args):
        api.mpi_init()
        all_rows = {}
        for routine in routines:
            if routine == "pingpong" and api.size() < 2:
                continue
            all_rows[routine] = _run_routine(api, routine, list(message_sizes), iterations)
        api.mpi_finalize()
        return {"routines": all_rows}

    return GuestProgram(
        name="imb-suite",
        main=main,
        memory_pages=max(64, (max(message_sizes) * 8 // 65536) + 16),
        profile=PAPER_APPLICATIONS["IMB"],
        description="Intel MPI Benchmarks multi-routine sweep",
    )
