"""NAS Parallel Benchmarks: Integer Sort (IS) and Data Transfer (DT).

The paper uses the two pure-C members of the NPB suite (§4.2):

* **IS** performs a bucketed parallel integer sort: every rank generates keys,
  histograms them into per-rank buckets (``MPI_Allreduce`` on the histogram),
  exchanges bucket contents with ``MPI_Alltoall``/``MPI_Alltoallv``-style
  traffic and sorts its local range.  The reported metric is total mega
  operations per second (Mop/s) across all ranks (Figure 5a, left).
* **DT** streams arrays of doubles through a task graph -- Black-Hole (``bh``,
  many sources feeding one sink), White-Hole (``wh``, one source feeding many
  sinks) or Shuffle (``sh``, a layered shuffle network) -- applying pairwise
  comparison/reduction operations at every consumer node.  The reported
  metric is total throughput in MB/s (Figure 5a, right); its heavy pairwise
  compare loop is what makes it sensitive to SIMD width (the w/ and w/o SIMD
  bars of the figure).

Class sizes follow the NPB conventions scaled down so functional runs finish
in seconds; the figure-scale points are produced by the harness models which
reuse these kernels' operation counts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.linker import PAPER_APPLICATIONS

#: Keys per rank for each NPB class (scaled-down functional sizes).
IS_CLASS_KEYS = {"S": 1 << 10, "W": 1 << 12, "A": 1 << 14, "B": 1 << 15, "C": 1 << 16}
#: Array elements per DT task for each class.
DT_CLASS_ELEMS = {"S": 1 << 10, "W": 1 << 12, "A": 1 << 14, "B": 1 << 15}
DT_TOPOLOGIES = ("bh", "wh", "sh")


# ---------------------------------------------------------------------- IS


def make_is_program(npb_class: str = "S", max_key_log2: int = 16) -> GuestProgram:
    """Integer Sort guest program (bucketed parallel sort)."""
    keys_per_rank = IS_CLASS_KEYS[npb_class]
    max_key = 1 << max_key_log2

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        size = api.size()

        # Deterministic per-rank key generation (NPB uses a power-law-ish
        # pseudo random sequence; a linear congruential generator is enough to
        # exercise the same communication structure).
        rng = np.random.default_rng(12345 + rank)
        keys = rng.integers(0, max_key, size=keys_per_rank, dtype=np.int32)

        keys_ptr, keys_arr = api.alloc_array(keys_per_rank, abi.MPI_INT)
        keys_arr[:] = keys

        t_start = api.wtime()

        # 1. Global histogram over `size` buckets (Allreduce, like NPB IS).
        bucket_edges = np.linspace(0, max_key, size + 1).astype(np.int64)
        local_hist = np.histogram(keys_arr, bins=bucket_edges)[0].astype(np.int32)
        hist_ptr, hist_arr = api.alloc_array(size, abi.MPI_INT)
        hist_out_ptr, hist_out = api.alloc_array(size, abi.MPI_INT)
        hist_arr[:] = local_hist
        api.allreduce(hist_ptr, hist_out_ptr, size, abi.MPI_INT, abi.MPI_SUM)

        # 2. Exchange bucket sizes, then bucket contents (Alltoall pattern).
        counts_ptr, counts_arr = api.alloc_array(size, abi.MPI_INT)
        counts_arr[:] = local_hist
        recv_counts_ptr, recv_counts = api.alloc_array(size, abi.MPI_INT)
        api.alltoall(counts_ptr, 1, abi.MPI_INT, recv_counts_ptr, 1, abi.MPI_INT)

        # Fixed-width alltoall exchange of bucket payloads (padded blocks).
        block = int(np.max(hist_out)) // size + keys_per_rank // size + 1
        send_ptr, send_arr = api.alloc_array(block * size, abi.MPI_INT, fill=0)
        recv_ptr, recv_arr = api.alloc_array(block * size, abi.MPI_INT, fill=0)
        order = np.argsort(keys_arr, kind="stable")
        sorted_local = keys_arr[order]
        offsets = np.searchsorted(sorted_local, bucket_edges[:-1])
        for dest in range(size):
            lo = offsets[dest]
            hi = offsets[dest + 1] if dest + 1 < size else keys_per_rank
            chunk = sorted_local[lo:hi][:block]
            send_arr[dest * block : dest * block + len(chunk)] = chunk
        api.alltoall(send_ptr, block, abi.MPI_INT, recv_ptr, block, abi.MPI_INT)

        # 3. Local sort of the received bucket + verification allreduce.
        received = np.array(recv_arr, copy=True)
        received.sort()
        checksum = int(received.astype(np.int64).sum() % (1 << 31))
        check_ptr, check_arr = api.alloc_array(1, abi.MPI_LONG)
        check_out_ptr, check_out = api.alloc_array(1, abi.MPI_LONG)
        check_arr[0] = checksum
        api.allreduce(check_ptr, check_out_ptr, 1, abi.MPI_LONG, abi.MPI_SUM)

        elapsed = max(api.wtime() - t_start, 1e-9)
        # Mop/s: NPB counts keys ranked per second (keys * ranks / time / 1e6).
        total_keys = keys_per_rank * size
        mops_total = total_keys / elapsed / 1e6
        api.mpi_finalize()
        return {
            "class": npb_class,
            "keys_per_rank": keys_per_rank,
            "mops_total": mops_total,
            "elapsed": elapsed,
            "checksum": int(check_out[0]),
            "sorted_ok": bool(np.all(np.diff(received) >= 0)),
        }

    return GuestProgram(
        name=f"npb-is-{npb_class.lower()}",
        main=main,
        memory_pages=128,
        profile=PAPER_APPLICATIONS["IS"],
        description=f"NPB Integer Sort, class {npb_class}",
    )


# ---------------------------------------------------------------------- DT


def _dt_edges(topology: str, size: int) -> List[tuple]:
    """Task-graph edges (src rank, dst rank) for a DT topology."""
    if size < 2:
        return []
    if topology == "bh":        # Black-Hole: every other rank feeds rank 0
        return [(src, 0) for src in range(1, size)]
    if topology == "wh":        # White-Hole: rank 0 feeds every other rank
        return [(0, dst) for dst in range(1, size)]
    if topology == "sh":        # Shuffle: ring-shifted layers
        return [(src, (src + size // 2) % size) for src in range(size)]
    raise KeyError(f"unknown DT topology {topology!r}")


def make_dt_program(topology: str = "bh", npb_class: str = "S", simd: bool = True) -> GuestProgram:
    """Data Transfer guest program for one topology (bh / wh / sh)."""
    if topology not in DT_TOPOLOGIES:
        raise KeyError(f"unknown DT topology {topology!r}; known: {DT_TOPOLOGIES}")
    elems = DT_CLASS_ELEMS[npb_class]

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        size = api.size()
        edges = _dt_edges(topology, size)

        buf_ptr, buf = api.alloc_array(elems, abi.MPI_DOUBLE)
        recv_ptr, recv = api.alloc_array(elems, abi.MPI_DOUBLE)
        rng = np.random.default_rng(777 + rank)
        buf[:] = rng.random(elems)

        t_start = api.wtime()
        bytes_moved = 0
        feeds = [e for e in edges if e[0] == rank]
        consumes = [e for e in edges if e[1] == rank]
        for src, dst in feeds:
            api.send(buf_ptr, elems, abi.MPI_DOUBLE, dst, 7)
            bytes_moved += elems * 8
        for src, dst in consumes:
            api.recv(recv_ptr, elems, abi.MPI_DOUBLE, src, 7)
            bytes_moved += elems * 8
            # The DT consumer performs pairwise comparisons/reductions over
            # the incoming array -- the vectorisable hot loop of the benchmark.
            combined = np.maximum(buf, recv)
            checksum = float(np.minimum(buf, recv).sum() + combined.sum())
            buf[:] = combined
            buf[0] = checksum % 1e9
        api.barrier()
        elapsed = max(api.wtime() - t_start, 1e-9)
        api.mpi_finalize()
        return {
            "topology": topology,
            "class": npb_class,
            "bytes_moved": bytes_moved,
            "elapsed": elapsed,
            "throughput_mb_s": bytes_moved / elapsed / 1e6,
            "simd": simd,
        }

    return GuestProgram(
        name=f"npb-dt-{topology}",
        main=main,
        memory_pages=96,
        profile=PAPER_APPLICATIONS["DT"],
        simd=simd,
        description=f"NPB Data Transfer, topology {topology}, class {npb_class}",
    )
