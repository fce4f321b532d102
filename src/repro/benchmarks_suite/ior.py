"""IOR filesystem benchmark (POSIX backend).

IOR measures the aggregate read/write bandwidth available to MPI processes.
The paper runs it with the POSIX API backend because the POSIX filesystem
calls are exactly what WASI exposes (§4.2); the point of the experiment
(Figure 5b) is that MPIWasm's userspace filesystem indirection does not limit
the achievable bandwidth.

The guest below performs real WASI file I/O (``path_open``/``fd_write``/
``fd_seek``/``fd_read`` through the virtual filesystem) on a scaled-down
block, verifies the data round-trips, and charges the *modelled* transfer
time of the full block size to the rank's clock using the machine's parallel
filesystem model -- so the reported bandwidth has the PFS/bottleneck structure
of the real measurement while the code path exercised is the WASI one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.toolchain.guest import GuestProgram
from repro.toolchain.linker import PAPER_APPLICATIONS
from repro.sim.filesystem import ParallelFileSystemModel

#: Extra client-side overhead per byte charged on the Wasm path (the WASI
#: userspace permission handling + virtual directory tree of §3.4).
WASI_INDIRECTION_OVERHEAD_PER_BYTE = 0.004e-9


def make_ior_program(
    block_size: int = 1 << 20,
    transfer_size: int = 1 << 16,
    functional_bytes: int = 1 << 16,
    filesystem: Optional[ParallelFileSystemModel] = None,
    nnodes: int = 4,
    wasm_mode: bool = True,
) -> GuestProgram:
    """Build the IOR guest program for one block size.

    ``block_size`` is the per-rank amount the paper sweeps (1-16 MiB);
    ``functional_bytes`` is how much is really written through WASI per rank.
    """

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        size = api.size()
        fs = filesystem or ParallelFileSystemModel.dss_g()
        extra = WASI_INDIRECTION_OVERHEAD_PER_BYTE if wasm_mode else 0.0

        payload = np.arange(functional_bytes, dtype=np.uint8)
        payload = ((payload * (rank + 3)) % 251).astype(np.uint8)

        # --- write phase -----------------------------------------------------
        api.barrier()
        t0 = api.wtime()
        written = 0
        vfs = api.env.wasi.vfs
        dirfd = vfs.preopen_fd(0)
        fd = vfs.path_open(dirfd, f"ior-rank{rank}.dat", create=True, truncate=True,
                           read=True, write=True)
        for offset in range(0, functional_bytes, transfer_size):
            chunk = payload[offset : offset + transfer_size].tobytes()
            written += vfs.fd_write(fd, chunk)
        vfs.fd_seek(fd, 0, 0)
        api.compute(fs.transfer_time(block_size, size, nnodes, write=True, extra_overhead_per_byte=extra))
        api.barrier()
        write_elapsed = max(api.wtime() - t0, 1e-9)

        # --- read phase ------------------------------------------------------
        t1 = api.wtime()
        read_back = bytearray()
        while True:
            chunk = vfs.fd_read(fd, transfer_size)
            if not chunk:
                break
            read_back.extend(chunk)
        vfs.fd_close(fd)
        api.compute(fs.transfer_time(block_size, size, nnodes, write=False, extra_overhead_per_byte=extra))
        api.barrier()
        read_elapsed = max(api.wtime() - t1, 1e-9)

        data_ok = bytes(read_back[:functional_bytes]) == payload.tobytes()
        api.mpi_finalize()
        return {
            "block_size": block_size,
            "written_bytes": written,
            "data_ok": data_ok,
            "write_bandwidth_mib_s": size * block_size / write_elapsed / (1 << 20),
            "read_bandwidth_mib_s": size * block_size / read_elapsed / (1 << 20),
            "write_elapsed": write_elapsed,
            "read_elapsed": read_elapsed,
        }

    return GuestProgram(
        name=f"ior-{block_size >> 20 or 1}mib",
        main=main,
        memory_pages=64,
        profile=PAPER_APPLICATIONS["IOR"],
        description=f"IOR POSIX backend, block size {block_size} bytes",
    )
