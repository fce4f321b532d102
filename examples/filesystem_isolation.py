#!/usr/bin/env python3
"""Filesystem isolation with MPIWasm (§3.4) and the IOR experiment (Figure 5b).

Shows the embedder's capability-based virtual directory tree: a guest can only
reach pre-opened directories (exposed with the ``-d`` flag in the paper), sees
them as root-level names that hide the host path, and cannot escape them with
``..`` traversal.  Then runs the IOR guest to show that the WASI indirection
does not cost measurable filesystem bandwidth.

Run:  python examples/filesystem_isolation.py
"""

from __future__ import annotations

from repro.api import Session, run
from repro.benchmarks_suite.ior import make_ior_program
from repro.toolchain.guest import GuestProgram
from repro.wasi.errno import WasiError


def isolation_demo_main(api, args):
    """Guest that probes what it can and cannot reach."""
    api.mpi_init()
    vfs = api.env.wasi.vfs
    report = []

    writable = vfs.preopen_fd(0)     # /results  (read-write)
    readonly = vfs.preopen_fd(1)     # /reference (read-only)

    fd = vfs.path_open(writable, "output.txt", create=True, write=True)
    vfs.fd_write(fd, b"simulation output\n")
    vfs.fd_close(fd)
    report.append("write to /results: ok")

    try:
        vfs.path_open(readonly, "new.txt", create=True, write=True)
        report.append("write to /reference: UNEXPECTEDLY ALLOWED")
    except WasiError as exc:
        report.append(f"write to /reference: denied ({exc})")

    try:
        vfs.path_open(writable, "../../etc/passwd")
        report.append("path escape: UNEXPECTEDLY ALLOWED")
    except WasiError as exc:
        report.append(f"path escape: denied ({exc})")

    report.append(f"preopens visible to the guest: {[p.guest_path for p in vfs.preopens()]}")
    api.mpi_finalize()
    return report


def main() -> int:
    program = GuestProgram(name="isolation-demo", main=isolation_demo_main)
    with Session(preopen_dirs=(("/results", True), ("/reference", False))) as session:
        job = session.run(program, 1, machine="graviton2")
    print("Filesystem isolation (-d semantics):")
    for line in job.return_values()[0]:
        print("  " + line)

    print("\nIOR through the WASI virtual filesystem (4 SuperMUC-NG nodes, 8 MiB blocks):")
    ior = run(make_ior_program(block_size=8 << 20, functional_bytes=1 << 15), 4,
              machine="supermuc-ng", ranks_per_node=1)
    result = ior.return_values()[0]
    print(f"  data round-trip verified: {result['data_ok']}")
    print(f"  aggregate read  bandwidth: {result['read_bandwidth_mib_s']:.0f} MiB/s")
    print(f"  aggregate write bandwidth: {result['write_bandwidth_mib_s']:.0f} MiB/s")
    print("  (paper: ~29411 MiB/s read, ~40206 MiB/s write, upper bound 47684 MiB/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
