"""Library inventory used by the linker size model.

Table 2 of the paper compares three artefact sizes per application: the
dynamically-linked native binary, the statically-linked native binary and the
Wasm binary.  The decisive structural facts are

* a dynamically-linked binary contains only the application's own object code
  (plus ELF/PLT overhead) because ``glibc``, ``libmpi`` and friends are
  resolved at load time,
* a statically-linked binary copies every needed archive member of
  ``libmpi.a``, ``libopen-rte.a``, ``libopen-pal.a``, ``libc.a`` ... into the
  binary (the paper attributes the 139.5x average gap to exactly this),
* a Wasm binary must statically include the referenced parts of ``wasi-libc``
  (and the C++ runtime for C++ applications) because there is no dynamic
  linking, but it never includes the MPI library -- MPI functions are imports
  provided by the embedder.

This module records the archives and their sizes (calibrated to common
OpenMPI 4.0 / glibc builds) so :mod:`repro.toolchain.linker` can assemble the
three totals per application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class StaticLibrary:
    """One native static archive.

    ``linked_fraction`` is the fraction of the archive the linker typically
    copies for an MPI application (archives are pulled in member-by-member,
    but MPI libraries have heavily interconnected members, so the fraction is
    high).
    """

    name: str
    archive_size: int
    linked_fraction: float = 1.0

    def contribution(self) -> int:
        """Bytes this archive adds to a statically-linked binary."""
        return int(self.archive_size * self.linked_fraction)


# Native static archives present on the HPC system (sizes of typical builds).
NATIVE_LIBRARIES: Dict[str, StaticLibrary] = {
    lib.name: lib
    for lib in (
        StaticLibrary("libmpi", int(9.5 * MIB), 0.55),
        StaticLibrary("libopen-rte", int(5.5 * MIB), 0.50),
        StaticLibrary("libopen-pal", int(4.8 * MIB), 0.50),
        StaticLibrary("libpsm2", int(2.2 * MIB), 0.50),
        StaticLibrary("libc", int(4.5 * MIB), 0.45),
        StaticLibrary("libm", int(1.4 * MIB), 0.30),
        StaticLibrary("libpthread", int(0.6 * MIB), 0.60),
        StaticLibrary("libz", int(0.4 * MIB), 0.90),
        StaticLibrary("libstdc++", int(11.5 * MIB), 0.95),
        StaticLibrary("libgcc", int(0.9 * MIB), 0.50),
        StaticLibrary("librt", int(0.2 * MIB), 0.40),
    )
}

#: Archives every MPI C application links statically (the OpenMPI stack + libc).
BASE_MPI_STACK = ("libmpi", "libopen-rte", "libopen-pal", "libpsm2", "libc", "libm",
                  "libpthread", "libz", "libgcc", "librt")

#: Additional archives pulled in by C++ applications.
CPP_EXTRA = ("libstdc++",)


@dataclass(frozen=True)
class WasmRuntimeLibrary:
    """A library statically included in a Wasm binary (there is no dynamic linking)."""

    name: str
    included_size: int


# wasi-libc and the C++ runtime as shipped by the WASI-SDK; only the referenced
# objects end up in the binary, so these are included sizes, not archive sizes.
WASI_LIBC = WasmRuntimeLibrary("wasi-libc", 22 * KIB)
WASI_LIBC_FULL_STDIO = WasmRuntimeLibrary("wasi-libc-stdio", 86 * KIB)
WASM_CXX_RUNTIME = WasmRuntimeLibrary("libc++/libc++abi", 430 * KIB)
WASM_MATH = WasmRuntimeLibrary("libm-wasm", 48 * KIB)


def dynamic_link_overhead() -> int:
    """ELF headers, program headers, PLT/GOT stubs of a dynamic executable."""
    return 18 * KIB


def static_link_overhead() -> int:
    """Extra ELF bookkeeping of a static executable (symbol/section tables)."""
    return 350 * KIB


def wasm_module_overhead() -> int:
    """Type/import/export section overhead of a WASI module."""
    return 6 * KIB
