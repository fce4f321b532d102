"""Guest program abstraction.

A :class:`GuestProgram` is the unit the toolchain compiles and the embedder
runs -- the analogue of one MPI application's source tree.  It carries:

* ``main`` -- the application's entry point.  In the paper this is C/C++
  compiled to Wasm by clang; here it is a Python callable that receives a
  :class:`repro.core.guest_api.GuestAPI` handle and may *only* interact with
  the world through it (linear-memory allocations, the guest MPI ABI, WASI
  I/O).  This substitution is documented in DESIGN.md: every MPI/WASI call
  still flows through the embedder's import implementations, address
  translation and datatype translation, exactly as a Wasm ``call`` to the
  import would.
* ``build_kernels`` -- optionally, genuinely Wasm-encoded compute kernels
  (built with :class:`repro.wasm.builder.ModuleBuilder`) that ``main`` can
  invoke through the module's exports; the HPCG and Table-1 experiments use
  this path so that numeric inner loops really execute as Wasm code under the
  selected compiler back-end.
* ``profile`` -- the linker-model profile used for Table 2 sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.toolchain.linker import ApplicationProfile
from repro.wasm.builder import ModuleBuilder


@dataclass
class GuestProgram:
    """One MPI application as seen by the toolchain and the embedder."""

    name: str
    main: Callable  # main(api: GuestAPI, args: list[str]) -> int
    memory_pages: int = 64
    max_memory_pages: Optional[int] = 4096
    #: Optional hook adding Wasm-defined kernel functions to the module.
    build_kernels: Optional[Callable[[ModuleBuilder], None]] = None
    #: Linker profile for the binary-size experiments (Table 2).
    profile: Optional[ApplicationProfile] = None
    #: Whether the guest was "compiled" with -msimd128 (DT / Figure 5a ablation).
    simd: bool = True
    description: str = ""

    def with_simd(self, enabled: bool) -> "GuestProgram":
        """Copy of the program compiled with or without SIMD generation."""
        return GuestProgram(
            name=self.name,
            main=self.main,
            memory_pages=self.memory_pages,
            max_memory_pages=self.max_memory_pages,
            build_kernels=self.build_kernels,
            profile=self.profile,
            simd=enabled,
            description=self.description,
        )
