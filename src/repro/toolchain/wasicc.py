"""``wasicc`` -- the compile driver of the customised WASI-SDK toolchain.

The paper combines clang, wasi-libc and a custom ``mpi.h`` (plus a small
Python wrapper tool) so that ``wasicc app.c -o app.wasm`` produces a module
whose MPI functions are unresolved imports in the ``env`` namespace and whose
POSIX needs are WASI imports (Listings 1-3).  This module reproduces that
step: :func:`compile_guest` turns a :class:`GuestProgram` into a real,
validated, binary-encodable Wasm module that

* imports every ``env.MPI_*`` function of the MPI-2.2 ABI the guest may call,
* imports the WASI functions of ``wasi_snapshot_preview1``,
* defines and exports a working ``malloc``/``free`` pair (a bump allocator
  written in Wasm -- required by MPIWasm's ``MPI_Alloc_mem`` handling, §3.7),
* exports ``_start`` and its linear ``memory``,
* optionally contains additional Wasm-defined kernel functions contributed by
  the guest program (real numeric code executed by the compiler back-ends).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.toolchain import mpi_header
from repro.toolchain.guest import GuestProgram
from repro.wasm.builder import ModuleBuilder
from repro.wasm.encoder import encode_module
from repro.wasm.module import Module
from repro.wasm.validation import validate_module

#: WASI imports a wasi-libc based application references.
WASI_IMPORTS: Dict[str, tuple] = {
    "fd_write": (["i32", "i32", "i32", "i32"], ["i32"]),
    "fd_read": (["i32", "i32", "i32", "i32"], ["i32"]),
    "fd_seek": (["i32", "i64", "i32", "i32"], ["i32"]),
    "fd_close": (["i32"], ["i32"]),
    "path_open": (
        ["i32", "i32", "i32", "i32", "i32", "i64", "i64", "i32", "i32"],
        ["i32"],
    ),
    "proc_exit": (["i32"], []),
    "clock_time_get": (["i32", "i64", "i32"], ["i32"]),
    "args_sizes_get": (["i32", "i32"], ["i32"]),
    "args_get": (["i32", "i32"], ["i32"]),
}

#: Address where the guest heap starts (below it: data segments / scratch).
HEAP_BASE = 4096


@dataclass
class CompiledApplication:
    """Result of compiling one guest program to Wasm."""

    program: GuestProgram
    module: Module
    wasm_bytes: bytes
    simd: bool

    @property
    def size(self) -> int:
        """Encoded ``.wasm`` size in bytes."""
        return len(self.wasm_bytes)


def _emit_allocator(mb: ModuleBuilder) -> None:
    """Emit the bump-allocating ``malloc``/``free`` pair in Wasm."""
    mb.add_global("__heap_ptr", "i32", HEAP_BASE, mutable=True)

    malloc = mb.function("malloc", params=[("size", "i32")], results=["i32"], export=True)
    malloc.add_local("ptr", "i32")
    malloc.add_local("new_top", "i32")
    # ptr = (heap_ptr + 7) & ~7   (8-byte alignment)
    malloc.emit("global.get", "__heap_ptr").i32_const(7).emit("i32.add")
    malloc.i32_const(-8).emit("i32.and").set("ptr")
    # new_top = ptr + size
    malloc.get("ptr").get("size").emit("i32.add").set("new_top")
    # if new_top > memory.size * 64KiB: memory.grow(ceil((new_top - bytes)/64KiB))
    malloc.get("new_top").emit("memory.size").i32_const(16).emit("i32.shl").emit("i32.gt_u")
    with malloc.if_():
        malloc.get("new_top").emit("memory.size").i32_const(16).emit("i32.shl").emit("i32.sub")
        malloc.i32_const(65535).emit("i32.add").i32_const(16).emit("i32.shr_u")
        malloc.emit("memory.grow").drop()
    # heap_ptr = new_top; return ptr
    malloc.get("new_top").emit("global.set", "__heap_ptr")
    malloc.get("ptr")

    free = mb.function("free", params=[("ptr", "i32")], results=[], export=True)
    free.emit("nop")

    # wasi-libc also exposes the current heap top for sbrk-style probes.
    heap_top = mb.function("__heap_top", params=[], results=["i32"], export=True)
    heap_top.emit("global.get", "__heap_ptr")


def compile_guest(
    program: GuestProgram,
    simd: Optional[bool] = None,
    import_wasi: bool = True,
    extra_data: Optional[bytes] = None,
) -> CompiledApplication:
    """Compile a guest program into a validated Wasm module.

    ``simd`` overrides the program's own SIMD setting (``-msimd128`` on/off);
    kernels contributed by ``program.build_kernels`` are expected to consult
    the builder's ``simd_enabled`` attribute to decide whether to emit ``v128``
    instructions (mirroring what clang's auto-vectoriser would do).
    """
    use_simd = program.simd if simd is None else simd
    mb = ModuleBuilder(name=program.name)
    mb.simd_enabled = use_simd  # consumed by kernel builders
    mb.add_memory(program.memory_pages, program.max_memory_pages, export=True)

    # Imports: the full guest MPI ABI plus the WASI surface.
    for name, (params, results) in mpi_header.MPI_SIGNATURES.items():
        mb.import_function("env", name, params, results)
    if import_wasi:
        for name, (params, results) in WASI_IMPORTS.items():
            mb.import_function("wasi_snapshot_preview1", name, params, results)

    _emit_allocator(mb)

    # The _start stub: real C applications run crt1 + main here; for
    # Python-main guests the embedder drives execution, so _start only has to
    # exist (and be callable) for WASI compliance.
    start = mb.function("_start", params=[], results=[], export=True)
    start.emit("nop")

    if extra_data:
        mb.add_data(1024, extra_data)

    if program.build_kernels is not None:
        program.build_kernels(mb)

    module = mb.build()
    validate_module(module)
    wasm_bytes = encode_module(module)
    return CompiledApplication(program=program, module=module, wasm_bytes=wasm_bytes, simd=use_simd)
