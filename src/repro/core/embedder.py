"""The MPIWasm embedder.

Ties everything together for one MPI rank: ahead-of-time compilation of the
Wasm module through the configured back-end (with the content-addressed
cache), instantiation with the ``env`` (MPI) and ``wasi_snapshot_preview1``
import namespaces, attachment of the per-instance :class:`Env` state, and
execution of the guest program.

One embedder object is created per rank ("each MPI rank corresponds to one
instance of the embedder with its own Wasm module", §4.3); the compiled
artifact is shared between ranks through the cache exactly as the on-disk
shared object is shared between processes in the paper's implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.wasm.compilers.cache import (
    FileSystemCache,
    InMemoryCache,
    TieredCache,
    module_hash,
)
from repro.core.config import EmbedderConfig
from repro.core.env import Env
from repro.fault import checkpoint as _checkpoint
from repro.core.guest_api import GuestAPI
from repro.core.mpi_imports import register_mpi_imports
from repro.mpi.runtime import MPIRuntime
from repro.sim.metrics import MetricsRegistry
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import CompiledApplication, compile_guest
from repro.wasi.snapshot_preview1 import WasiEnvironment, build_wasi_imports
from repro.wasi.vfs import VirtualFilesystem
from repro.wasm.compilers import CompiledModule, get_backend
from repro.wasm.decoder import decode_module
from repro.wasm.errors import ExitTrap, Trap
from repro.wasm.module import Module
from repro.wasm.runtime import ImportObject, Instance
from repro.wasm.validation import validate_module


@dataclass
class GuestResult:
    """Outcome of running one guest program on one rank."""

    rank: int
    exit_code: int
    return_value: object
    elapsed_virtual: float
    stdout: str
    stderr: str
    call_counts: Dict[str, int]
    metrics: MetricsRegistry
    compile_seconds: float
    cache_hit: bool


class MPIWasm:
    """One embedder process: compiles, instantiates and runs Wasm MPI modules.

    :class:`repro.api.Session` constructs the embedders of a job and hands
    each the artifact store to compile through (``Session.artifact_cache``);
    the embedder never picks a store itself.
    """

    def __init__(self, config: EmbedderConfig,
                 cache: Union[FileSystemCache, InMemoryCache, TieredCache]):
        self.config = config
        self.cache = cache
        self.last_cache_hit = False
        self.last_cache_tier: Optional[str] = None

    # ------------------------------------------------------------- compilation

    def compile_module(self, wasm_bytes: bytes, module: Optional[Module] = None) -> CompiledModule:
        """AoT-compile a module with the configured back-end, using the cache."""
        if module is None:
            module = decode_module(wasm_bytes)
        if self.config.validate:
            validate_module(module)
        backend = get_backend(self.config.compiler_backend)
        # Content-addressed key: module bytes + back-end + IR version, so an
        # IR format change transparently invalidates stale artifacts.
        key = module_hash(wasm_bytes, backend.name)
        if self.config.enable_cache:
            # load_or_compute serialises concurrent compilers of the same key
            # (per-key lock file for the on-disk cache), so a worker pool
            # sharing one cache directory compiles each module exactly once.
            compiled, self.last_cache_hit = self.cache.load_or_compute(
                key, module, lambda: backend.compile(module)
            )
            self.last_cache_tier = getattr(self.cache, "last_hit_tier", None)
            return compiled
        self.last_cache_hit = False
        self.last_cache_tier = None
        return backend.compile(module)

    def compile_application(self, app: Union[GuestProgram, CompiledApplication]) -> CompiledModule:
        """Compile a guest program (running wasicc first if needed)."""
        if isinstance(app, GuestProgram):
            app = compile_guest(app)
        return self.compile_module(app.wasm_bytes, app.module)

    # ------------------------------------------------------------ instantiation

    def instantiate(
        self,
        compiled: CompiledModule,
        runtime: MPIRuntime,
        guest_args: Sequence[str] = (),
    ) -> tuple:
        """Instantiate a compiled module for one rank; returns (instance, env, api)."""
        vfs = VirtualFilesystem()
        for guest_path, writable in self.config.preopen_dirs:
            vfs.preopen(guest_path, read=True, write=writable)
        wasi_env = WasiEnvironment(
            args=["wasm-app", *list(guest_args or self.config.guest_args)],
            environ=self.config.environ,
            vfs=vfs,
            clock=runtime.wtime,
        )
        imports = ImportObject()
        register_mpi_imports(imports)
        wasi_imports = build_wasi_imports(wasi_env)
        for ns in wasi_imports.namespaces():
            imports.register_module(ns, wasi_imports._functions[ns])  # noqa: SLF001

        executor = compiled.make_executor()
        executor.configure(max_call_depth=self.config.max_call_depth)
        instance = Instance(
            compiled.module,
            imports,
            executor=executor,
            memory_pages_override=self.config.memory_pages,
        )
        env = Env(runtime=runtime, config=self.config, wasi=wasi_env)
        instance.host_state[Env.HOST_STATE_KEY] = env
        instance.run_start()
        if _checkpoint.CAPTURE is not None:
            _checkpoint.CAPTURE.register_instance(runtime.ctx.rank, instance)
        api = GuestAPI(instance, env)
        return instance, env, api

    # ------------------------------------------------------- checkpoint/restore

    def snapshot(self, instance: Instance, include_memory: bool = True) -> dict:
        """Capture the instance's quiescent state (memory, globals, tables).

        Only meaningful between guest calls; for mid-run snapshots use
        :func:`repro.fault.checkpoint.capture_checkpoint`, which captures at
        schedule-round boundaries.
        """
        return _checkpoint.capture_instance_state(instance, include_memory=include_memory)

    def restore(self, instance: Instance, state: dict) -> None:
        """Write a :meth:`snapshot` back into a (quiescent) instance."""
        _checkpoint.restore_instance_state(instance, state)

    # --------------------------------------------------------------- execution

    def run_guest(
        self,
        app: Union[GuestProgram, CompiledApplication],
        runtime: MPIRuntime,
        guest_args: Sequence[str] = (),
    ) -> GuestResult:
        """Compile, instantiate and run a guest program to completion on one rank."""
        program = app.program if isinstance(app, CompiledApplication) else app
        compiled = self.compile_application(app)
        cache_hit = self.last_cache_hit
        cache_tier = self.last_cache_tier
        instance, env, api = self.instantiate(compiled, runtime, guest_args)
        env.metrics.record_cache_event(cache_hit, tier=cache_tier)
        env.metrics.record("wasm.compile_seconds", compiled.compile_seconds)
        start_virtual = runtime.ctx.now
        exit_code = 0
        return_value: object = None
        try:
            if program.main is not None:
                return_value = program.main(api, list(guest_args or self.config.guest_args))
                if isinstance(return_value, int):
                    exit_code = return_value
            else:
                instance.invoke("_start")
        except ExitTrap as trap:
            exit_code = trap.exit_code
        elapsed = runtime.ctx.now - start_virtual
        return GuestResult(
            rank=runtime.ctx.rank,
            exit_code=exit_code,
            return_value=return_value,
            elapsed_virtual=elapsed,
            stdout=env.wasi.vfs.stdout_text(),
            stderr=env.wasi.vfs.stderr_text(),
            call_counts=dict(env.call_counts),
            metrics=env.metrics,
            compile_seconds=compiled.compile_seconds,
            cache_hit=cache_hit,
        )
