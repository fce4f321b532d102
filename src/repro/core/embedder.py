"""The MPIWasm embedder.

Ties everything together for one MPI rank: ahead-of-time compilation of the
Wasm module through the configured back-end (with the content-addressed
cache), instantiation with the ``env`` (MPI) and ``wasi_snapshot_preview1``
import namespaces bound to the rank's :class:`Env`, and execution of the
guest program.

One embedder object is created per rank ("each MPI rank corresponds to one
instance of the embedder with its own Wasm module", §4.3); the compiled
artifact is shared between ranks through the cache exactly as the on-disk
shared object is shared between processes in the paper's implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.api.config import ResolvedConfig
from repro.wasm.compilers.cache import FileSystemCache, InMemoryCache, module_hash
from repro.core.env import Env
from repro.fault import checkpoint as _checkpoint
from repro.core.guest_api import GuestAPI
from repro.core.mpi_imports import register_mpi_imports
from repro.mpi.runtime import MPIRuntime
from repro.sim.metrics import MetricsRegistry
from repro.toolchain.wasicc import CompiledApplication
from repro.wasi.snapshot_preview1 import WasiEnvironment, build_wasi_imports
from repro.wasi.vfs import VirtualFilesystem
from repro.wasm.compilers import CompiledModule, get_backend
from repro.wasm.errors import ExitTrap
from repro.wasm.module import Module
from repro.wasm.runtime import ImportObject, Instance


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


def make_env(config: ResolvedConfig, runtime: MPIRuntime, guest_args: Sequence[str] = (),
             **fields) -> Env:
    """One rank's :class:`Env` and its WASI environment, in either mode.

    The WASI environment gets the configuration's pre-opened directories,
    the guest's arguments and the rank's ``MPI_Wtime`` clock; ``fields`` are
    further :class:`Env` fields (native mode: the job's metrics registry and
    ``translation_costs=False``).
    """
    vfs = VirtualFilesystem()
    for guest_path, writable in config.preopen_dirs:
        vfs.preopen(guest_path, read=True, write=writable)
    wasi = WasiEnvironment(
        args=["wasm-app", *list(guest_args or config.guest_args)],
        vfs=vfs,
        clock=runtime.wtime,
    )
    return Env(runtime=runtime, wasi=wasi, **fields)


class MPIWasm:
    """One embedder process: compiles, instantiates and runs Wasm MPI modules.

    :class:`repro.api.Session` constructs the embedders of a job and hands
    each the artifact store to compile through (``Session.artifact_cache``);
    the embedder never picks a store itself.
    """

    def __init__(self, config: ResolvedConfig, cache: Union[InMemoryCache, FileSystemCache]):
        self.config = config
        self.cache = cache
        #: Tier that served the last compile (``"memory"``/``"fs"``; ``None``: compiled).
        self.last_cache_tier: Optional[str] = None
        #: Module key of the last compile's lookup.
        self.last_cache_key: Optional[str] = None

    # ------------------------------------------------------------- compilation

    def compile_module(self, wasm_bytes: bytes, module: Module) -> CompiledModule:
        """AoT-compile an admitted module with the configured back-end, using
        the cache.

        ``module`` is ``wasm_bytes`` decoded, and validated by the session
        that admitted it (:class:`repro.api.Session`); the embedder neither
        decodes nor validates.
        """
        backend = get_backend(self.config.backend)
        # Content-addressed key: module bytes + back-end + IR version, so an
        # IR format change transparently invalidates stale artifacts.
        key = self.last_cache_key = module_hash(wasm_bytes, backend.name)
        # load_or_compute serialises concurrent compilers of the same key
        # (per-key lock file for the on-disk cache), so a worker pool
        # sharing one cache directory compiles each module exactly once.
        compiled, self.last_cache_tier = self.cache.load_or_compute(
            key, module, lambda: backend.compile(module)
        )
        return compiled

    # ------------------------------------------------------------ instantiation

    def instantiate(
        self,
        compiled: CompiledModule,
        runtime: MPIRuntime,
        guest_args: Sequence[str] = (),
    ) -> tuple:
        """Instantiate a compiled module for one rank; returns (instance, env, api)."""
        env = make_env(self.config, runtime, guest_args)
        imports = ImportObject()
        register_mpi_imports(imports, env)
        build_wasi_imports(env.wasi, imports)

        executor = compiled.make_executor()
        executor.configure(max_call_depth=self.config.max_call_depth)
        hooks = runtime.world.hooks
        instance = Instance(
            compiled.module,
            imports,
            executor=executor,
            memory_pages_override=self.config.memory_pages,
            hooks=hooks,
        )
        env.memory = instance.memory
        instance.run_start()
        if hooks.capture is not None:
            hooks.capture.register_instance(runtime.ctx.rank, instance)
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
        app: CompiledApplication,
        runtime: MPIRuntime,
        guest_args: Sequence[str] = (),
    ) -> GuestResult:
        """Look up (or compile) an application the session admitted,
        instantiate it and run its guest program to completion on one rank."""
        compiled = self.compile_module(app.wasm_bytes, app.module)
        cache_tier, cache_key = self.last_cache_tier, self.last_cache_key
        instance, env, api = self.instantiate(compiled, runtime, guest_args)
        # Into the job's registry at once, so a rank that fails later still
        # counts its lookup.
        runtime.world.metrics.record_cache_event(cache_tier, cache_key)
        env.metrics.record("wasm.compile_seconds", compiled.compile_seconds)
        start_virtual = runtime.ctx.now
        exit_code = 0
        return_value: object = None
        try:
            if app.program.main is not None:
                return_value = app.program.main(api, list(guest_args or self.config.guest_args))
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
            cache_hit=cache_tier is not None,
        )
