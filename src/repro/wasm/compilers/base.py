"""Compiler back-end interface and registry.

MPIWasm (like Wasmer) can translate Wasm to executable form with one of three
back-ends -- Singlepass, Cranelift, or LLVM -- trading compile time for run
time (Table 1 of the paper).  The analogues here share that exact trade-off
structure, all rebased on the pre-resolved IR of :mod:`repro.wasm.lowering`:

* :class:`repro.wasm.compilers.singlepass.SinglepassBackend` does essentially
  no ahead-of-time work; its executor is the interpreter, which lowers each
  function lazily on first call,
* :class:`repro.wasm.compilers.cranelift.CraneliftBackend` spends compile time
  eagerly lowering every function body (pre-resolved handlers, jump offsets
  and superinstructions); its executor generates Python code from that IR,
  one function at a time on first call, without LLVM's stack-to-expression
  fold,
* :class:`repro.wasm.compilers.llvm.LLVMBackend` runs the same code generator
  over the whole module at compile time, fold included (its "shared
  object"), pays the largest compile cost and runs fastest.

All three produce a :class:`CompiledModule` whose ``artifact`` is a
*serializable* payload -- what the content-addressed cache in
:mod:`repro.wasm.compilers.cache` stores on disk (§3.3), stamped with the IR
version so format changes invalidate stale entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.wasm.lowering import IR_VERSION
from repro.wasm.module import Module
from repro.wasm.runtime import Executor


@dataclass
class CompiledModule:
    """Result of ahead-of-time compiling a module with one back-end.

    ``artifact`` is back-end specific but always plain serializable data: a
    summary record for Singlepass, the serialized lowered IR for Cranelift,
    and the generated Python source for LLVM (the analogue of the shared
    object Wasmer's LLVM backend emits).  ``ir_version`` stamps the lowered
    representation the artifact was produced against.
    """

    backend_name: str
    module: Module
    compile_seconds: float
    artifact: Optional[object] = None
    function_count: int = 0
    ir_version: int = IR_VERSION

    def make_executor(self) -> Executor:
        """Build a fresh executor bound to this compiled artifact."""
        backend = get_backend(self.backend_name)
        return backend.executor_for(self)


class CompilerBackend:
    """A named compiler back-end."""

    name = "abstract"

    def compile(self, module: Module) -> CompiledModule:
        """Ahead-of-time compile ``module`` and return the artifact record."""
        start = time.perf_counter()
        artifact = self._compile(module)
        elapsed = time.perf_counter() - start
        return CompiledModule(
            backend_name=self.name,
            module=module,
            compile_seconds=elapsed,
            artifact=artifact,
            function_count=len(module.functions),
            ir_version=IR_VERSION,
        )

    def _compile(self, module: Module) -> Optional[object]:
        """Back-end specific compilation work (may be trivial)."""
        raise NotImplementedError

    def executor_for(self, compiled: CompiledModule) -> Executor:
        """Create an :class:`Executor` that runs the compiled artifact."""
        raise NotImplementedError


from repro.api.registry import BACKENDS as _BACKENDS  # noqa: E402 - leaf module


def register_backend(backend: CompilerBackend) -> CompilerBackend:
    """Add a back-end instance to the unified registry (replacing any holder).

    Third-party back-ends should prefer the decorator form
    ``repro.api.register_backend``, which supports ``override`` semantics.
    """
    _BACKENDS.register(backend.name, obj=backend, override=True)
    return backend


def get_backend(name: str) -> CompilerBackend:
    """Look up a back-end by name (``singlepass``, ``cranelift``, ``llvm``).

    Unknown names raise :class:`repro.api.registry.UnknownEntryError` (a
    ``KeyError``) listing every registered back-end.
    """
    return _BACKENDS.get(name)


def backend_names() -> List[str]:
    """Names of all registered back-ends."""
    return _BACKENDS.names()
