"""Cranelift back-end: moderate compile work, generated code at a lower level.

Cranelift translates Wasm through its own IR with local optimisations; the
analogue here spends its compile time running the full lowering pass of
:mod:`repro.wasm.lowering` over every function -- opcode handlers resolved to
direct references, branch targets pre-computed, adjacent pairs fused into
superinstructions -- and ships the serialized lowered IR as its artifact.

Its executor runs generated Python code, not the interpreter: on a function's
first call the lowered IR of that function goes through LLVM's source
generator (:mod:`repro.wasm.compilers.llvm`) without LLVM's optimisation
level -- operands and locals in Python locals as there, and branches copying
their carried values the same way, but no stack-to-expression fold on the
slot assignments and every load and store a call of the memory's method --
and the compiled callable is kept for the rest of the process.  So compile
duration sits between Singlepass and LLVM, and so does execution speed --
the middle row of Table 1.
"""

from __future__ import annotations

from repro.wasm.compilers.base import CompiledModule, CompilerBackend, register_backend
from repro.wasm.compilers.llvm import FirstCallTable, GeneratedCodeExecutor
from repro.wasm.lowering import deserialize_lowered, lower_module, serialize_lowered
from repro.wasm.module import Module
from repro.wasm.runtime import Executor


class CraneliftBackend(CompilerBackend):
    """Eagerly lowers every function to the pre-resolved IR at compile time."""

    name = "cranelift"

    def _compile(self, module: Module) -> dict:
        lowered = lower_module(module)
        # Stash the in-memory form so the cold path does not round-trip
        # through its own serialization; the deserialize branch below is
        # then exclusive to real cache hits (fresh process, on-disk artifact).
        module._cranelift_runtime = lowered
        return serialize_lowered(lowered)

    def executor_for(self, compiled: CompiledModule) -> Executor:
        # Cache loads hand every rank a *fresh* CompiledModule, but all of
        # them share the Module object -- stash the code table there so each
        # function is generated once per process, on its first call.
        module = compiled.module
        runtime = getattr(module, "_cranelift_runtime", None)
        if not isinstance(runtime, FirstCallTable):
            lowered = runtime
            if lowered is None:
                # The generator splices immediates into source text, so IR
                # read back from disk is verified before any is generated.
                lowered = deserialize_lowered(compiled.artifact, verify=True)
                if lowered is None:  # missing or stale artifact: re-lower
                    lowered = lower_module(module)
            runtime = module._cranelift_runtime = FirstCallTable(module, lowered, fold=False)
        return GeneratedCodeExecutor(runtime)


register_backend(CraneliftBackend())
