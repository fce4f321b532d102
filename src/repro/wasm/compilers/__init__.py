"""Compiler back-ends: Singlepass, Cranelift and LLVM analogues.

Importing this package registers all three back-ends with the registry in
:mod:`repro.wasm.compilers.base`; :func:`default_executor` returns a fresh
executor for the default back-end (Cranelift -- a good compile-time/run-time
balance for tests, while the embedder defaults to LLVM like the paper).  The
content-addressed artifact cache shared by the back-ends lives in
:mod:`repro.wasm.compilers.cache`.
"""

from repro.wasm.compilers.base import (
    CompiledModule,
    CompilerBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.wasm.compilers import singlepass as _singlepass  # noqa: F401 - registration
from repro.wasm.compilers import cranelift as _cranelift  # noqa: F401 - registration
from repro.wasm.compilers import llvm as _llvm  # noqa: F401 - registration
from repro.wasm.compilers.cache import (
    FileSystemCache,
    InMemoryCache,
    module_hash,
)
from repro.wasm.compilers.cranelift import CraneliftBackend
from repro.wasm.compilers.llvm import LLVMBackend, PythonCodeGenerator
from repro.wasm.compilers.singlepass import SinglepassBackend
from repro.wasm.interpreter import Interpreter
from repro.wasm.lowering import IR_VERSION

DEFAULT_BACKEND = "cranelift"


def default_executor():
    """Executor used when an Instance is created without an explicit backend."""
    return Interpreter()


__all__ = [
    "CompiledModule",
    "CompilerBackend",
    "CraneliftBackend",
    "LLVMBackend",
    "SinglepassBackend",
    "PythonCodeGenerator",
    "FileSystemCache",
    "InMemoryCache",
    "module_hash",
    "IR_VERSION",
    "backend_names",
    "get_backend",
    "register_backend",
    "default_executor",
    "DEFAULT_BACKEND",
]
