"""Module instantiation and the runtime object model.

An :class:`Instance` is a loaded module: resolved imports, an allocated
linear memory, initialised globals and tables, and an executor (provided by
one of the compiler back-ends) that runs its functions.  Host functions --
the WASI and ``env.MPI_*`` implementations the embedder provides -- are plain
Python callables wrapped in :class:`HostFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.wasm.errors import LinkError, Trap
from repro.wasm.instructions import Instruction
from repro.wasm.memory import LinearMemory
from repro.wasm.module import ExternKind, Function, Module
from repro.wasm.types import FuncType, GlobalType, MemoryType, TableType, ValType
from repro.wasm.values import default_value


@dataclass
class HostFunction:
    """A function provided by the embedder to the module.

    ``callable`` receives the already-instantiated :class:`Instance` (so it can
    reach the linear memory) followed by the positional Wasm arguments, and
    returns ``None``, a single value, or a tuple of values matching the
    declared result types.
    """

    name: str
    func_type: FuncType
    callable: Callable

    def __call__(self, instance: "Instance", *args):
        return self.callable(instance, *args)


@dataclass
class WasmFunction:
    """A function defined by the module itself."""

    func_index: int
    func_type: FuncType
    definition: Function


FunctionLike = Union[HostFunction, WasmFunction]


@dataclass
class GlobalInstance:
    """A global variable at runtime."""

    type: GlobalType
    value: object

    def set(self, value) -> None:
        """Assign the global (trap if immutable)."""
        if not self.type.mutable:
            raise Trap(f"assignment to immutable global")
        self.value = value


class TableInstance:
    """A funcref table at runtime (used by ``call_indirect``)."""

    def __init__(self, table_type: TableType):
        self.type = table_type
        self.elements: List[Optional[int]] = [None] * table_type.limits.minimum

    def get(self, index: int) -> Optional[int]:
        """Function index stored at ``index`` (``None`` = null funcref)."""
        if not 0 <= index < len(self.elements):
            raise Trap(f"table index {index} out of bounds")
        return self.elements[index]

    def set(self, index: int, func_index: Optional[int]) -> None:
        """Store a function index at ``index``."""
        if not 0 <= index < len(self.elements):
            raise Trap(f"table index {index} out of bounds")
        self.elements[index] = func_index


class ImportObject:
    """Collection of host-provided imports, grouped by module namespace.

    The embedder builds one of these with its ``env`` (MPI) and
    ``wasi_snapshot_preview1`` namespaces before instantiating a module --
    mirroring Wasmer's ``ImportObject``.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Dict[str, HostFunction]] = {}

    def register(self, namespace: str, name: str, func_type: FuncType, fn: Callable) -> None:
        """Register one host function under ``namespace.name``."""
        self._functions.setdefault(namespace, {})[name] = HostFunction(
            name=f"{namespace}.{name}", func_type=func_type, callable=fn
        )

    def register_module(self, namespace: str, functions: Dict[str, HostFunction]) -> None:
        """Register a whole namespace of prebuilt host functions."""
        self._functions.setdefault(namespace, {}).update(functions)

    def lookup(self, namespace: str, name: str) -> Optional[HostFunction]:
        """Find a host function (``None`` if missing)."""
        return self._functions.get(namespace, {}).get(name)

    def namespaces(self) -> List[str]:
        """All registered namespaces."""
        return sorted(self._functions)


def memory_type_of(module: Module, pages_override: Optional[int] = None) -> Optional[MemoryType]:
    """Type of the memory an instance of ``module`` allocates (``None``: none).

    That is the module's first memory, imported or defined, with its minimum
    raised to ``pages_override`` when that is larger.  An override above the
    declared maximum cannot be honoured and raises :class:`LinkError`.
    """
    mem_types = list(module.memories)
    for imp in module.imports:
        if imp.kind == ExternKind.MEMORY:
            mem_types.insert(0, imp.desc)
    if not mem_types:
        return None
    mem_type = mem_types[0]
    limits = mem_type.limits
    if pages_override is None or pages_override <= limits.minimum:
        return mem_type
    if limits.maximum is not None and pages_override > limits.maximum:
        raise LinkError(
            f"memory_pages override of {pages_override} pages exceeds the module's "
            f"declared maximum of {limits.maximum} pages"
        )
    return MemoryType(limits=type(limits)(pages_override, limits.maximum))


class Executor:
    """Interface implemented by the compiler back-ends.

    ``call(instance, func_index, args)`` executes the module-defined function
    at ``func_index`` (function index space) and returns its result values as
    a list.
    """

    name = "abstract"

    def prepare(self, module: Module) -> None:
        """Hook for ahead-of-time work (compilation); called once per module."""

    def configure(self, max_call_depth: Optional[int] = None) -> None:
        """Apply embedder-level execution limits.

        The embedder calls this after :meth:`prepare` with the knobs from its
        :class:`repro.core.config.EmbedderConfig`; back-ends ignore what they
        do not support.
        """

    def call(self, instance: "Instance", func_index: int, args: Sequence) -> List:
        """Execute a module-defined function."""
        raise NotImplementedError


class Instance:
    """A fully linked, executable module instance."""

    def __init__(
        self,
        module: Module,
        imports: Optional[ImportObject] = None,
        executor: Optional[Executor] = None,
        memory_pages_override: Optional[int] = None,
    ):
        from repro.wasm.compilers import default_executor  # local import to avoid a cycle

        self.module = module
        self.imports = imports or ImportObject()
        self.executor = executor or default_executor()
        self.functions: List[FunctionLike] = []
        self.globals: List[GlobalInstance] = []
        self.tables: List[TableInstance] = []
        self.memory: Optional[LinearMemory] = None
        self.exit_code: Optional[int] = None
        # Arbitrary embedder-attached state (the MPIWasm Env structure hangs here).
        self.host_state: Dict[str, object] = {}

        self._link_functions()
        self._allocate_memory(memory_pages_override)
        self._init_globals()
        self._init_tables()
        self._apply_data_segments()
        self.executor.prepare(module)

    # ------------------------------------------------------------------ linking

    def _link_functions(self) -> None:
        for imp in self.module.imports:
            if imp.kind != ExternKind.FUNC:
                continue
            host = self.imports.lookup(imp.module, imp.name)
            if host is None:
                raise LinkError(f"unresolved import {imp.qualified_name}")
            expected = self.module.types[imp.desc]
            if host.func_type != expected:
                raise LinkError(
                    f"import {imp.qualified_name} signature mismatch: "
                    f"module wants {expected.wat()!r}, host provides {host.func_type.wat()!r}"
                )
            self.functions.append(host)
        base = len(self.functions)
        for i, func in enumerate(self.module.functions):
            self.functions.append(
                WasmFunction(
                    func_index=base + i,
                    func_type=self.module.types[func.type_index],
                    definition=func,
                )
            )

    def _allocate_memory(self, pages_override: Optional[int]) -> None:
        mem_type = memory_type_of(self.module, pages_override)
        if mem_type is not None:
            self.memory = LinearMemory(mem_type)

    def _init_globals(self) -> None:
        for glob in self.module.globals:
            value = self._eval_const(glob.init)
            self.globals.append(GlobalInstance(glob.type, value))

    def _init_tables(self) -> None:
        for table_type in self.module.tables:
            self.tables.append(TableInstance(table_type))
        for element in self.module.elements:
            if element.table_index >= len(self.tables):
                raise LinkError(f"element segment references missing table {element.table_index}")
            offset = int(self._eval_const(element.offset))
            table = self.tables[element.table_index]
            for i, func_index in enumerate(element.func_indices):
                table.set(offset + i, func_index)

    def _apply_data_segments(self) -> None:
        for segment in self.module.data:
            if self.memory is None:
                raise LinkError("data segment present but module has no memory")
            offset = int(self._eval_const(segment.offset))
            self.memory.write(offset, segment.data)

    def _eval_const(self, expr: List[Instruction]):
        """Evaluate a constant initializer expression (const or global.get)."""
        if not expr:
            return 0
        instr = expr[0]
        if instr.name in ("i32.const", "i64.const", "f32.const", "f64.const"):
            return instr.operands[0]
        if instr.name == "global.get":
            return self.globals[instr.operands[0]].value
        raise LinkError(f"unsupported constant expression starting with {instr.name}")

    # ---------------------------------------------------------------- execution

    def function_type(self, func_index: int) -> FuncType:
        """Signature of any function in the index space."""
        return self.functions[func_index].func_type

    def call_function(self, func_index: int, args: Sequence = ()) -> List:
        """Call a function by index (host or module-defined)."""
        target = self.functions[func_index]
        if isinstance(target, HostFunction):
            result = target(self, *args)
            if result is None:
                return []
            if isinstance(result, (list, tuple)):
                return list(result)
            return [result]
        return self.executor.call(self, func_index, list(args))

    def invoke(self, export_name: str, *args) -> List:
        """Call an exported function by name."""
        export = self.module.export_by_name(export_name)
        if export is None or export.kind != ExternKind.FUNC:
            raise LinkError(f"module does not export a function named {export_name!r}")
        return self.call_function(export.index, list(args))

    def exported_memory(self) -> LinearMemory:
        """The module's (exported) linear memory; raises if there is none."""
        if self.memory is None:
            raise LinkError("module has no linear memory")
        return self.memory

    def has_export(self, name: str) -> bool:
        """Whether the module exports ``name`` (any kind)."""
        return self.module.export_by_name(name) is not None

    def run_start(self) -> None:
        """Run the module's start function, if any."""
        if self.module.start is not None:
            self.call_function(self.module.start, [])
