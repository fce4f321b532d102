"""Module instantiation and the runtime object model.

An :class:`Instance` is a loaded module: resolved imports, an allocated
linear memory, initialised globals and tables, and an executor (provided by
one of the compiler back-ends) that runs its functions.  Host functions --
the WASI and ``env.MPI_*`` implementations the embedder provides -- are
Python callables registered as :class:`HostFunction`s, which instantiation
binds to the instance once.  :meth:`Instance.call_function`, every call's
entry, calls that bound callable or runs a module-defined function under
the one call-depth guard.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.hooks import JobHooks, current_hooks
from repro.wasm.errors import LinkError, StackExhaustionTrap, Trap
from repro.wasm.instructions import Instruction
from repro.wasm.memory import LinearMemory
from repro.wasm.module import ExternKind, Function, Import, Module
from repro.wasm.types import FuncType, GlobalType, MemoryType, TableType


def _no_result(fn: Callable, instance, *args) -> List:
    fn(instance, *args)
    return []


def _one_result(fn: Callable, instance, *args) -> List:
    return [fn(instance, *args)]


def _results(fn: Callable, instance, *args) -> List:
    return list(fn(instance, *args))


#: A bound host function's result shape, by declared result count (more: ``_results``).
_SHAPES = {0: _no_result, 1: _one_result}


@dataclass(slots=True)
class HostFunction:
    """A function provided by the embedder to the module.

    ``callable`` receives the instance it is bound to (so it can reach the
    linear memory) followed by the positional Wasm arguments, and returns
    what the declared result count asks for: anything (ignored) for none,
    the value for one, a sequence of values for more.
    """

    func_type: FuncType
    callable: Callable

    def bind(self, instance) -> Callable:
        """``callable`` bound to ``instance``: it takes the Wasm arguments and
        returns the results as a list, as :meth:`Instance.call_function` does."""
        shape = _SHAPES.get(len(self.func_type.results), _results)
        return partial(shape, self.callable, instance)


@dataclass
class WasmFunction:
    """A function defined by the module itself."""

    func_index: int
    func_type: FuncType
    definition: Function


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
        self._functions: Dict[Tuple[str, str], HostFunction] = {}

    def register(self, namespace: str, name: str, func_type: FuncType, fn: Callable) -> None:
        """Register one host function under ``namespace.name``."""
        self._functions[namespace, name] = HostFunction(func_type, fn)

    def lookup(self, namespace: str, name: str) -> Optional[HostFunction]:
        """Find a host function (``None`` if missing)."""
        return self._functions.get((namespace, name))

    def resolve(self, module: Module, imported: Sequence[Import]) -> List[HostFunction]:
        """The host function of each of ``module``'s function imports
        (``imported``, in index order); :class:`LinkError` for one that is
        missing or has another signature."""
        hosts = []
        for imp in imported:
            host = self._functions.get((imp.module, imp.name))
            if host is None:
                raise LinkError(f"unresolved import {imp.qualified_name}")
            expected = module.types[imp.desc]
            # Field by field: FuncType's generated __eq__ would be one more
            # Python call per import of every instance.
            if (host.func_type.params != expected.params
                    or host.func_type.results != expected.results):
                raise LinkError(
                    f"import {imp.qualified_name} signature mismatch: "
                    f"module wants {expected.wat()!r}, host provides {host.func_type.wat()!r}"
                )
            hosts.append(host)
        return hosts


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


#: Default guest call-stack depth at which a call raises
#: :class:`~repro.wasm.errors.StackExhaustionTrap`.
MAX_CALL_DEPTH = 256


class Executor:
    """Interface implemented by the compiler back-ends.

    ``call(instance, func_index, args)`` executes the module-defined function
    at ``func_index`` (function index space) with ``args``, a list it may
    keep, and returns its results as a list.  Only
    :meth:`Instance.call_function` calls it, under the depth guard.
    """

    name = "abstract"
    max_call_depth = MAX_CALL_DEPTH

    def prepare(self, module: Module) -> None:
        """Hook for ahead-of-time work (compilation); called once per module."""

    def configure(self, max_call_depth: Optional[int] = None) -> None:
        """Apply embedder-level execution limits.

        The embedder calls this after :meth:`prepare` with the knobs from its
        :class:`repro.api.config.ResolvedConfig`.
        """
        if max_call_depth is not None:
            self.max_call_depth = max_call_depth

    def call(self, instance: "Instance", func_index: int, args: List) -> List:
        """Execute a module-defined function."""
        raise NotImplementedError


def reserve_recursion_headroom(max_call_depth: int) -> None:
    """Raise CPython's recursion limit so the Wasm call-depth trap fires first.

    Each Wasm call level costs a handful of Python frames (executor ``call``
    -> function body -> ``call_function`` -> ``call``; up to eight when a
    host import re-enters the guest through ``invoke``);
    :meth:`Instance.call_function` calls this on entry from the host, so a
    deep guest raises
    :class:`~repro.wasm.errors.StackExhaustionTrap` rather than
    ``RecursionError``.  Capped so an extreme ``max_call_depth`` cannot push
    the process limit past C-stack safety (beyond the cap, deep guests get a
    ``RecursionError`` rather than a weakened host-wide guard).  Never lowers
    the limit.
    """
    needed = min(max_call_depth, 2048) * 8 + 1000
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


class Instance:
    """A fully linked, executable module instance.  The interpreter counts
    its dispatches into the ``profiler`` of its job's ``hooks`` (by default,
    the creating thread's: :mod:`repro.obs.hooks`)."""

    def __init__(
        self,
        module: Module,
        imports: Optional[ImportObject] = None,
        executor: Optional[Executor] = None,
        memory_pages_override: Optional[int] = None,
        hooks: Optional[JobHooks] = None,
    ):
        from repro.wasm.compilers import default_executor  # local import to avoid a cycle

        self.module = module
        self.imports = imports or ImportObject()
        self.executor = executor or default_executor()
        self.functions: List[Union[HostFunction, WasmFunction]] = []
        self.globals: List[GlobalInstance] = []
        self.tables: List[TableInstance] = []
        self.memory: Optional[LinearMemory] = None
        self.exit_code: Optional[int] = None
        #: Module-defined calls in progress (the one call-depth guard).
        self.call_depth = 0
        self.profiler = (hooks if hooks is not None else current_hooks()).profiler

        self._link_functions()
        self._allocate_memory(memory_pages_override)
        self._init_globals()
        self._init_tables()
        self._apply_data_segments()
        self.executor.prepare(module)

    # ------------------------------------------------------------------ linking

    def _link_functions(self) -> None:
        # Imports are bound to a weak proxy: a strong reference would make the
        # instance and its bound imports a cycle, and keep its linear memory
        # alive after the job drops it until the cyclic collector runs.
        proxy = weakref.proxy(self)
        imported = self.module.imported_functions()
        hosts = self.imports.resolve(self.module, imported)
        self.functions.extend(hosts)
        #: The imported functions, each bound to this instance, by index.
        self.host_calls: List[Callable] = [host.bind(proxy) for host in hosts]
        self._host_calls_by_name = {
            (imp.module, imp.name): call for imp, call in zip(imported, self.host_calls)}
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
        """Call a function by index (host or module-defined); returns its
        results as a list.  A module-defined call deeper than the executor's
        ``max_call_depth``, however nested, raises :class:`StackExhaustionTrap`."""
        host_calls = self.host_calls
        if func_index < len(host_calls):
            return host_calls[func_index](*args)
        depth = self.call_depth
        limit = self.executor.max_call_depth
        if depth >= limit:
            raise StackExhaustionTrap(depth)
        if depth == 0:
            reserve_recursion_headroom(limit)
        self.call_depth = depth + 1
        try:
            return self.executor.call(self, func_index, list(args))
        finally:
            self.call_depth = depth

    def host_call(self, namespace: str, name: str) -> Callable:
        """The bound callable :meth:`call_function` runs for the imported
        function ``namespace.name``; ``KeyError`` when the module does not
        import it."""
        call = self._host_calls_by_name.get((namespace, name))
        if call is None:
            raise KeyError(f"module does not import {namespace}.{name}")
        return call

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
