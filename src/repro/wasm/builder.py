"""Module and function builders -- the backend of the "wasicc" toolchain.

The paper's toolchain combines clang + a custom ``mpi.h`` to compile C/C++ MPI
applications into Wasm modules.  Here the guest benchmarks are written against
this builder API instead: :class:`ModuleBuilder` assembles a complete module
(types, imports, functions, memory, data, exports) and
:class:`FunctionBuilder` assembles function bodies with convenience emitters
and structured-control-flow context managers.

Function and global references are symbolic (by name) while building and are
resolved to indices when :meth:`ModuleBuilder.build` runs, so imports and
definitions can be declared in any order.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.wasm import opcodes
from repro.wasm.instructions import Instruction, MemArg, make
from repro.wasm.module import (
    DataSegment,
    Export,
    ExternKind,
    Function,
    Global,
    Import,
    Module,
)
from repro.wasm.opcodes import Imm
from repro.wasm.types import FuncType, GlobalType, Limits, MemoryType, ValType, valtype


class BuildError(ValueError):
    """Raised when a module under construction is inconsistent."""


@dataclass
class _FuncRef:
    """Placeholder for a symbolic function reference, resolved at build time."""

    name: str


@dataclass
class _GlobalRef:
    """Placeholder for a symbolic global reference, resolved at build time."""

    name: str


class FunctionBuilder:
    """Builds the body of a single function.

    Parameters and named locals are addressed by name; anonymous locals can be
    created with :meth:`add_local`.  Instructions are emitted with
    :meth:`emit` or the typed convenience helpers, and structured control flow
    is expressed with the :meth:`block`, :meth:`loop` and :meth:`if_` context
    managers (which emit the matching ``end`` automatically).
    """

    def __init__(
        self,
        module: "ModuleBuilder",
        name: str,
        params: Sequence = (),
        results: Sequence = (),
        export: bool = False,
    ):
        self.module = module
        self.name = name
        self.params: List[Tuple[str, ValType]] = []
        for i, p in enumerate(params):
            if isinstance(p, tuple):
                pname, ptype = p
            else:
                pname, ptype = f"arg{i}", p
            self.params.append((pname, valtype(ptype)))
        self.results: List[ValType] = [valtype(r) for r in results]
        self.export = export
        self.locals: List[Tuple[str, ValType]] = []
        self.body: List[Instruction] = []
        self._local_index: Dict[str, int] = {
            pname: i for i, (pname, _t) in enumerate(self.params)
        }
        self._depth = 0

    # ----------------------------------------------------------------- locals

    def add_local(self, name: str, type_spec) -> int:
        """Declare a local variable and return its index."""
        if name in self._local_index:
            raise BuildError(f"local {name!r} already declared in function {self.name!r}")
        index = len(self.params) + len(self.locals)
        self.locals.append((name, valtype(type_spec)))
        self._local_index[name] = index
        return index

    def local_index(self, name_or_index: Union[str, int]) -> int:
        """Resolve a local by name (or pass an index through)."""
        if isinstance(name_or_index, int):
            return name_or_index
        try:
            return self._local_index[name_or_index]
        except KeyError as exc:
            raise BuildError(f"unknown local {name_or_index!r} in function {self.name!r}") from exc

    # ------------------------------------------------------------------- emit

    def emit(self, mnemonic: str, *operands) -> "FunctionBuilder":
        """Emit one instruction by mnemonic; returns ``self`` for chaining."""
        info = opcodes.info(mnemonic)
        if info.imm == Imm.FUNC and operands and isinstance(operands[0], str):
            self.body.append(Instruction(info, (_FuncRef(operands[0]),)))
            return self
        if info.imm == Imm.GLOBAL and operands and isinstance(operands[0], str):
            self.body.append(Instruction(info, (_GlobalRef(operands[0]),)))
            return self
        if info.imm == Imm.LOCAL and operands and isinstance(operands[0], str):
            operands = (self.local_index(operands[0]),)
        self.body.append(make(mnemonic, *operands))
        return self

    # Typed convenience helpers --------------------------------------------------

    def i32_const(self, value: int) -> "FunctionBuilder":
        """Push a 32-bit integer constant."""
        return self.emit("i32.const", int(value))

    def i64_const(self, value: int) -> "FunctionBuilder":
        """Push a 64-bit integer constant."""
        return self.emit("i64.const", int(value))

    def f32_const(self, value: float) -> "FunctionBuilder":
        """Push a 32-bit float constant."""
        return self.emit("f32.const", float(value))

    def f64_const(self, value: float) -> "FunctionBuilder":
        """Push a 64-bit float constant."""
        return self.emit("f64.const", float(value))

    def get(self, local: Union[str, int]) -> "FunctionBuilder":
        """``local.get``."""
        return self.emit("local.get", self.local_index(local))

    def set(self, local: Union[str, int]) -> "FunctionBuilder":
        """``local.set``."""
        return self.emit("local.set", self.local_index(local))

    def tee(self, local: Union[str, int]) -> "FunctionBuilder":
        """``local.tee``."""
        return self.emit("local.tee", self.local_index(local))

    def call(self, target: Union[str, int]) -> "FunctionBuilder":
        """Call a function by symbolic name or index."""
        return self.emit("call", target)

    def drop(self) -> "FunctionBuilder":
        """``drop``."""
        return self.emit("drop")

    def ret(self) -> "FunctionBuilder":
        """``return``."""
        return self.emit("return")

    def load(self, mnemonic: str, offset: int = 0, align: int = 0) -> "FunctionBuilder":
        """Emit a load instruction with a static offset."""
        return self.emit(mnemonic, MemArg(align, offset))

    def store(self, mnemonic: str, offset: int = 0, align: int = 0) -> "FunctionBuilder":
        """Emit a store instruction with a static offset."""
        return self.emit(mnemonic, MemArg(align, offset))

    # Structured control flow ----------------------------------------------------

    @contextlib.contextmanager
    def block(self, result: Optional[Union[str, ValType]] = None):
        """``block ... end`` region; ``br`` depth 0 exits it."""
        self.emit("block", valtype(result) if result is not None else None)
        self._depth += 1
        yield self
        self._depth -= 1
        self.emit("end")

    @contextlib.contextmanager
    def loop(self, result: Optional[Union[str, ValType]] = None):
        """``loop ... end`` region; ``br`` depth 0 repeats it."""
        self.emit("loop", valtype(result) if result is not None else None)
        self._depth += 1
        yield self
        self._depth -= 1
        self.emit("end")

    @contextlib.contextmanager
    def if_(self, result: Optional[Union[str, ValType]] = None):
        """``if ... end`` region consuming the i32 on top of the stack."""
        self.emit("if", valtype(result) if result is not None else None)
        self._depth += 1
        yield self
        self._depth -= 1
        self.emit("end")

    def else_(self) -> "FunctionBuilder":
        """Start the else arm of the innermost ``if``."""
        return self.emit("else")

    def br(self, depth: int) -> "FunctionBuilder":
        """Unconditional branch to the ``depth``-th enclosing label."""
        return self.emit("br", depth)

    def br_if(self, depth: int) -> "FunctionBuilder":
        """Conditional branch consuming the i32 condition on the stack."""
        return self.emit("br_if", depth)

    # Higher-level loop helper ---------------------------------------------------

    @contextlib.contextmanager
    def for_range(self, counter: str, start_local: Optional[str] = None, end_local: str = "",
                  start_const: int = 0, step: int = 1):
        """Counted loop: ``for counter in range(start, end, step)``.

        The counter local must already exist; the end bound is read from
        ``end_local`` on every iteration.  Inside the body the counter holds
        the current value.
        """
        counter_idx = self.local_index(counter)
        if start_local is not None:
            self.get(start_local).set(counter_idx)
        else:
            self.i32_const(start_const).set(counter_idx)
        self.emit("block", None)
        self.emit("loop", None)
        self._depth += 2
        # Exit when counter >= end.
        self.get(counter_idx).get(end_local).emit("i32.ge_s").br_if(1)
        yield self
        # Increment and continue.
        self.get(counter_idx).i32_const(step).emit("i32.add").set(counter_idx)
        self.br(0)
        self._depth -= 2
        self.emit("end")
        self.emit("end")

    # --------------------------------------------------------------- finishing

    def func_type(self) -> FuncType:
        """Signature of the function being built."""
        return FuncType(tuple(t for _n, t in self.params), tuple(self.results))

    def build_function(self, type_index: int) -> Function:
        """Materialise the :class:`repro.wasm.module.Function` record."""
        return Function(
            type_index=type_index,
            locals=[t for _n, t in self.locals],
            body=list(self.body),
            name=self.name,
        )


class ModuleBuilder:
    """Assembles a complete Wasm module.

    Typical use::

        mb = ModuleBuilder(name="kernel")
        mb.add_memory(min_pages=16, export=True)
        mpi_init = mb.import_function("env", "MPI_Init", ["i32", "i32"], ["i32"])
        f = mb.function("_start", export=True)
        f.i32_const(0).i32_const(0).call("MPI_Init").drop()
        ...
        module = mb.build()
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._imports: List[Import] = []
        self._import_func_names: Dict[str, int] = {}
        self._func_builders: List[FunctionBuilder] = []
        self._func_names: Dict[str, FunctionBuilder] = {}
        self._globals: List[Tuple[str, Global]] = []
        self._global_names: Dict[str, int] = {}
        self._memories: List[MemoryType] = []
        self._memory_export: Optional[str] = None
        self._data: List[DataSegment] = []
        self._extra_exports: List[Export] = []
        self._start_name: Optional[str] = None
        self._types: List[FuncType] = []

    # ----------------------------------------------------------------- imports

    def _intern_type(self, func_type: FuncType) -> int:
        for i, existing in enumerate(self._types):
            if existing == func_type:
                return i
        self._types.append(func_type)
        return len(self._types) - 1

    def import_function(
        self, module: str, name: str, params: Sequence = (), results: Sequence = ()
    ) -> int:
        """Declare a function import and return its function index.

        Imported functions occupy the start of the function index space, so
        all imports must be declared before :meth:`build` is called (but may
        be interleaved with :meth:`function` calls -- references are symbolic).
        """
        if name in self._import_func_names:
            return self._import_func_names[name]
        func_type = FuncType.of(params, results)
        type_index = self._intern_type(func_type)
        self._imports.append(Import(module=module, name=name, kind=ExternKind.FUNC, desc=type_index))
        index = len([i for i in self._imports if i.kind == ExternKind.FUNC]) - 1
        self._import_func_names[name] = index
        return index

    # --------------------------------------------------------------- functions

    def function(
        self,
        name: str,
        params: Sequence = (),
        results: Sequence = (),
        export: Optional[bool] = None,
    ) -> FunctionBuilder:
        """Start building a function; returns its :class:`FunctionBuilder`."""
        if name in self._func_names or name in self._import_func_names:
            raise BuildError(f"function {name!r} already defined or imported")
        fb = FunctionBuilder(self, name, params, results, export=bool(export))
        self._func_builders.append(fb)
        self._func_names[name] = fb
        return fb

    def has_function(self, name: str) -> bool:
        """Whether a function with this name is defined or imported."""
        return name in self._func_names or name in self._import_func_names

    # ----------------------------------------------------- memory/globals/data

    def add_memory(self, min_pages: int, max_pages: Optional[int] = None, export: bool = True,
                   export_name: str = "memory") -> int:
        """Define a linear memory; returns its index (always 0 here)."""
        if self._memories:
            raise BuildError("only one linear memory is supported by Wasm 1.0")
        self._memories.append(MemoryType(Limits(min_pages, max_pages)))
        if export:
            self._memory_export = export_name
        return 0

    def add_global(self, name: str, type_spec, init_value, mutable: bool = True) -> int:
        """Define a global with a constant initializer; returns its index."""
        if name in self._global_names:
            raise BuildError(f"global {name!r} already defined")
        vt = valtype(type_spec)
        const_op = {
            ValType.I32: "i32.const",
            ValType.I64: "i64.const",
            ValType.F32: "f32.const",
            ValType.F64: "f64.const",
        }[vt]
        g = Global(type=GlobalType(vt, mutable), init=[make(const_op, init_value)])
        self._globals.append((name, g))
        index = len(self._globals) - 1
        self._global_names[name] = index
        return index

    def add_data(self, offset: int, data: bytes, memory_index: int = 0) -> None:
        """Add an active data segment at a constant offset."""
        self._data.append(
            DataSegment(memory_index=memory_index, offset=[make("i32.const", offset)], data=bytes(data))
        )

    def set_start(self, func_name: str) -> None:
        """Mark a defined function as the module's start function."""
        self._start_name = func_name

    def export_function(self, name: str, export_name: Optional[str] = None) -> None:
        """Explicitly export an already-defined or imported function."""
        self._extra_exports.append(Export(name=export_name or name, kind=ExternKind.FUNC, index=-1))
        # The index placeholder (-1) is resolved in build(); stash the target.
        self._extra_exports[-1]._target = name  # type: ignore[attr-defined]

    # ------------------------------------------------------------------- build

    def _function_index(self, name: str) -> int:
        if name in self._import_func_names:
            return self._import_func_names[name]
        if name in self._func_names:
            n_imports = len(self._import_func_names)
            return n_imports + self._func_builders.index(self._func_names[name])
        raise BuildError(f"reference to unknown function {name!r}")

    def _resolve(self, instr: Instruction) -> Instruction:
        if instr.operands and isinstance(instr.operands[0], _FuncRef):
            return Instruction(instr.info, (self._function_index(instr.operands[0].name),))
        if instr.operands and isinstance(instr.operands[0], _GlobalRef):
            gname = instr.operands[0].name
            if gname not in self._global_names:
                raise BuildError(f"reference to unknown global {gname!r}")
            return Instruction(instr.info, (self._global_names[gname],))
        return instr

    def build(self) -> Module:
        """Resolve symbolic references and produce the final :class:`Module`."""
        module = Module(name=self.name)
        module.types = list(self._types)
        module.imports = list(self._imports)
        module.memories = list(self._memories)
        module.globals = [g for _n, g in self._globals]
        module.data = list(self._data)

        n_import_funcs = len(self._import_func_names)
        for fb in self._func_builders:
            type_index = None
            ft = fb.func_type()
            for i, existing in enumerate(module.types):
                if existing == ft:
                    type_index = i
                    break
            if type_index is None:
                module.types.append(ft)
                type_index = len(module.types) - 1
            function = fb.build_function(type_index)
            function.body = [self._resolve(i) for i in function.body]
            module.functions.append(function)

        for fb in self._func_builders:
            if fb.export:
                module.exports.append(
                    Export(name=fb.name, kind=ExternKind.FUNC, index=self._function_index(fb.name))
                )
        for export in self._extra_exports:
            target = getattr(export, "_target", export.name)
            module.exports.append(
                Export(name=export.name, kind=ExternKind.FUNC, index=self._function_index(target))
            )
        if self._memory_export is not None:
            module.exports.append(Export(name=self._memory_export, kind=ExternKind.MEMORY, index=0))
        if self._start_name is not None:
            module.start = self._function_index(self._start_name)
        return module
