"""The WebAssembly module model.

A :class:`Module` is the in-memory form of a ``.wasm`` file: type, import,
function, table, memory, global, export, element, data and custom sections.
It is produced by :class:`repro.wasm.builder.ModuleBuilder` (the toolchain
path) or by :func:`repro.wasm.decoder.decode_module` (loading a binary), and
consumed by the validator, the WAT printer, the binary encoder and the
embedder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.wasm.instructions import Instruction
from repro.wasm.types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType


class ExternKind(Enum):
    """Kind of an import or export (binary encoding in the member value)."""

    FUNC = 0x00
    TABLE = 0x01
    MEMORY = 0x02
    GLOBAL = 0x03


@dataclass
class Import:
    """One import: ``(module, name)`` plus a kind-specific descriptor.

    ``desc`` is a type index for functions, a :class:`MemoryType`,
    :class:`TableType` or :class:`GlobalType` otherwise.
    """

    module: str
    name: str
    kind: ExternKind
    desc: object

    @property
    def qualified_name(self) -> str:
        """``module.name`` as printed in diagnostics."""
        return f"{self.module}.{self.name}"


@dataclass
class Export:
    """One export: a name plus the index of the exported entity."""

    name: str
    kind: ExternKind
    index: int


@dataclass
class Function:
    """A function defined inside the module (imported functions live in imports).

    ``type_index`` points into the module's type section; ``locals`` lists the
    declared local variables (parameters are not repeated here); ``body`` is
    the instruction sequence *without* the terminating ``end`` (the encoder
    adds it back).
    """

    type_index: int
    locals: List[ValType] = field(default_factory=list)
    body: List[Instruction] = field(default_factory=list)
    name: str = ""


@dataclass
class Global:
    """A global variable definition with its constant initializer expression."""

    type: GlobalType
    init: List[Instruction] = field(default_factory=list)


@dataclass
class ElementSegment:
    """An active element segment populating a table with function indices."""

    table_index: int
    offset: List[Instruction]
    func_indices: List[int]


@dataclass
class DataSegment:
    """An active data segment initializing a range of linear memory."""

    memory_index: int
    offset: List[Instruction]
    data: bytes


@dataclass
class CustomSection:
    """An uninterpreted custom section (name + payload)."""

    name: str
    data: bytes


@dataclass
class Module:
    """A complete WebAssembly module."""

    types: List[FuncType] = field(default_factory=list)
    imports: List[Import] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    tables: List[TableType] = field(default_factory=list)
    memories: List[MemoryType] = field(default_factory=list)
    globals: List[Global] = field(default_factory=list)
    exports: List[Export] = field(default_factory=list)
    start: Optional[int] = None
    elements: List[ElementSegment] = field(default_factory=list)
    data: List[DataSegment] = field(default_factory=list)
    customs: List[CustomSection] = field(default_factory=list)
    name: str = ""

    # -------------------------------------------------------- index-space maps

    def imported_functions(self) -> List[Import]:
        """Function imports, in index order (they precede defined functions)."""
        return [imp for imp in self.imports if imp.kind == ExternKind.FUNC]

    def num_imported_functions(self) -> int:
        """Number of imported functions (offset of the first defined function)."""
        return len(self.imported_functions())

    def imported_memories(self) -> List[Import]:
        """Memory imports, in index order."""
        return [imp for imp in self.imports if imp.kind == ExternKind.MEMORY]

    def imported_globals(self) -> List[Import]:
        """Global imports, in index order."""
        return [imp for imp in self.imports if imp.kind == ExternKind.GLOBAL]

    def func_type(self, func_index: int) -> FuncType:
        """Signature of the function at ``func_index`` in the function index space."""
        imported = self.imported_functions()
        if func_index < len(imported):
            return self.types[imported[func_index].desc]
        local_index = func_index - len(imported)
        if local_index >= len(self.functions):
            raise IndexError(f"function index {func_index} out of range")
        return self.types[self.functions[local_index].type_index]

    def total_functions(self) -> int:
        """Size of the function index space (imports + definitions)."""
        return self.num_imported_functions() + len(self.functions)

    def export_by_name(self, name: str) -> Optional[Export]:
        """Find an export by name (``None`` if absent)."""
        for export in self.exports:
            if export.name == name:
                return export
        return None

    def summary(self) -> Dict[str, int]:
        """Size summary used by reports and tests."""
        return {
            "types": len(self.types),
            "imports": len(self.imports),
            "functions": len(self.functions),
            "exports": len(self.exports),
            "globals": len(self.globals),
            "memories": len(self.memories) + len(self.imported_memories()),
            "data_segments": len(self.data),
            "instructions": sum(len(f.body) for f in self.functions),
        }
