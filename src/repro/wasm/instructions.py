"""Instruction objects: an opcode plus decoded immediate operands.

Instructions are the in-memory representation shared by the builder, the
binary encoder/decoder, the validator, the WAT printer, and the interpreter /
compiler back-ends.  Immediates are stored decoded (Python ints/floats/bytes),
never as raw LEB128 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.wasm import opcodes
from repro.wasm.opcodes import Imm, OpcodeInfo
from repro.wasm.types import ValType


@dataclass(frozen=True)
class BlockType:
    """Result type of a ``block``/``loop``/``if`` construct.

    Wasm 1.0 block types are either empty or a single value type (multi-value
    block signatures are not needed by the toolchain here).
    """

    result: Optional[ValType] = None

    def arity(self) -> int:
        """Number of values the block leaves on the stack."""
        return 0 if self.result is None else 1

    def wat(self) -> str:
        """WAT rendering (empty string or ``(result t)``)."""
        return "" if self.result is None else f"(result {self.result.short_name})"


@dataclass(frozen=True)
class MemArg:
    """Memory-access immediate: alignment exponent and static offset."""

    align: int = 0
    offset: int = 0


@dataclass(frozen=True)
class Instruction:
    """One instruction: opcode info plus its immediate operands.

    ``operands`` holds the decoded immediates in a canonical order:

    * ``block``/``loop``/``if``  -> (:class:`BlockType`,)
    * ``br``/``br_if``           -> (label_depth,)
    * ``br_table``               -> (tuple_of_depths, default_depth)
    * ``call``                   -> (function_index,)
    * ``call_indirect``          -> (type_index, table_index)
    * ``local.*`` / ``global.*`` -> (index,)
    * loads/stores               -> (:class:`MemArg`,)
    * ``memory.size/grow``       -> (memory_index,)
    * ``*.const``                -> (value,)  (int, float, or 16 bytes for v128)
    * SIMD lane ops              -> (lane_index,)
    """

    info: OpcodeInfo
    operands: Tuple = ()

    @property
    def name(self) -> str:
        """WAT mnemonic of the instruction."""
        return self.info.name

    @property
    def opcode(self) -> int:
        """Numeric opcode (SIMD opcodes are ``0xFD00 | sub``)."""
        return self.info.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.operands:
            return f"<{self.name}>"
        return f"<{self.name} {' '.join(map(str, self.operands))}>"


def make(name: str, *operands) -> Instruction:
    """Build an instruction from its WAT mnemonic and immediates.

    Convenience wrappers: ``make("i32.const", 5)``, ``make("call", 3)``,
    ``make("block", ValType.I32)`` (the value type is wrapped in a
    :class:`BlockType`), ``make("i32.load", MemArg(2, 8))`` or
    ``make("i32.load", 2, 8)`` (align, offset).
    """
    info = opcodes.info(name)
    ops: Tuple = tuple(operands)
    if info.imm == Imm.BLOCKTYPE:
        if not ops:
            ops = (BlockType(None),)
        elif isinstance(ops[0], BlockType):
            ops = (ops[0],)
        elif ops[0] is None:
            ops = (BlockType(None),)
        else:
            ops = (BlockType(ops[0] if isinstance(ops[0], ValType) else ValType(ops[0])),)
    elif info.imm == Imm.MEMARG:
        if not ops:
            ops = (MemArg(),)
        elif isinstance(ops[0], MemArg):
            ops = (ops[0],)
        elif len(ops) == 2:
            ops = (MemArg(int(ops[0]), int(ops[1])),)
        else:
            ops = (MemArg(0, int(ops[0])),)
    elif info.imm == Imm.MEMORY:
        ops = (int(ops[0]) if ops else 0,)
    elif info.imm == Imm.MEMORY_PAIR:
        if len(ops) == 2:
            ops = (int(ops[0]), int(ops[1]))
        else:
            ops = (0, 0)
    elif info.imm == Imm.CALL_INDIRECT:
        if len(ops) == 1:
            ops = (int(ops[0]), 0)
        else:
            ops = (int(ops[0]), int(ops[1]))
    elif info.imm == Imm.LABEL_TABLE:
        targets, default = ops
        ops = (tuple(int(t) for t in targets), int(default))
    elif info.imm == Imm.V128_CONST:
        raw = ops[0]
        if isinstance(raw, int):
            raw = raw.to_bytes(16, "little")
        ops = (bytes(raw),)
        if len(ops[0]) != 16:
            raise ValueError("v128.const immediate must be 16 bytes")
    return Instruction(info, ops)


# Frequently used singletons.
END = make("end")
ELSE = make("else")
RETURN = make("return")
NOP = make("nop")
UNREACHABLE = make("unreachable")
