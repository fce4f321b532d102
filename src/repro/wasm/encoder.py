"""Binary encoder: :class:`repro.wasm.module.Module` -> ``.wasm`` bytes.

Implements the WebAssembly binary format (magic + version header, LEB128
integer encodings, and the numbered sections) for the instruction subset in
:mod:`repro.wasm.opcodes`.  The encoded bytes are what Table 2 of the paper
measures ("Wasm Size"), and the decoder round-trips them back into modules
(property-tested in ``tests/test_wasm_roundtrip.py``).
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from repro.wasm.instructions import BlockType, Instruction, MemArg
from repro.wasm.module import (
    DataSegment,
    ElementSegment,
    Export,
    ExternKind,
    Function,
    Global,
    Import,
    Module,
)
from repro.wasm.opcodes import Imm
from repro.wasm.types import FuncType, GlobalType, Limits, ValType

# Pre-compiled float-immediate codecs (same spirit as wasm.values: parse the
# format string once, not per encoded constant).
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")

MAGIC = b"\x00asm"
VERSION = b"\x01\x00\x00\x00"

# Section ids.
SEC_CUSTOM = 0
SEC_TYPE = 1
SEC_IMPORT = 2
SEC_FUNCTION = 3
SEC_TABLE = 4
SEC_MEMORY = 5
SEC_GLOBAL = 6
SEC_EXPORT = 7
SEC_START = 8
SEC_ELEMENT = 9
SEC_CODE = 10
SEC_DATA = 11


class EncodeError(ValueError):
    """Raised when a module cannot be encoded."""


# ------------------------------------------------------------------ primitives


def encode_u32(value: int) -> bytes:
    """Unsigned LEB128 encoding of a 32-bit (or smaller) integer."""
    if value < 0:
        raise EncodeError(f"u32 value must be non-negative, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_s32(value: int) -> bytes:
    """Signed LEB128 encoding (32-bit range)."""
    return _encode_sleb(value, 32)


def encode_s64(value: int) -> bytes:
    """Signed LEB128 encoding (64-bit range)."""
    return _encode_sleb(value, 64)


def _encode_sleb(value: int, bits: int) -> bytes:
    # Interpret out-of-range unsigned values as their two's-complement form.
    lo = -(1 << (bits - 1))
    hi = (1 << bits) - 1
    if not lo <= value <= hi:
        raise EncodeError(f"value {value} out of range for s{bits}")
    if value >= (1 << (bits - 1)):
        value -= 1 << bits
    out = bytearray()
    more = True
    while more:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            more = False
        else:
            byte |= 0x80
        out.append(byte)
    return bytes(out)


def encode_f32(value: float) -> bytes:
    """IEEE-754 single precision, little endian."""
    return _F32.pack(value)


def encode_f64(value: float) -> bytes:
    """IEEE-754 double precision, little endian."""
    return _F64.pack(value)


def encode_name(name: str) -> bytes:
    """Length-prefixed UTF-8 name."""
    raw = name.encode("utf-8")
    return encode_u32(len(raw)) + raw


def encode_vec(items: Iterable[bytes]) -> bytes:
    """Length-prefixed concatenation of already-encoded items."""
    items = list(items)
    return encode_u32(len(items)) + b"".join(items)


# ----------------------------------------------------------------- type pieces


def encode_valtype(vt: ValType) -> bytes:
    """Single-byte value type."""
    return bytes([vt.value])


def encode_functype(ft: FuncType) -> bytes:
    """``0x60`` + param vector + result vector."""
    return (
        b"\x60"
        + encode_vec(encode_valtype(p) for p in ft.params)
        + encode_vec(encode_valtype(r) for r in ft.results)
    )


def encode_limits(limits: Limits) -> bytes:
    """Limits with/without maximum flag."""
    if limits.maximum is None:
        return b"\x00" + encode_u32(limits.minimum)
    return b"\x01" + encode_u32(limits.minimum) + encode_u32(limits.maximum)


def encode_globaltype(gt: GlobalType) -> bytes:
    """Value type + mutability flag."""
    return encode_valtype(gt.value_type) + (b"\x01" if gt.mutable else b"\x00")


# ---------------------------------------------------------------- instructions


def encode_instruction(instr: Instruction) -> bytes:
    """Encode one instruction (opcode byte(s) + immediates)."""
    info = instr.info
    out = bytearray()
    if info.is_simd:
        out.append(0xFD)
        out += encode_u32(info.opcode & 0xFF)
    elif (info.opcode >> 8) == 0xFC:
        out.append(0xFC)
        out += encode_u32(info.opcode & 0xFF)
    else:
        out.append(info.opcode)

    imm = info.imm
    ops = instr.operands
    if imm == Imm.NONE:
        pass
    elif imm == Imm.BLOCKTYPE:
        bt: BlockType = ops[0]
        out.append(0x40 if bt.result is None else bt.result.value)
    elif imm in (Imm.LABEL, Imm.FUNC, Imm.LOCAL, Imm.GLOBAL, Imm.MEMORY, Imm.LANE):
        out += encode_u32(int(ops[0]))
    elif imm == Imm.MEMORY_PAIR:
        out += encode_u32(int(ops[0])) + encode_u32(int(ops[1]))
    elif imm == Imm.LABEL_TABLE:
        targets, default = ops
        out += encode_vec(encode_u32(t) for t in targets)
        out += encode_u32(default)
    elif imm == Imm.CALL_INDIRECT:
        out += encode_u32(ops[0]) + encode_u32(ops[1])
    elif imm == Imm.MEMARG:
        memarg: MemArg = ops[0]
        out += encode_u32(memarg.align) + encode_u32(memarg.offset)
    elif imm == Imm.I32_CONST:
        out += encode_s32(int(ops[0]))
    elif imm == Imm.I64_CONST:
        out += encode_s64(int(ops[0]))
    elif imm == Imm.F32_CONST:
        out += encode_f32(float(ops[0]))
    elif imm == Imm.F64_CONST:
        out += encode_f64(float(ops[0]))
    elif imm == Imm.V128_CONST:
        out += bytes(ops[0])
    else:  # pragma: no cover - table integrity guard
        raise EncodeError(f"unhandled immediate kind {imm}")
    return bytes(out)


def encode_expression(body: Iterable[Instruction]) -> bytes:
    """Encode an instruction sequence followed by the terminating ``end``."""
    return b"".join(encode_instruction(i) for i in body) + b"\x0b"


# -------------------------------------------------------------------- sections


def _section(section_id: int, payload: bytes) -> bytes:
    return bytes([section_id]) + encode_u32(len(payload)) + payload


def _encode_import(imp: Import) -> bytes:
    head = encode_name(imp.module) + encode_name(imp.name) + bytes([imp.kind.value])
    if imp.kind == ExternKind.FUNC:
        return head + encode_u32(imp.desc)
    if imp.kind == ExternKind.MEMORY:
        return head + encode_limits(imp.desc.limits)
    if imp.kind == ExternKind.GLOBAL:
        return head + encode_globaltype(imp.desc)
    if imp.kind == ExternKind.TABLE:
        return head + encode_valtype(imp.desc.element) + encode_limits(imp.desc.limits)
    raise EncodeError(f"unhandled import kind {imp.kind}")


def _encode_export(exp: Export) -> bytes:
    return encode_name(exp.name) + bytes([exp.kind.value]) + encode_u32(exp.index)


def _encode_code(func: Function) -> bytes:
    # Locals are run-length grouped by type, per the spec.
    groups: List[bytes] = []
    i = 0
    locals_list = func.locals
    while i < len(locals_list):
        j = i
        while j < len(locals_list) and locals_list[j] == locals_list[i]:
            j += 1
        groups.append(encode_u32(j - i) + encode_valtype(locals_list[i]))
        i = j
    body = encode_vec(groups) + encode_expression(func.body)
    return encode_u32(len(body)) + body


def _encode_global(glob: Global) -> bytes:
    return encode_globaltype(glob.type) + encode_expression(glob.init)


def _encode_data(seg: DataSegment) -> bytes:
    return (
        encode_u32(seg.memory_index)
        + encode_expression(seg.offset)
        + encode_u32(len(seg.data))
        + seg.data
    )


def _encode_element(seg: ElementSegment) -> bytes:
    return (
        encode_u32(seg.table_index)
        + encode_expression(seg.offset)
        + encode_vec(encode_u32(f) for f in seg.func_indices)
    )


def encode_module(module: Module) -> bytes:
    """Encode a complete module into ``.wasm`` binary bytes."""
    out = bytearray(MAGIC + VERSION)

    if module.types:
        out += _section(SEC_TYPE, encode_vec(encode_functype(t) for t in module.types))
    if module.imports:
        out += _section(SEC_IMPORT, encode_vec(_encode_import(i) for i in module.imports))
    if module.functions:
        out += _section(
            SEC_FUNCTION, encode_vec(encode_u32(f.type_index) for f in module.functions)
        )
    if module.tables:
        out += _section(
            SEC_TABLE,
            encode_vec(encode_valtype(t.element) + encode_limits(t.limits) for t in module.tables),
        )
    if module.memories:
        out += _section(SEC_MEMORY, encode_vec(encode_limits(m.limits) for m in module.memories))
    if module.globals:
        out += _section(SEC_GLOBAL, encode_vec(_encode_global(g) for g in module.globals))
    if module.exports:
        out += _section(SEC_EXPORT, encode_vec(_encode_export(e) for e in module.exports))
    if module.start is not None:
        out += _section(SEC_START, encode_u32(module.start))
    if module.elements:
        out += _section(SEC_ELEMENT, encode_vec(_encode_element(e) for e in module.elements))
    if module.functions:
        out += _section(SEC_CODE, encode_vec(_encode_code(f) for f in module.functions))
    if module.data:
        out += _section(SEC_DATA, encode_vec(_encode_data(d) for d in module.data))
    for custom in module.customs:
        out += _section(SEC_CUSTOM, encode_name(custom.name) + custom.data)
    return bytes(out)


def module_size(module: Module) -> int:
    """Size in bytes of the encoded module (the "Wasm Size" of Table 2)."""
    return len(encode_module(module))
