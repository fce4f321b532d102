"""Binary decoder: ``.wasm`` bytes -> :class:`repro.wasm.module.Module`.

The inverse of :mod:`repro.wasm.encoder`.  The embedder uses it to load
distributed Wasm binaries, and the round-trip property
``decode(encode(m)) == m`` (up to function/module names, which live in custom
sections we do not emit) is exercised by the hypothesis tests.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.wasm import opcodes
from repro.wasm.encoder import MAGIC, VERSION
from repro.wasm.errors import WasmError
from repro.wasm.instructions import BlockType, Instruction, MemArg
from repro.wasm.module import (
    CustomSection,
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
from repro.wasm.types import FuncType, GlobalType, Limits, MemoryType, TableType, ValType

# Pre-compiled float-immediate codecs (same spirit as wasm.values: parse the
# format string once, not per decoded constant).
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class DecodeError(WasmError, ValueError):
    """Raised when the byte stream is not a valid module for this decoder.

    A :class:`~repro.wasm.errors.WasmError` subclass (and still a
    ``ValueError`` for backwards compatibility), so embedders facing
    untrusted module bytes -- the serve layer maps decode failures to
    HTTP 400 -- can catch one typed error family instead of low-level
    ``struct.error`` / ``IndexError`` leaks.
    """


def _eof(pos: int, wanted: int) -> DecodeError:
    return DecodeError(f"unexpected end of stream at offset {pos} (wanted {wanted} bytes)")


class _Reader:
    """Byte-stream reader with LEB128 helpers and bounds checking."""

    def __init__(self, data: bytes, pos: int = 0, end: Optional[int] = None):
        self.data = data
        self.pos = pos
        # Clamp to the real data: a declared section/body size larger than
        # the remaining bytes (truncated or hostile input) must surface as a
        # bounds-checked DecodeError from bytes(), never as a short slice
        # that a struct unpack later chokes on.
        self.end = len(data) if end is None else min(end, len(data))

    def eof(self) -> bool:
        return self.pos >= self.end

    def bytes(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise _eof(self.pos, n)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise _eof(pos, 1)
        self.pos = pos + 1
        return self.data[pos]

    def u32(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise _eof(pos, 1)
            b = data[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                self.pos = pos
                return result
            shift += 7
            if shift >= 32:  # a u32 takes at most ceil(32 / 7) = 5 bytes
                raise DecodeError("u32 LEB128 too long")

    def sleb(self, bits: int) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise _eof(pos, 1)
            b = data[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                if b & 0x40:
                    result |= -(1 << shift)
                self.pos = pos
                return result
            if shift >= bits:  # an sN takes at most ceil(N / 7) bytes
                raise DecodeError(f"s{bits} LEB128 too long")

    def s32(self) -> int:
        return self.sleb(32)

    def s64(self) -> int:
        return self.sleb(64)

    def f32(self) -> float:
        return _F32.unpack(self.bytes(4))[0]

    def f64(self) -> float:
        return _F64.unpack(self.bytes(8))[0]

    def name(self) -> str:
        return self.bytes(self.u32()).decode("utf-8")

    def valtype(self) -> ValType:
        return ValType.from_byte(self.byte())

    def limits(self) -> Limits:
        flag = self.byte()
        minimum = self.u32()
        maximum = self.u32() if flag & 0x01 else None
        return Limits(minimum, maximum)


# ---------------------------------------------------------------- instructions
#
# One per-opcode table, built once from ``opcodes.BY_OPCODE``, drives the
# decoder (the design of wasmparser's operator table): an opcode's
# OpcodeInfo, the reader of its immediates, its nesting delta (+1 opens a
# block, -1 is ``end``), for an opcode without immediates the one
# Instruction every occurrence shares, and for an opcode with one u32
# immediate the Instructions shared per single-byte value (0..127, built on
# first use).  Instructions are frozen and compare by value, so sharing one
# is indistinguishable from building a new one, and two threads filling the
# same slot at once store equal values.


def _read_u32(r: _Reader) -> tuple:
    return (r.u32(),)


def _read_u32_pair(r: _Reader) -> tuple:
    return (r.u32(), r.u32())


def _read_blocktype(r: _Reader) -> tuple:
    b = r.byte()
    return (BlockType(None if b == 0x40 else ValType.from_byte(b)),)


def _read_label_table(r: _Reader) -> tuple:
    n = r.u32()
    targets = tuple(r.u32() for _ in range(n))
    return (targets, r.u32())


def _read_memarg(r: _Reader) -> tuple:
    return (MemArg(r.u32(), r.u32()),)


_READ_IMMEDIATES: Dict[Imm, Optional[Callable[[_Reader], tuple]]] = {
    Imm.NONE: None,
    Imm.BLOCKTYPE: _read_blocktype,
    Imm.LABEL: _read_u32,
    Imm.FUNC: _read_u32,
    Imm.LOCAL: _read_u32,
    Imm.GLOBAL: _read_u32,
    Imm.MEMORY: _read_u32,
    Imm.LANE: _read_u32,
    Imm.MEMORY_PAIR: _read_u32_pair,
    Imm.CALL_INDIRECT: _read_u32_pair,
    Imm.LABEL_TABLE: _read_label_table,
    Imm.MEMARG: _read_memarg,
    Imm.I32_CONST: lambda r: (r.s32(),),
    Imm.I64_CONST: lambda r: (r.s64(),),
    Imm.F32_CONST: lambda r: (r.f32(),),
    Imm.F64_CONST: lambda r: (r.f64(),),
    Imm.V128_CONST: lambda r: (r.bytes(16),),
}

_NESTING = {"block": 1, "loop": 1, "if": 1, "end": -1}

#: opcode -> (info, immediate reader or None, nesting delta,
#:            shared Instruction or None, per-byte shared Instructions or None)
_OPS: Dict[int, tuple] = {
    opcode: (
        info,
        _READ_IMMEDIATES[info.imm],
        _NESTING.get(info.name, 0),
        Instruction(info, ()) if info.imm is Imm.NONE else None,
        [None] * 0x80 if _READ_IMMEDIATES[info.imm] is _read_u32 else None,
    )
    for opcode, info in opcodes.BY_OPCODE.items()
}


def _decode_expression(r: _Reader) -> List[Instruction]:
    """Decode instructions until the matching top-level ``end`` (consumed)."""
    data, end, ops = r.data, r.end, _OPS
    body: List[Instruction] = []
    append = body.append
    depth = 0
    pos = r.pos
    while True:
        if pos >= end:
            raise _eof(pos, 1)
        opcode = data[pos]
        pos += 1
        if opcode == 0xFC or opcode == 0xFD:
            r.pos = pos
            sub = r.u32()
            pos = r.pos
            if sub > 0xFF:
                raise DecodeError(f"unknown opcode 0x{opcode:x} 0x{sub:x}")
            opcode = opcode << 8 | sub
        try:
            info, read, delta, shared, by_byte = ops[opcode]
        except KeyError:
            raise DecodeError(f"unknown opcode 0x{opcode:x}") from None
        if delta:
            if delta < 0 and not depth:
                r.pos = pos
                return body
            depth += delta
        if shared is not None:
            append(shared)
        elif by_byte is not None and pos < end and data[pos] < 0x80:
            b = data[pos]
            pos += 1
            instr = by_byte[b]
            if instr is None:
                instr = by_byte[b] = Instruction(info, (b,))
            append(instr)
        else:
            r.pos = pos
            append(Instruction(info, read(r)))
            pos = r.pos


# -------------------------------------------------------------------- sections


def _decode_import(r: _Reader) -> Import:
    module = r.name()
    name = r.name()
    kind = ExternKind(r.byte())
    if kind == ExternKind.FUNC:
        desc: object = r.u32()
    elif kind == ExternKind.MEMORY:
        desc = MemoryType(r.limits())
    elif kind == ExternKind.GLOBAL:
        vt = r.valtype()
        desc = GlobalType(vt, bool(r.byte()))
    elif kind == ExternKind.TABLE:
        element = r.valtype()
        desc = TableType(r.limits(), element)
    else:  # pragma: no cover - ExternKind covers all cases
        raise DecodeError(f"unknown import kind {kind}")
    return Import(module=module, name=name, kind=kind, desc=desc)


#: Upper bound on declared locals per function.  Engines impose similar
#: implementation limits (the reference interpreter allows 50k); without one
#: a 5-byte hostile count would make the decoder allocate gigabytes.
MAX_FUNCTION_LOCALS = 100_000


def decode_module(data: bytes) -> Module:
    """Decode ``.wasm`` bytes into a :class:`Module`.

    The byte stream is untrusted input (the serve layer feeds it straight
    from HTTP bodies): *any* malformed, truncated, or hostile input raises
    :class:`DecodeError` -- a typed :class:`~repro.wasm.errors.WasmError` --
    never a raw ``struct.error`` / ``IndexError`` / ``KeyError``.
    """
    try:
        return _decode_module(data)
    except DecodeError:
        raise
    except (IndexError, KeyError, ValueError, OverflowError, UnicodeDecodeError) as exc:
        # Belt-and-braces: low-level decode helpers (valtype/extern-kind
        # lookups, UTF-8 names, float unpacks) must not leak their native
        # exception types to callers handling untrusted bytes.
        raise DecodeError(f"malformed module: {type(exc).__name__}: {exc}") from exc


def _decode_module(data: bytes) -> Module:
    if data[:4] != MAGIC:
        raise DecodeError("not a Wasm module: bad magic")
    if data[4:8] != VERSION:
        raise DecodeError(f"unsupported Wasm version {data[4:8]!r}")
    r = _Reader(data, pos=8)
    module = Module()
    func_type_indices: List[int] = []

    while not r.eof():
        section_id = r.byte()
        size = r.u32()
        if r.pos + size > r.end:
            raise DecodeError(
                f"section {section_id} declares {size} bytes but only "
                f"{r.end - r.pos} remain"
            )
        section = _Reader(r.data, r.pos, r.pos + size)
        r.pos += size

        if section_id == 1:  # type
            for _ in range(section.u32()):
                if section.byte() != 0x60:
                    raise DecodeError("malformed functype")
                params = tuple(section.valtype() for _ in range(section.u32()))
                results = tuple(section.valtype() for _ in range(section.u32()))
                module.types.append(FuncType(params, results))
        elif section_id == 2:  # import
            for _ in range(section.u32()):
                module.imports.append(_decode_import(section))
        elif section_id == 3:  # function (type indices)
            func_type_indices = [section.u32() for _ in range(section.u32())]
        elif section_id == 4:  # table
            for _ in range(section.u32()):
                element = section.valtype()
                module.tables.append(TableType(section.limits(), element))
        elif section_id == 5:  # memory
            for _ in range(section.u32()):
                module.memories.append(MemoryType(section.limits()))
        elif section_id == 6:  # global
            for _ in range(section.u32()):
                vt = section.valtype()
                mutable = bool(section.byte())
                init = _decode_expression(section)
                module.globals.append(Global(GlobalType(vt, mutable), init))
        elif section_id == 7:  # export
            for _ in range(section.u32()):
                name = section.name()
                kind = ExternKind(section.byte())
                index = section.u32()
                module.exports.append(Export(name=name, kind=kind, index=index))
        elif section_id == 8:  # start
            module.start = section.u32()
        elif section_id == 9:  # element
            for _ in range(section.u32()):
                table_index = section.u32()
                offset = _decode_expression(section)
                funcs = [section.u32() for _ in range(section.u32())]
                module.elements.append(ElementSegment(table_index, offset, funcs))
        elif section_id == 10:  # code
            count = section.u32()
            if count != len(func_type_indices):
                raise DecodeError("function and code section counts disagree")
            for type_index in func_type_indices:
                body_size = section.u32()
                if section.pos + body_size > section.end:
                    raise DecodeError(
                        f"function body declares {body_size} bytes but only "
                        f"{section.end - section.pos} remain"
                    )
                body_reader = _Reader(section.data, section.pos, section.pos + body_size)
                section.pos += body_size
                locals_list: List[ValType] = []
                for _ in range(body_reader.u32()):
                    n = body_reader.u32()
                    vt = body_reader.valtype()
                    if len(locals_list) + n > MAX_FUNCTION_LOCALS:
                        raise DecodeError(
                            f"function declares more than {MAX_FUNCTION_LOCALS} locals"
                        )
                    locals_list.extend([vt] * n)
                body = _decode_expression(body_reader)
                module.functions.append(
                    Function(type_index=type_index, locals=locals_list, body=body)
                )
        elif section_id == 11:  # data
            for _ in range(section.u32()):
                memory_index = section.u32()
                offset = _decode_expression(section)
                data_bytes = section.bytes(section.u32())
                module.data.append(DataSegment(memory_index, offset, data_bytes))
        elif section_id == 0:  # custom
            name = section.name()
            module.customs.append(CustomSection(name, section.bytes(section.end - section.pos)))
        else:
            raise DecodeError(f"unknown section id {section_id}")

    return module
