"""WebAssembly opcode table.

Each opcode carries its binary encoding, the kind of immediate operands it
takes, and -- for plain numeric instructions -- its stack signature (types
popped and pushed), which both the validator and the compiler back-ends use.
Control-flow, variable, call and memory instructions have context-dependent
signatures and are special-cased by the validator.

The table covers the Wasm 1.0 core instructions used by C/C++ HPC codes
compiled through the (customised) WASI-SDK, plus the subset of the
fixed-width SIMD proposal the paper enables with ``-msimd128``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from repro.wasm.types import ValType

I32 = ValType.I32
I64 = ValType.I64
F32 = ValType.F32
F64 = ValType.F64
V128 = ValType.V128


class Imm(Enum):
    """Kinds of immediate operands an instruction can carry."""

    NONE = "none"
    BLOCKTYPE = "blocktype"        # block/loop/if
    LABEL = "label"                # br, br_if
    LABEL_TABLE = "label_table"    # br_table
    FUNC = "func"                  # call
    CALL_INDIRECT = "call_indirect"  # type index + table index
    LOCAL = "local"                # local.get/set/tee
    GLOBAL = "global"              # global.get/set
    MEMARG = "memarg"              # loads/stores: align + offset
    MEMORY = "memory"              # memory.size/grow/fill: memory index (0x00)
    MEMORY_PAIR = "memory_pair"    # memory.copy: dst + src memory indices
    I32_CONST = "i32"
    I64_CONST = "i64"
    F32_CONST = "f32"
    F64_CONST = "f64"
    V128_CONST = "v128"
    LANE = "lane"                  # SIMD extract/replace lane


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one instruction."""

    name: str
    opcode: int                    # full opcode; SIMD opcodes are 0xFD00 | sub
    imm: Imm = Imm.NONE
    pops: Tuple[ValType, ...] = ()
    pushes: Tuple[ValType, ...] = ()
    is_simd: bool = False


# Registry keyed both by name and by opcode.
BY_NAME: Dict[str, OpcodeInfo] = {}
BY_OPCODE: Dict[int, OpcodeInfo] = {}


def _op(name: str, opcode: int, imm: Imm = Imm.NONE, pops=(), pushes=(), simd: bool = False) -> OpcodeInfo:
    info = OpcodeInfo(name=name, opcode=opcode, imm=imm, pops=tuple(pops), pushes=tuple(pushes), is_simd=simd)
    if name in BY_NAME:  # pragma: no cover - table integrity guard
        raise ValueError(f"duplicate opcode name {name}")
    if opcode in BY_OPCODE:  # pragma: no cover - table integrity guard
        raise ValueError(f"duplicate opcode 0x{opcode:x} ({name})")
    BY_NAME[name] = info
    BY_OPCODE[opcode] = info
    return info


# --------------------------------------------------------------------- control
_op("unreachable", 0x00)
_op("nop", 0x01)
_op("block", 0x02, Imm.BLOCKTYPE)
_op("loop", 0x03, Imm.BLOCKTYPE)
_op("if", 0x04, Imm.BLOCKTYPE, pops=(I32,))
_op("else", 0x05)
_op("end", 0x0B)
_op("br", 0x0C, Imm.LABEL)
_op("br_if", 0x0D, Imm.LABEL, pops=(I32,))
_op("br_table", 0x0E, Imm.LABEL_TABLE, pops=(I32,))
_op("return", 0x0F)
_op("call", 0x10, Imm.FUNC)
_op("call_indirect", 0x11, Imm.CALL_INDIRECT)

# ------------------------------------------------------------------ parametric
_op("drop", 0x1A)
_op("select", 0x1B)

# -------------------------------------------------------------------- variable
_op("local.get", 0x20, Imm.LOCAL)
_op("local.set", 0x21, Imm.LOCAL)
_op("local.tee", 0x22, Imm.LOCAL)
_op("global.get", 0x23, Imm.GLOBAL)
_op("global.set", 0x24, Imm.GLOBAL)

# ---------------------------------------------------------------------- memory
_op("i32.load", 0x28, Imm.MEMARG, pops=(I32,), pushes=(I32,))
_op("i64.load", 0x29, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("f32.load", 0x2A, Imm.MEMARG, pops=(I32,), pushes=(F32,))
_op("f64.load", 0x2B, Imm.MEMARG, pops=(I32,), pushes=(F64,))
_op("i32.load8_s", 0x2C, Imm.MEMARG, pops=(I32,), pushes=(I32,))
_op("i32.load8_u", 0x2D, Imm.MEMARG, pops=(I32,), pushes=(I32,))
_op("i32.load16_s", 0x2E, Imm.MEMARG, pops=(I32,), pushes=(I32,))
_op("i32.load16_u", 0x2F, Imm.MEMARG, pops=(I32,), pushes=(I32,))
_op("i64.load8_s", 0x30, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i64.load8_u", 0x31, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i64.load16_s", 0x32, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i64.load16_u", 0x33, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i64.load32_s", 0x34, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i64.load32_u", 0x35, Imm.MEMARG, pops=(I32,), pushes=(I64,))
_op("i32.store", 0x36, Imm.MEMARG, pops=(I32, I32))
_op("i64.store", 0x37, Imm.MEMARG, pops=(I32, I64))
_op("f32.store", 0x38, Imm.MEMARG, pops=(I32, F32))
_op("f64.store", 0x39, Imm.MEMARG, pops=(I32, F64))
_op("i32.store8", 0x3A, Imm.MEMARG, pops=(I32, I32))
_op("i32.store16", 0x3B, Imm.MEMARG, pops=(I32, I32))
_op("i64.store8", 0x3C, Imm.MEMARG, pops=(I32, I64))
_op("i64.store16", 0x3D, Imm.MEMARG, pops=(I32, I64))
_op("i64.store32", 0x3E, Imm.MEMARG, pops=(I32, I64))
_op("memory.size", 0x3F, Imm.MEMORY, pushes=(I32,))
_op("memory.grow", 0x40, Imm.MEMORY, pops=(I32,), pushes=(I32,))

# ------------------------------------------------------------------- constants
_op("i32.const", 0x41, Imm.I32_CONST, pushes=(I32,))
_op("i64.const", 0x42, Imm.I64_CONST, pushes=(I64,))
_op("f32.const", 0x43, Imm.F32_CONST, pushes=(F32,))
_op("f64.const", 0x44, Imm.F64_CONST, pushes=(F64,))

# ------------------------------------------------------------- i32 comparisons
_op("i32.eqz", 0x45, pops=(I32,), pushes=(I32,))
_op("i32.eq", 0x46, pops=(I32, I32), pushes=(I32,))
_op("i32.ne", 0x47, pops=(I32, I32), pushes=(I32,))
_op("i32.lt_s", 0x48, pops=(I32, I32), pushes=(I32,))
_op("i32.lt_u", 0x49, pops=(I32, I32), pushes=(I32,))
_op("i32.gt_s", 0x4A, pops=(I32, I32), pushes=(I32,))
_op("i32.gt_u", 0x4B, pops=(I32, I32), pushes=(I32,))
_op("i32.le_s", 0x4C, pops=(I32, I32), pushes=(I32,))
_op("i32.le_u", 0x4D, pops=(I32, I32), pushes=(I32,))
_op("i32.ge_s", 0x4E, pops=(I32, I32), pushes=(I32,))
_op("i32.ge_u", 0x4F, pops=(I32, I32), pushes=(I32,))

# ------------------------------------------------------------- i64 comparisons
_op("i64.eqz", 0x50, pops=(I64,), pushes=(I32,))
_op("i64.eq", 0x51, pops=(I64, I64), pushes=(I32,))
_op("i64.ne", 0x52, pops=(I64, I64), pushes=(I32,))
_op("i64.lt_s", 0x53, pops=(I64, I64), pushes=(I32,))
_op("i64.lt_u", 0x54, pops=(I64, I64), pushes=(I32,))
_op("i64.gt_s", 0x55, pops=(I64, I64), pushes=(I32,))
_op("i64.gt_u", 0x56, pops=(I64, I64), pushes=(I32,))
_op("i64.le_s", 0x57, pops=(I64, I64), pushes=(I32,))
_op("i64.le_u", 0x58, pops=(I64, I64), pushes=(I32,))
_op("i64.ge_s", 0x59, pops=(I64, I64), pushes=(I32,))
_op("i64.ge_u", 0x5A, pops=(I64, I64), pushes=(I32,))

# ------------------------------------------------------------- f32 comparisons
_op("f32.eq", 0x5B, pops=(F32, F32), pushes=(I32,))
_op("f32.ne", 0x5C, pops=(F32, F32), pushes=(I32,))
_op("f32.lt", 0x5D, pops=(F32, F32), pushes=(I32,))
_op("f32.gt", 0x5E, pops=(F32, F32), pushes=(I32,))
_op("f32.le", 0x5F, pops=(F32, F32), pushes=(I32,))
_op("f32.ge", 0x60, pops=(F32, F32), pushes=(I32,))

# ------------------------------------------------------------- f64 comparisons
_op("f64.eq", 0x61, pops=(F64, F64), pushes=(I32,))
_op("f64.ne", 0x62, pops=(F64, F64), pushes=(I32,))
_op("f64.lt", 0x63, pops=(F64, F64), pushes=(I32,))
_op("f64.gt", 0x64, pops=(F64, F64), pushes=(I32,))
_op("f64.le", 0x65, pops=(F64, F64), pushes=(I32,))
_op("f64.ge", 0x66, pops=(F64, F64), pushes=(I32,))

# -------------------------------------------------------------- i32 arithmetic
_op("i32.clz", 0x67, pops=(I32,), pushes=(I32,))
_op("i32.ctz", 0x68, pops=(I32,), pushes=(I32,))
_op("i32.popcnt", 0x69, pops=(I32,), pushes=(I32,))
_op("i32.add", 0x6A, pops=(I32, I32), pushes=(I32,))
_op("i32.sub", 0x6B, pops=(I32, I32), pushes=(I32,))
_op("i32.mul", 0x6C, pops=(I32, I32), pushes=(I32,))
_op("i32.div_s", 0x6D, pops=(I32, I32), pushes=(I32,))
_op("i32.div_u", 0x6E, pops=(I32, I32), pushes=(I32,))
_op("i32.rem_s", 0x6F, pops=(I32, I32), pushes=(I32,))
_op("i32.rem_u", 0x70, pops=(I32, I32), pushes=(I32,))
_op("i32.and", 0x71, pops=(I32, I32), pushes=(I32,))
_op("i32.or", 0x72, pops=(I32, I32), pushes=(I32,))
_op("i32.xor", 0x73, pops=(I32, I32), pushes=(I32,))
_op("i32.shl", 0x74, pops=(I32, I32), pushes=(I32,))
_op("i32.shr_s", 0x75, pops=(I32, I32), pushes=(I32,))
_op("i32.shr_u", 0x76, pops=(I32, I32), pushes=(I32,))
_op("i32.rotl", 0x77, pops=(I32, I32), pushes=(I32,))
_op("i32.rotr", 0x78, pops=(I32, I32), pushes=(I32,))

# -------------------------------------------------------------- i64 arithmetic
_op("i64.clz", 0x79, pops=(I64,), pushes=(I64,))
_op("i64.ctz", 0x7A, pops=(I64,), pushes=(I64,))
_op("i64.popcnt", 0x7B, pops=(I64,), pushes=(I64,))
_op("i64.add", 0x7C, pops=(I64, I64), pushes=(I64,))
_op("i64.sub", 0x7D, pops=(I64, I64), pushes=(I64,))
_op("i64.mul", 0x7E, pops=(I64, I64), pushes=(I64,))
_op("i64.div_s", 0x7F, pops=(I64, I64), pushes=(I64,))
_op("i64.div_u", 0x80, pops=(I64, I64), pushes=(I64,))
_op("i64.rem_s", 0x81, pops=(I64, I64), pushes=(I64,))
_op("i64.rem_u", 0x82, pops=(I64, I64), pushes=(I64,))
_op("i64.and", 0x83, pops=(I64, I64), pushes=(I64,))
_op("i64.or", 0x84, pops=(I64, I64), pushes=(I64,))
_op("i64.xor", 0x85, pops=(I64, I64), pushes=(I64,))
_op("i64.shl", 0x86, pops=(I64, I64), pushes=(I64,))
_op("i64.shr_s", 0x87, pops=(I64, I64), pushes=(I64,))
_op("i64.shr_u", 0x88, pops=(I64, I64), pushes=(I64,))
_op("i64.rotl", 0x89, pops=(I64, I64), pushes=(I64,))
_op("i64.rotr", 0x8A, pops=(I64, I64), pushes=(I64,))

# -------------------------------------------------------------- f32 arithmetic
_op("f32.abs", 0x8B, pops=(F32,), pushes=(F32,))
_op("f32.neg", 0x8C, pops=(F32,), pushes=(F32,))
_op("f32.ceil", 0x8D, pops=(F32,), pushes=(F32,))
_op("f32.floor", 0x8E, pops=(F32,), pushes=(F32,))
_op("f32.trunc", 0x8F, pops=(F32,), pushes=(F32,))
_op("f32.nearest", 0x90, pops=(F32,), pushes=(F32,))
_op("f32.sqrt", 0x91, pops=(F32,), pushes=(F32,))
_op("f32.add", 0x92, pops=(F32, F32), pushes=(F32,))
_op("f32.sub", 0x93, pops=(F32, F32), pushes=(F32,))
_op("f32.mul", 0x94, pops=(F32, F32), pushes=(F32,))
_op("f32.div", 0x95, pops=(F32, F32), pushes=(F32,))
_op("f32.min", 0x96, pops=(F32, F32), pushes=(F32,))
_op("f32.max", 0x97, pops=(F32, F32), pushes=(F32,))
_op("f32.copysign", 0x98, pops=(F32, F32), pushes=(F32,))

# -------------------------------------------------------------- f64 arithmetic
_op("f64.abs", 0x99, pops=(F64,), pushes=(F64,))
_op("f64.neg", 0x9A, pops=(F64,), pushes=(F64,))
_op("f64.ceil", 0x9B, pops=(F64,), pushes=(F64,))
_op("f64.floor", 0x9C, pops=(F64,), pushes=(F64,))
_op("f64.trunc", 0x9D, pops=(F64,), pushes=(F64,))
_op("f64.nearest", 0x9E, pops=(F64,), pushes=(F64,))
_op("f64.sqrt", 0x9F, pops=(F64,), pushes=(F64,))
_op("f64.add", 0xA0, pops=(F64, F64), pushes=(F64,))
_op("f64.sub", 0xA1, pops=(F64, F64), pushes=(F64,))
_op("f64.mul", 0xA2, pops=(F64, F64), pushes=(F64,))
_op("f64.div", 0xA3, pops=(F64, F64), pushes=(F64,))
_op("f64.min", 0xA4, pops=(F64, F64), pushes=(F64,))
_op("f64.max", 0xA5, pops=(F64, F64), pushes=(F64,))
_op("f64.copysign", 0xA6, pops=(F64, F64), pushes=(F64,))

# ----------------------------------------------------------------- conversions
_op("i32.wrap_i64", 0xA7, pops=(I64,), pushes=(I32,))
_op("i32.trunc_f32_s", 0xA8, pops=(F32,), pushes=(I32,))
_op("i32.trunc_f32_u", 0xA9, pops=(F32,), pushes=(I32,))
_op("i32.trunc_f64_s", 0xAA, pops=(F64,), pushes=(I32,))
_op("i32.trunc_f64_u", 0xAB, pops=(F64,), pushes=(I32,))
_op("i64.extend_i32_s", 0xAC, pops=(I32,), pushes=(I64,))
_op("i64.extend_i32_u", 0xAD, pops=(I32,), pushes=(I64,))
_op("i64.trunc_f32_s", 0xAE, pops=(F32,), pushes=(I64,))
_op("i64.trunc_f32_u", 0xAF, pops=(F32,), pushes=(I64,))
_op("i64.trunc_f64_s", 0xB0, pops=(F64,), pushes=(I64,))
_op("i64.trunc_f64_u", 0xB1, pops=(F64,), pushes=(I64,))
_op("f32.convert_i32_s", 0xB2, pops=(I32,), pushes=(F32,))
_op("f32.convert_i32_u", 0xB3, pops=(I32,), pushes=(F32,))
_op("f32.convert_i64_s", 0xB4, pops=(I64,), pushes=(F32,))
_op("f32.convert_i64_u", 0xB5, pops=(I64,), pushes=(F32,))
_op("f32.demote_f64", 0xB6, pops=(F64,), pushes=(F32,))
_op("f64.convert_i32_s", 0xB7, pops=(I32,), pushes=(F64,))
_op("f64.convert_i32_u", 0xB8, pops=(I32,), pushes=(F64,))
_op("f64.convert_i64_s", 0xB9, pops=(I64,), pushes=(F64,))
_op("f64.convert_i64_u", 0xBA, pops=(I64,), pushes=(F64,))
_op("f64.promote_f32", 0xBB, pops=(F32,), pushes=(F64,))
_op("i32.reinterpret_f32", 0xBC, pops=(F32,), pushes=(I32,))
_op("i64.reinterpret_f64", 0xBD, pops=(F64,), pushes=(I64,))
_op("f32.reinterpret_i32", 0xBE, pops=(I32,), pushes=(F32,))
_op("f64.reinterpret_i64", 0xBF, pops=(I64,), pushes=(F64,))
_op("i32.extend8_s", 0xC0, pops=(I32,), pushes=(I32,))
_op("i32.extend16_s", 0xC1, pops=(I32,), pushes=(I32,))
_op("i64.extend8_s", 0xC2, pops=(I64,), pushes=(I64,))
_op("i64.extend16_s", 0xC3, pops=(I64,), pushes=(I64,))
_op("i64.extend32_s", 0xC4, pops=(I64,), pushes=(I64,))

# ---------------------------------------------------- bulk memory (0xFC prefix)
# Opcodes are 0xFC00 | subopcode, matching the bulk-memory-operations proposal.
_op("memory.copy", 0xFC0A, Imm.MEMORY_PAIR, pops=(I32, I32, I32))
_op("memory.fill", 0xFC0B, Imm.MEMORY, pops=(I32, I32, I32))

# ----------------------------------------------------------- SIMD (0xFD prefix)
# Opcodes are 0xFD00 | subopcode, matching the fixed-width SIMD proposal.
def _simd(name: str, sub: int, imm: Imm = Imm.NONE, pops=(), pushes=()) -> OpcodeInfo:
    return _op(name, 0xFD00 | sub, imm, pops, pushes, simd=True)


_simd("v128.load", 0x00, Imm.MEMARG, pops=(I32,), pushes=(V128,))
_simd("v128.store", 0x0B, Imm.MEMARG, pops=(I32, V128))
_simd("v128.const", 0x0C, Imm.V128_CONST, pushes=(V128,))
_simd("i8x16.splat", 0x0F, pops=(I32,), pushes=(V128,))
_simd("i16x8.splat", 0x10, pops=(I32,), pushes=(V128,))
_simd("i32x4.splat", 0x11, pops=(I32,), pushes=(V128,))
_simd("i64x2.splat", 0x12, pops=(I64,), pushes=(V128,))
_simd("f32x4.splat", 0x13, pops=(F32,), pushes=(V128,))
_simd("f64x2.splat", 0x14, pops=(F64,), pushes=(V128,))
_simd("i8x16.extract_lane_s", 0x15, Imm.LANE, pops=(V128,), pushes=(I32,))
_simd("i8x16.extract_lane_u", 0x16, Imm.LANE, pops=(V128,), pushes=(I32,))
_simd("i8x16.replace_lane", 0x17, Imm.LANE, pops=(V128, I32), pushes=(V128,))
_simd("i16x8.extract_lane_s", 0x18, Imm.LANE, pops=(V128,), pushes=(I32,))
_simd("i16x8.extract_lane_u", 0x19, Imm.LANE, pops=(V128,), pushes=(I32,))
_simd("i16x8.replace_lane", 0x1A, Imm.LANE, pops=(V128, I32), pushes=(V128,))
_simd("i32x4.extract_lane", 0x1B, Imm.LANE, pops=(V128,), pushes=(I32,))
_simd("i32x4.replace_lane", 0x1C, Imm.LANE, pops=(V128, I32), pushes=(V128,))
_simd("i64x2.extract_lane", 0x1D, Imm.LANE, pops=(V128,), pushes=(I64,))
_simd("i64x2.replace_lane", 0x1E, Imm.LANE, pops=(V128, I64), pushes=(V128,))
_simd("f32x4.extract_lane", 0x1F, Imm.LANE, pops=(V128,), pushes=(F32,))
_simd("f32x4.replace_lane", 0x20, Imm.LANE, pops=(V128, F32), pushes=(V128,))
_simd("f64x2.extract_lane", 0x21, Imm.LANE, pops=(V128,), pushes=(F64,))
_simd("f64x2.replace_lane", 0x22, Imm.LANE, pops=(V128, F64), pushes=(V128,))
_simd("v128.not", 0x4D, pops=(V128,), pushes=(V128,))
_simd("v128.and", 0x4E, pops=(V128, V128), pushes=(V128,))
_simd("v128.or", 0x50, pops=(V128, V128), pushes=(V128,))
_simd("v128.xor", 0x51, pops=(V128, V128), pushes=(V128,))

# SIMD lane-wise comparisons: each lane yields all-ones (true) or all-zeros.
_simd("i8x16.eq", 0x23, pops=(V128, V128), pushes=(V128,))
_simd("i8x16.ne", 0x24, pops=(V128, V128), pushes=(V128,))
_simd("i16x8.eq", 0x2D, pops=(V128, V128), pushes=(V128,))
_simd("i16x8.ne", 0x2E, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.eq", 0x37, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.ne", 0x38, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.lt_s", 0x39, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.lt_u", 0x3A, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.gt_s", 0x3B, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.gt_u", 0x3C, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.le_s", 0x3D, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.le_u", 0x3E, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.ge_s", 0x3F, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.ge_u", 0x40, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.eq", 0x41, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.ne", 0x42, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.lt", 0x43, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.gt", 0x44, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.le", 0x45, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.ge", 0x46, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.eq", 0x47, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.ne", 0x48, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.lt", 0x49, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.gt", 0x4A, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.le", 0x4B, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.ge", 0x4C, pops=(V128, V128), pushes=(V128,))

# SIMD lane arithmetic.
_simd("i8x16.neg", 0x61, pops=(V128,), pushes=(V128,))
_simd("i8x16.add", 0x6E, pops=(V128, V128), pushes=(V128,))
_simd("i8x16.sub", 0x71, pops=(V128, V128), pushes=(V128,))
_simd("i16x8.neg", 0x81, pops=(V128,), pushes=(V128,))
_simd("i16x8.add", 0x8E, pops=(V128, V128), pushes=(V128,))
_simd("i16x8.sub", 0x91, pops=(V128, V128), pushes=(V128,))
_simd("i16x8.mul", 0x95, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.abs", 0xA0, pops=(V128,), pushes=(V128,))
_simd("i32x4.neg", 0xA1, pops=(V128,), pushes=(V128,))
_simd("i32x4.add", 0xAE, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.sub", 0xB1, pops=(V128, V128), pushes=(V128,))
_simd("i32x4.mul", 0xB5, pops=(V128, V128), pushes=(V128,))
_simd("i64x2.neg", 0xC1, pops=(V128,), pushes=(V128,))
_simd("i64x2.add", 0xCE, pops=(V128, V128), pushes=(V128,))
_simd("i64x2.sub", 0xD1, pops=(V128, V128), pushes=(V128,))
_simd("i64x2.mul", 0xD5, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.abs", 0xE0, pops=(V128,), pushes=(V128,))
_simd("f32x4.neg", 0xE1, pops=(V128,), pushes=(V128,))
_simd("f32x4.sqrt", 0xE3, pops=(V128,), pushes=(V128,))
_simd("f32x4.add", 0xE4, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.sub", 0xE5, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.mul", 0xE6, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.div", 0xE7, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.min", 0xE8, pops=(V128, V128), pushes=(V128,))
_simd("f32x4.max", 0xE9, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.abs", 0xEC, pops=(V128,), pushes=(V128,))
_simd("f64x2.neg", 0xED, pops=(V128,), pushes=(V128,))
_simd("f64x2.sqrt", 0xEF, pops=(V128,), pushes=(V128,))
_simd("f64x2.add", 0xF0, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.sub", 0xF1, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.mul", 0xF2, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.div", 0xF3, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.min", 0xF4, pops=(V128, V128), pushes=(V128,))
_simd("f64x2.max", 0xF5, pops=(V128, V128), pushes=(V128,))


def info(name_or_opcode) -> OpcodeInfo:
    """Look up an opcode by WAT name or by numeric opcode."""
    if isinstance(name_or_opcode, str):
        try:
            return BY_NAME[name_or_opcode]
        except KeyError as exc:
            raise KeyError(f"unknown instruction {name_or_opcode!r}") from exc
    try:
        return BY_OPCODE[name_or_opcode]
    except KeyError as exc:
        raise KeyError(f"unknown opcode 0x{name_or_opcode:x}") from exc


#: Total number of instructions in the table (used by tests).
def count() -> int:
    """Number of instructions defined in the opcode table."""
    return len(BY_NAME)
