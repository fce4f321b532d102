"""Lowering pass: decoded function bodies -> a pre-resolved, flat IR.

The interpreter used to dispatch on opcode *name strings* and (in the
Singlepass back-end) re-scan function bodies at run time for the ``else``/
``end`` matching a construct.  This module lowers each decoded body exactly
once into a flat code array of ``(handler, immediate)`` pairs:

* opcode handlers are resolved to direct function references at lower time --
  the dispatch loop indexes the array and calls, with no per-step lookups,
* ``block``/``if``/``else`` jump targets are pre-computed into absolute
  offsets (subsuming the old per-backend control maps),
* constants are pre-validated (wrapped/rounded) at lower time,
* common adjacent instruction pairs are fused into superinstructions
  (``local.get+local.get+binop``, ``local.get+const+binop``,
  ``local.get+const+store``, compare+``br_if``).

The lowered form exists in two representations: the *serial* form
(``LoweredFunction.ops`` -- plain ``(kind, immediate)`` tuples of picklable
values, what the on-disk compilation cache stores, versioned by
:data:`IR_VERSION`) and the *linked* form (``LoweredFunction.code`` --
``(handler, immediate)`` pairs produced by :func:`link`, rebuilt on load).

All three compiler back-ends are rebased on this IR: Singlepass lowers lazily
per first call, Cranelift lowers eagerly at compile time, and the LLVM
back-end consumes the lowered ops as the input to its Python code generator --
so the back-ends still differ only in *when* the work happens, exactly as in
Table 1 of the paper.

The numeric semantic tables (shared with the LLVM code generator so all
back-ends agree bit-for-bit) live here as well; they delegate to
:mod:`repro.wasm.values`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.wasm import values as V
from repro.wasm.errors import IndirectCallTrap, Trap, UnreachableTrap
from repro.wasm.instructions import BlockType, Instruction, MemArg
from repro.wasm.module import Function, Module

#: Version stamp of the lowered representation.  Part of the compilation-cache
#: key: bumping it transparently invalidates every cached artifact.
#: Version 2: bulk memory (``memory.copy``/``memory.fill``), the full SIMD
#: lane-arithmetic set (NumPy-backed), signedness-aware ``extract_lane``
#: immediates, and the mined-superinstruction op kind ``fused.mined`` plus the
#: serialized fusion table.
IR_VERSION = 2


# ------------------------------------------------------------ semantic tables

_I32_BIN = {
    "i32.add": lambda a, b: V.wrap32(a + b),
    "i32.sub": lambda a, b: V.wrap32(a - b),
    "i32.mul": lambda a, b: V.wrap32(a * b),
    "i32.div_s": lambda a, b: V.div_s(a, b, 32),
    "i32.div_u": lambda a, b: V.div_u(a, b, 32),
    "i32.rem_s": lambda a, b: V.rem_s(a, b, 32),
    "i32.rem_u": lambda a, b: V.rem_u(a, b, 32),
    "i32.and": lambda a, b: a & b,
    "i32.or": lambda a, b: a | b,
    "i32.xor": lambda a, b: a ^ b,
    "i32.shl": lambda a, b: V.shl(a, b, 32),
    "i32.shr_s": lambda a, b: V.shr_s(a, b, 32),
    "i32.shr_u": lambda a, b: V.shr_u(a, b, 32),
    "i32.rotl": lambda a, b: V.rotl(a, b, 32),
    "i32.rotr": lambda a, b: V.rotr(a, b, 32),
    "i32.eq": lambda a, b: int(a == b),
    "i32.ne": lambda a, b: int(a != b),
    "i32.lt_s": lambda a, b: int(V.signed32(a) < V.signed32(b)),
    "i32.lt_u": lambda a, b: int(a < b),
    "i32.gt_s": lambda a, b: int(V.signed32(a) > V.signed32(b)),
    "i32.gt_u": lambda a, b: int(a > b),
    "i32.le_s": lambda a, b: int(V.signed32(a) <= V.signed32(b)),
    "i32.le_u": lambda a, b: int(a <= b),
    "i32.ge_s": lambda a, b: int(V.signed32(a) >= V.signed32(b)),
    "i32.ge_u": lambda a, b: int(a >= b),
}

_I64_BIN = {
    "i64.add": lambda a, b: V.wrap64(a + b),
    "i64.sub": lambda a, b: V.wrap64(a - b),
    "i64.mul": lambda a, b: V.wrap64(a * b),
    "i64.div_s": lambda a, b: V.div_s(a, b, 64),
    "i64.div_u": lambda a, b: V.div_u(a, b, 64),
    "i64.rem_s": lambda a, b: V.rem_s(a, b, 64),
    "i64.rem_u": lambda a, b: V.rem_u(a, b, 64),
    "i64.and": lambda a, b: a & b,
    "i64.or": lambda a, b: a | b,
    "i64.xor": lambda a, b: a ^ b,
    "i64.shl": lambda a, b: V.shl(a, b, 64),
    "i64.shr_s": lambda a, b: V.shr_s(a, b, 64),
    "i64.shr_u": lambda a, b: V.shr_u(a, b, 64),
    "i64.rotl": lambda a, b: V.rotl(a, b, 64),
    "i64.rotr": lambda a, b: V.rotr(a, b, 64),
    "i64.eq": lambda a, b: int(a == b),
    "i64.ne": lambda a, b: int(a != b),
    "i64.lt_s": lambda a, b: int(V.signed64(a) < V.signed64(b)),
    "i64.lt_u": lambda a, b: int(a < b),
    "i64.gt_s": lambda a, b: int(V.signed64(a) > V.signed64(b)),
    "i64.gt_u": lambda a, b: int(a > b),
    "i64.le_s": lambda a, b: int(V.signed64(a) <= V.signed64(b)),
    "i64.le_u": lambda a, b: int(a <= b),
    "i64.ge_s": lambda a, b: int(V.signed64(a) >= V.signed64(b)),
    "i64.ge_u": lambda a, b: int(a >= b),
}


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


_F_BIN = {
    "f32.add": lambda a, b: V.round_f32(a + b),
    "f32.sub": lambda a, b: V.round_f32(a - b),
    "f32.mul": lambda a, b: V.round_f32(a * b),
    "f32.div": lambda a, b: V.round_f32(_fdiv(a, b)),
    "f32.min": lambda a, b: V.round_f32(V.float_min(a, b)),
    "f32.max": lambda a, b: V.round_f32(V.float_max(a, b)),
    "f32.copysign": lambda a, b: V.round_f32(math.copysign(a, b)),
    "f64.add": lambda a, b: a + b,
    "f64.sub": lambda a, b: a - b,
    "f64.mul": lambda a, b: a * b,
    "f64.div": _fdiv,
    "f64.min": V.float_min,
    "f64.max": V.float_max,
    "f64.copysign": lambda a, b: math.copysign(a, b),
    "f32.eq": lambda a, b: int(a == b),
    "f32.ne": lambda a, b: int(a != b),
    "f32.lt": lambda a, b: int(a < b),
    "f32.gt": lambda a, b: int(a > b),
    "f32.le": lambda a, b: int(a <= b),
    "f32.ge": lambda a, b: int(a >= b),
    "f64.eq": lambda a, b: int(a == b),
    "f64.ne": lambda a, b: int(a != b),
    "f64.lt": lambda a, b: int(a < b),
    "f64.gt": lambda a, b: int(a > b),
    "f64.le": lambda a, b: int(a <= b),
    "f64.ge": lambda a, b: int(a >= b),
}


def _f_unary(name: str, a: float) -> float:
    base = name.split(".")[1]
    if base == "abs":
        r = abs(a)
    elif base == "neg":
        r = -a
    elif base == "sqrt":
        r = math.sqrt(a) if a >= 0 else math.nan
    elif base == "ceil":
        r = float(math.ceil(a)) if not (math.isnan(a) or math.isinf(a)) else a
    elif base == "floor":
        r = float(math.floor(a)) if not (math.isnan(a) or math.isinf(a)) else a
    elif base == "trunc":
        r = float(math.trunc(a)) if not (math.isnan(a) or math.isinf(a)) else a
    elif base == "nearest":
        r = V.nearest(a)
    else:  # pragma: no cover - table integrity guard
        raise Trap(f"unknown float unary {name}")
    return V.round_f32(r) if name.startswith("f32.") else r


_UNARY_INT = {
    "i32.clz": lambda a: V.clz(a, 32),
    "i32.ctz": lambda a: V.ctz(a, 32),
    "i32.popcnt": lambda a: V.popcnt(a, 32),
    "i64.clz": lambda a: V.clz(a, 64),
    "i64.ctz": lambda a: V.ctz(a, 64),
    "i64.popcnt": lambda a: V.popcnt(a, 64),
    "i32.eqz": lambda a: int(a == 0),
    "i64.eqz": lambda a: int(a == 0),
    "i32.extend8_s": lambda a: V.extend_s(a, 8, 32),
    "i32.extend16_s": lambda a: V.extend_s(a, 16, 32),
    "i64.extend8_s": lambda a: V.extend_s(a, 8, 64),
    "i64.extend16_s": lambda a: V.extend_s(a, 16, 64),
    "i64.extend32_s": lambda a: V.extend_s(a, 32, 64),
}

_CONVERSIONS = {
    "i32.wrap_i64": lambda a: V.wrap32(a),
    "i64.extend_i32_s": lambda a: V.signed32(a) & V.MASK64,
    "i64.extend_i32_u": lambda a: a & V.MASK32,
    "i32.trunc_f32_s": lambda a: V.trunc_to_int(a, 32, True),
    "i32.trunc_f32_u": lambda a: V.trunc_to_int(a, 32, False),
    "i32.trunc_f64_s": lambda a: V.trunc_to_int(a, 32, True),
    "i32.trunc_f64_u": lambda a: V.trunc_to_int(a, 32, False),
    "i64.trunc_f32_s": lambda a: V.trunc_to_int(a, 64, True),
    "i64.trunc_f32_u": lambda a: V.trunc_to_int(a, 64, False),
    "i64.trunc_f64_s": lambda a: V.trunc_to_int(a, 64, True),
    "i64.trunc_f64_u": lambda a: V.trunc_to_int(a, 64, False),
    "f32.convert_i32_s": lambda a: V.round_f32(float(V.signed32(a))),
    "f32.convert_i32_u": lambda a: V.round_f32(float(a & V.MASK32)),
    "f32.convert_i64_s": lambda a: V.round_f32(float(V.signed64(a))),
    "f32.convert_i64_u": lambda a: V.round_f32(float(a & V.MASK64)),
    "f64.convert_i32_s": lambda a: float(V.signed32(a)),
    "f64.convert_i32_u": lambda a: float(a & V.MASK32),
    "f64.convert_i64_s": lambda a: float(V.signed64(a)),
    "f64.convert_i64_u": lambda a: float(a & V.MASK64),
    "f32.demote_f64": lambda a: V.round_f32(a),
    "f64.promote_f32": lambda a: float(a),
    "i32.reinterpret_f32": V.reinterpret_f32_to_i32,
    "i64.reinterpret_f64": V.reinterpret_f64_to_i64,
    "f32.reinterpret_i32": V.reinterpret_i32_to_f32,
    "f64.reinterpret_i64": V.reinterpret_i64_to_f64,
}

_FLOAT_UNARY_BASES = ("abs", "neg", "sqrt", "ceil", "floor", "trunc", "nearest")

#: Merged binary/unary operator tables -- the lower-time resolution targets.
_BINOPS: Dict[str, Callable] = {**_I32_BIN, **_I64_BIN, **_F_BIN}
_UNOPS: Dict[str, Callable] = {**_UNARY_INT, **_CONVERSIONS}
for _prefix in ("f32", "f64"):
    for _base in _FLOAT_UNARY_BASES:
        _name = f"{_prefix}.{_base}"
        _UNOPS[_name] = (lambda a, _n=_name: _f_unary(_n, a))
del _prefix, _base, _name

# Memory access descriptors: name -> (nbytes, kind) where kind selects the
# store/load conversion ("s32"/"s64" sign-extending, "u", "f32", "f64", "v128").
_LOADS = {
    "i32.load": (4, "u"),
    "i64.load": (8, "u"),
    "f32.load": (4, "f32"),
    "f64.load": (8, "f64"),
    "i32.load8_s": (1, "s32"),
    "i32.load8_u": (1, "u"),
    "i32.load16_s": (2, "s32"),
    "i32.load16_u": (2, "u"),
    "i64.load8_s": (1, "s64"),
    "i64.load8_u": (1, "u"),
    "i64.load16_s": (2, "s64"),
    "i64.load16_u": (2, "u"),
    "i64.load32_s": (4, "s64"),
    "i64.load32_u": (4, "u"),
    "v128.load": (16, "v128"),
}

_STORES = {
    "i32.store": 4,
    "i64.store": 8,
    "f32.store": -4,
    "f64.store": -8,
    "i32.store8": 1,
    "i32.store16": 2,
    "i64.store8": 1,
    "i64.store16": 2,
    "i64.store32": 4,
    "v128.store": 16,
}


def _simd_lanes(name: str) -> Tuple[str, int, int]:
    """Lane format of a SIMD op name: (struct char, lane count, lane bytes)."""
    shape = name.split(".")[0]
    return {
        "i8x16": ("b", 16, 1),
        "i16x8": ("h", 8, 2),
        "i32x4": ("i", 4, 4),
        "i64x2": ("q", 2, 8),
        "f32x4": ("f", 4, 4),
        "f64x2": ("d", 2, 8),
    }[shape]


# NumPy lane dtypes: one handler dispatch does all 16 bytes of lane work.
_NP_LANES = {
    "b": np.int8,
    "h": np.int16,
    "i": np.int32,
    "q": np.int64,
    "f": np.float32,
    "d": np.float64,
}
_NP_UNSIGNED = {"b": np.uint8, "h": np.uint16, "i": np.uint32, "q": np.uint64}
# Comparison results are integer lane masks of the operand's lane width.
_NP_MASK = {
    "b": np.int8,
    "h": np.int16,
    "i": np.int32,
    "q": np.int64,
    "f": np.int32,
    "d": np.int64,
}


def _np_minmax(x: np.ndarray, y: np.ndarray, is_min: bool) -> np.ndarray:
    """Wasm float lane min/max: NaN-propagating (canonical NaN), -0 < +0."""
    dt = x.dtype
    r = np.minimum(x, y) if is_min else np.maximum(x, y)
    both_zero = (x == 0) & (y == 0)
    if both_zero.any():
        sx, sy = np.signbit(x), np.signbit(y)
        neg = (sx | sy) if is_min else (sx & sy)
        r = np.where(both_zero, np.where(neg, dt.type(-0.0), dt.type(0.0)), r)
    return np.where(np.isnan(x) | np.isnan(y), dt.type(np.nan), r)


def _simd_binary(name: str, a: bytes, b: bytes) -> bytes:
    """All-lanes binary SIMD op on two 16-byte vectors (NumPy-vectorized).

    Shared by the interpreter and every back-end, which is what keeps the
    engines bit-for-bit identical.  NaN results are canonicalized so the
    output never depends on platform NaN payload conventions.
    """
    if name.startswith("v128."):
        ia = int.from_bytes(a, "little")
        ib = int.from_bytes(b, "little")
        if name == "v128.and":
            r = ia & ib
        elif name == "v128.or":
            r = ia | ib
        elif name == "v128.xor":
            r = ia ^ ib
        else:  # pragma: no cover
            raise Trap(f"unknown v128 op {name}")
        return r.to_bytes(16, "little")
    fmt, _count, _size = _simd_lanes(name)
    op = name.split(".")[1]
    x = np.frombuffer(a, dtype=_NP_LANES[fmt])
    y = np.frombuffer(b, dtype=_NP_LANES[fmt])
    if op.endswith("_u") and fmt in _NP_UNSIGNED:
        x = x.view(_NP_UNSIGNED[fmt])
        y = y.view(_NP_UNSIGNED[fmt])
        op = op[:-2]
    elif op.endswith("_s"):
        op = op[:-2]
    with np.errstate(all="ignore"):
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op == "div":
            r = x / y
            r = np.where(np.isnan(r), r.dtype.type(np.nan), r)
        elif op == "min":
            r = _np_minmax(x, y, True)
        elif op == "max":
            r = _np_minmax(x, y, False)
        elif op in ("eq", "ne", "lt", "gt", "le", "ge"):
            if op == "eq":
                cond = x == y
            elif op == "ne":
                cond = x != y
            elif op == "lt":
                cond = x < y
            elif op == "gt":
                cond = x > y
            elif op == "le":
                cond = x <= y
            else:
                cond = x >= y
            # All-ones lanes for true, zero for false.
            r = np.zeros(len(cond), dtype=_NP_MASK[fmt])
            r[cond] = -1
        else:  # pragma: no cover
            raise Trap(f"unknown SIMD lane op {name}")
    return r.tobytes()


def _simd_unary(name: str, a: bytes) -> bytes:
    """All-lanes unary SIMD op (neg/abs/sqrt) on one 16-byte vector."""
    fmt, _count, _size = _simd_lanes(name)
    op = name.split(".")[1]
    x = np.frombuffer(a, dtype=_NP_LANES[fmt])
    with np.errstate(all="ignore"):
        if op == "neg":
            r = -x
        elif op == "abs":
            # Integer abs wraps (|INT_MIN| stays INT_MIN), matching the spec.
            r = np.abs(x)
        elif op == "sqrt":
            r = np.sqrt(x)
            r = np.where(np.isnan(r), r.dtype.type(np.nan), r)
        else:  # pragma: no cover
            raise Trap(f"unknown SIMD unary op {name}")
    return r.tobytes()


# --------------------------------------------------------------- control scan


def build_control_map(body: Sequence[Instruction]) -> Dict[int, Tuple[Optional[int], int]]:
    """One linear scan matching every ``block``/``loop``/``if`` to its
    ``else``/``end``: construct index -> (else_index_or_None, end_index)."""
    result: Dict[int, Tuple[Optional[int], int]] = {}
    stack: List[Tuple[int, Optional[int]]] = []
    for i, instr in enumerate(body):
        name = instr.name
        if name in ("block", "loop", "if"):
            stack.append((i, None))
        elif name == "else":
            if not stack:
                raise Trap(f"else without matching if at instruction {i}")
            start, _ = stack[-1]
            stack[-1] = (start, i)
        elif name == "end":
            if not stack:
                raise Trap(f"unmatched end at instruction {i}")
            start, else_index = stack.pop()
            result[start] = (else_index, i)
    if stack:
        raise Trap(f"unterminated control construct at instruction {stack[-1][0]}")
    return result


# ------------------------------------------------------------- execution state


class _State:
    """Mutable execution state threaded through the opcode handlers."""

    __slots__ = ("stack", "locals", "frames", "instance", "memory")


def _branch(st: _State, depth: int) -> int:
    """Take a branch to label ``depth``; returns the pc to continue at.

    Frames are ``(is_loop, arity, stack_height, target)`` tuples where
    ``target`` is the pre-resolved continuation: the loop header for loops,
    the offset just past the matching ``end`` for blocks/ifs, and ``len(ops)``
    for the implicit function frame.
    """
    frames = st.frames
    frame = frames[-1 - depth]
    stack = st.stack
    if frame[0]:  # loop: repeat, keep the loop frame, drop nested state
        if depth:
            del frames[len(frames) - depth:]
        del stack[frame[2]:]
        return frame[3]
    arity = frame[1]
    if arity:
        results = stack[len(stack) - arity:]
        del frames[len(frames) - 1 - depth:]
        del stack[frame[2]:]
        stack.extend(results)
    else:
        del frames[len(frames) - 1 - depth:]
        del stack[frame[2]:]
    return frame[3]


# ------------------------------------------------------------------- handlers

_HANDLERS: Dict[str, Callable] = {}
_LINKERS: Dict[str, Callable] = {}


def _op_handler(kind: str, linker: Optional[Callable] = None):
    def register(fn: Callable) -> Callable:
        _HANDLERS[kind] = fn
        if linker is not None:
            _LINKERS[kind] = linker
        return fn

    return register


@_op_handler("nop")
def _h_nop(st, pc, imm):
    return pc + 1


@_op_handler("fused.pad")
def _h_pad(st, pc, imm):  # pragma: no cover - unreachable by construction
    raise Trap("jump into the middle of a fused superinstruction")


@_op_handler("unreachable")
def _h_unreachable(st, pc, imm):
    raise UnreachableTrap()


@_op_handler("block")
def _h_block(st, pc, imm):
    # imm = (arity, end_index + 1)
    st.frames.append((False, imm[0], len(st.stack), imm[1]))
    return pc + 1


@_op_handler("loop")
def _h_loop(st, pc, imm):
    st.frames.append((True, 0, len(st.stack), pc + 1))
    return pc + 1


@_op_handler("if")
def _h_if(st, pc, imm):
    # imm = (arity, false_target, end_index + 1)
    cond = st.stack.pop()
    st.frames.append((False, imm[0], len(st.stack), imm[2]))
    return pc + 1 if cond else imm[1]


@_op_handler("else")
def _h_else(st, pc, imm):
    # Reached only by falling out of the then-arm: jump to the 'end' op
    # (which pops the frame).
    return imm


@_op_handler("end")
def _h_end(st, pc, imm):
    st.frames.pop()
    return pc + 1


@_op_handler("br")
def _h_br(st, pc, imm):
    return _branch(st, imm)


@_op_handler("br_if")
def _h_br_if(st, pc, imm):
    if st.stack.pop():
        return _branch(st, imm)
    return pc + 1


@_op_handler("br_table")
def _h_br_table(st, pc, imm):
    targets, default = imm
    idx = st.stack.pop()
    return _branch(st, targets[idx] if idx < len(targets) else default)


@_op_handler("return")
def _h_return(st, pc, imm):
    # imm = len(ops): jump past the end of the body; the epilogue collects
    # the top `nresults` values exactly like falling off the end.
    return imm


@_op_handler("call")
def _h_call(st, pc, imm):
    callee_index, nargs = imm
    stack = st.stack
    if nargs:
        args = stack[len(stack) - nargs:]
        del stack[len(stack) - nargs:]
    else:
        args = []
    stack.extend(st.instance.call_function(callee_index, args))
    return pc + 1


@_op_handler("call_indirect")
def _h_call_indirect(st, pc, imm):
    type_index, table_index, nargs = imm
    instance = st.instance
    stack = st.stack
    elem_index = stack.pop()
    if table_index >= len(instance.tables):
        raise IndirectCallTrap(f"no table at index {table_index}")
    callee_index = instance.tables[table_index].get(elem_index)
    if callee_index is None:
        raise IndirectCallTrap(f"null funcref at table slot {elem_index}")
    if instance.function_type(callee_index) != instance.module.types[type_index]:
        raise IndirectCallTrap("indirect call signature mismatch")
    if nargs:
        args = stack[len(stack) - nargs:]
        del stack[len(stack) - nargs:]
    else:
        args = []
    stack.extend(instance.call_function(callee_index, args))
    return pc + 1


@_op_handler("drop")
def _h_drop(st, pc, imm):
    st.stack.pop()
    return pc + 1


@_op_handler("select")
def _h_select(st, pc, imm):
    stack = st.stack
    cond = stack.pop()
    b = stack.pop()
    if not cond:
        stack[-1] = b
    return pc + 1


@_op_handler("local.get")
def _h_local_get(st, pc, imm):
    st.stack.append(st.locals[imm])
    return pc + 1


@_op_handler("local.set")
def _h_local_set(st, pc, imm):
    st.locals[imm] = st.stack.pop()
    return pc + 1


@_op_handler("local.tee")
def _h_local_tee(st, pc, imm):
    st.locals[imm] = st.stack[-1]
    return pc + 1


@_op_handler("global.get")
def _h_global_get(st, pc, imm):
    st.stack.append(st.instance.globals[imm].value)
    return pc + 1


@_op_handler("global.set")
def _h_global_set(st, pc, imm):
    st.instance.globals[imm].set(st.stack.pop())
    return pc + 1


@_op_handler("const")
def _h_const(st, pc, imm):
    st.stack.append(imm)
    return pc + 1


@_op_handler("load.u")
def _h_load_u(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], False)
    return pc + 1


@_op_handler("load.s32")
def _h_load_s32(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], True) & V.MASK32
    return pc + 1


@_op_handler("load.s64")
def _h_load_s64(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], True) & V.MASK64
    return pc + 1


@_op_handler("load.f32")
def _h_load_f32(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_f32(stack[-1] + imm)
    return pc + 1


@_op_handler("load.f64")
def _h_load_f64(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_f64(stack[-1] + imm)
    return pc + 1


@_op_handler("load.v128")
def _h_load_v128(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.read(stack[-1] + imm, 16)
    return pc + 1


@_op_handler("store.i")
def _h_store_i(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_int(stack.pop() + imm[0], value, imm[1])
    return pc + 1


@_op_handler("store.f32")
def _h_store_f32(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_f32(stack.pop() + imm, value)
    return pc + 1


@_op_handler("store.f64")
def _h_store_f64(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_f64(stack.pop() + imm, value)
    return pc + 1


@_op_handler("store.v128")
def _h_store_v128(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.write(stack.pop() + imm, bytes(value))
    return pc + 1


@_op_handler("memory.size")
def _h_memory_size(st, pc, imm):
    st.stack.append(st.memory.pages)
    return pc + 1


@_op_handler("memory.grow")
def _h_memory_grow(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.grow(stack[-1]) & V.MASK32
    return pc + 1


@_op_handler("memory.copy")
def _h_memory_copy(st, pc, imm):
    stack = st.stack
    n = stack.pop()
    src = stack.pop()
    st.memory.copy_within(stack.pop(), src, n)
    return pc + 1


@_op_handler("memory.fill")
def _h_memory_fill(st, pc, imm):
    stack = st.stack
    n = stack.pop()
    value = stack.pop()
    st.memory.fill(stack.pop(), value, n)
    return pc + 1


@_op_handler("bin", linker=lambda name: _BINOPS[name])
def _h_bin(st, pc, imm):
    stack = st.stack
    b = stack.pop()
    stack[-1] = imm(stack[-1], b)
    return pc + 1


@_op_handler("un", linker=lambda name: _UNOPS[name])
def _h_un(st, pc, imm):
    stack = st.stack
    stack[-1] = imm(stack[-1])
    return pc + 1


@_op_handler("splat")
def _h_splat(st, pc, imm):
    fmt, count, size = imm
    stack = st.stack
    value = stack.pop()
    if fmt in ("f", "d"):
        lane = V.V128_LANE[fmt].pack(value)
    else:
        lane = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    stack.append(lane * count)
    return pc + 1


@_op_handler("extract_lane")
def _h_extract_lane(st, pc, imm):
    # imm = (fmt, size, lane index, sign-extend?)
    fmt, size, lane_idx, signed = imm
    stack = st.stack
    lane = stack[-1][lane_idx * size: (lane_idx + 1) * size]
    if fmt in ("f", "d"):
        stack[-1] = V.V128_LANE[fmt].unpack(lane)[0]
    elif signed:
        stack[-1] = int.from_bytes(lane, "little", signed=True) & V.MASK32
    else:
        stack[-1] = int.from_bytes(lane, "little")
    return pc + 1


@_op_handler("replace_lane")
def _h_replace_lane(st, pc, imm):
    fmt, size, lane_idx = imm
    stack = st.stack
    value = stack.pop()
    vec = bytearray(stack[-1])
    if fmt in ("f", "d"):
        vec[lane_idx * size: (lane_idx + 1) * size] = V.V128_LANE[fmt].pack(value)
    else:
        vec[lane_idx * size: (lane_idx + 1) * size] = (
            value & ((1 << (8 * size)) - 1)
        ).to_bytes(size, "little")
    stack[-1] = bytes(vec)
    return pc + 1


@_op_handler("v128.not")
def _h_v128_not(st, pc, imm):
    stack = st.stack
    stack[-1] = (~int.from_bytes(stack[-1], "little") & (2**128 - 1)).to_bytes(16, "little")
    return pc + 1


@_op_handler("simd.bin")
def _h_simd_bin(st, pc, imm):
    stack = st.stack
    b = stack.pop()
    stack[-1] = _simd_binary(imm, stack[-1], b)
    return pc + 1


@_op_handler("simd.un")
def _h_simd_un(st, pc, imm):
    stack = st.stack
    stack[-1] = _simd_unary(imm, stack[-1])
    return pc + 1


# ---- superinstructions -------------------------------------------------------


def _link_fused_bin(imm):
    a, b, name = imm
    return (a, b, _BINOPS[name])


@_op_handler("fused.get_get_bin", linker=_link_fused_bin)
def _h_get_get_bin(st, pc, imm):
    a, b, op = imm
    locals_ = st.locals
    st.stack.append(op(locals_[a], locals_[b]))
    return pc + 3


@_op_handler("fused.get_const_bin", linker=_link_fused_bin)
def _h_get_const_bin(st, pc, imm):
    a, c, op = imm
    st.stack.append(op(st.locals[a], c))
    return pc + 3


@_op_handler("fused.get_const_store")
def _h_get_const_store(st, pc, imm):
    a, value, offset, nbytes = imm
    st.memory.store_int(st.locals[a] + offset, value, nbytes)
    return pc + 3


@_op_handler("fused.cmp_br_if", linker=lambda imm: (_BINOPS[imm[0]], imm[1]))
def _h_cmp_br_if(st, pc, imm):
    op, depth = imm
    stack = st.stack
    b = stack.pop()
    if op(stack.pop(), b):
        return _branch(st, depth)
    return pc + 2


@_op_handler("fused.eqz_br_if")
def _h_eqz_br_if(st, pc, imm):
    if not st.stack.pop():
        return _branch(st, imm)
    return pc + 2


def _link_fused_cmp(imm):
    a, b, name, depth = imm
    return (a, b, _BINOPS[name], depth)


@_op_handler("fused.get_get_cmp_br_if", linker=_link_fused_cmp)
def _h_get_get_cmp_br_if(st, pc, imm):
    a, b, op, depth = imm
    locals_ = st.locals
    if op(locals_[a], locals_[b]):
        return _branch(st, depth)
    return pc + 4


def _link_fused_bin_set(imm):
    a, b, name, dest = imm
    return (a, b, _BINOPS[name], dest)


@_op_handler("fused.get_get_bin_set", linker=_link_fused_bin_set)
def _h_get_get_bin_set(st, pc, imm):
    # local.get a ; local.get b ; binop ; local.set dest -- never touches the
    # value stack at all.
    a, b, op, dest = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], locals_[b])
    return pc + 4


@_op_handler("fused.get_const_bin_set", linker=_link_fused_bin_set)
def _h_get_const_bin_set(st, pc, imm):
    a, c, op, dest = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], c)
    return pc + 4


@_op_handler("fused.bin_set", linker=lambda imm: (_BINOPS[imm[0]], imm[1]))
def _h_bin_set(st, pc, imm):
    op, dest = imm
    stack = st.stack
    b = stack.pop()
    st.locals[dest] = op(stack.pop(), b)
    return pc + 2


# Loop back-edge superinstructions: an induction-variable update followed by
# an unconditional ``br`` (the tail of every counted loop) collapses into one
# dispatch that updates the local and takes the branch.


def _link_fused_bin_set_br(imm):
    a, b, name, dest, depth = imm
    return (a, b, _BINOPS[name], dest, depth)


@_op_handler("fused.get_get_bin_set_br", linker=_link_fused_bin_set_br)
def _h_get_get_bin_set_br(st, pc, imm):
    a, b, op, dest, depth = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], locals_[b])
    return _branch(st, depth)


@_op_handler("fused.get_const_bin_set_br", linker=_link_fused_bin_set_br)
def _h_get_const_bin_set_br(st, pc, imm):
    a, c, op, dest, depth = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], c)
    return _branch(st, depth)


@_op_handler("fused.set_br")
def _h_set_br(st, pc, imm):
    dest, depth = imm
    st.locals[dest] = st.stack.pop()
    return _branch(st, depth)


# ---- profile-guided superinstruction mining ---------------------------------

#: Op kinds safe to chain into a mined superinstruction: every handler here
#: unconditionally returns ``pc + 1`` (no branching, no calls), so a chain of
#: them can be executed back-to-back in one dispatch.
_CHAINABLE_KINDS = frozenset({
    "nop", "drop", "select",
    "local.get", "local.set", "local.tee", "global.get", "global.set",
    "const", "bin", "un",
    "load.u", "load.s32", "load.s64", "load.f32", "load.f64", "load.v128",
    "store.i", "store.f32", "store.f64", "store.v128",
    "memory.size", "memory.grow", "memory.copy", "memory.fill",
    "splat", "extract_lane", "replace_lane", "v128.not",
    "simd.bin", "simd.un",
})

#: Memoized chain executors, keyed by the tuple of constituent op kinds.  The
#: closure's ``__name__`` encodes the chain so profiler histograms attribute
#: mined superinstructions by name.
_CHAIN_CACHE: Dict[Tuple[str, ...], Callable] = {}


def _chain_handler(kinds: Tuple[str, ...]) -> Callable:
    """The executor for one mined chain: run the linked constituents in order."""
    kinds = tuple(kinds)
    cached = _CHAIN_CACHE.get(kinds)
    if cached is not None:
        return cached
    width = len(kinds)

    def _h_mined(st, pc, imm):
        for handler, sub in imm:
            handler(st, pc, sub)
        return pc + width

    _h_mined.__name__ = "_h_fused_mined__" + "__".join(
        k.replace(".", "_") for k in kinds
    )
    _CHAIN_CACHE[kinds] = _h_mined
    return _h_mined


def _link_mined(imm) -> Tuple:
    """Link a ``fused.mined`` immediate: (kinds, imms) -> ((handler, imm), ...)."""
    kinds, imms = imm
    pairs = []
    for kind, sub in zip(kinds, imms):
        linker = _LINKERS.get(kind)
        pairs.append((_HANDLERS[kind], linker(sub) if linker is not None else sub))
    return tuple(pairs)


def _serial_jump_targets(ops: Sequence[Tuple[str, object]]) -> set:
    """Offsets a lowered op may jump to, recovered from the serial form.

    Branch immediates are pre-resolved at lower time, so the set is exactly:
    function entry, ``block``/``if`` continuations, ``else`` jump targets,
    and loop headers.
    """
    targets = {0}
    for pc, (kind, imm) in enumerate(ops):
        if kind == "block":
            targets.add(imm[1])
        elif kind == "if":
            targets.add(imm[1])
            targets.add(imm[2])
        elif kind == "else":
            targets.add(imm)
        elif kind == "loop":
            targets.add(pc + 1)
    return targets


def _iter_chains(ops: Sequence[Tuple[str, object]], max_width: int):
    """Yield (start, kinds_tuple) for every fusable straight-line run."""
    targets = _serial_jump_targets(ops)
    n = len(ops)
    for i in range(n):
        if ops[i][0] not in _CHAINABLE_KINDS:
            continue
        for width in range(2, max_width + 1):
            end = i + width
            if end > n:
                break
            if ops[end - 1][0] not in _CHAINABLE_KINDS:
                break
            if any(j in targets for j in range(i + 1, end)):
                break
            yield i, tuple(kind for kind, _ in ops[i:end])


def mine_superinstructions(
    functions: Iterable,
    histogram: Optional[Dict[str, int]] = None,
    max_width: int = 3,
    min_occurrences: int = 2,
    top: int = 8,
) -> List[dict]:
    """Profile-guided superinstruction discovery.

    ``functions`` is an iterable of :class:`LoweredFunction` objects or raw
    serial op lists (e.g. the IR traces recorded by
    :class:`repro.obs.profile.InterpreterProfiler`).  ``histogram`` is a
    profiler handler histogram (handler ``__name__`` -> estimated hits); when
    given, chains whose constituent handlers were hot score higher.  Returns
    the fusion table: records sorted by score, each
    ``{"kinds": [...], "width": w, "occurrences": n, "score": s}``.
    """
    counts: Counter = Counter()
    for fn in functions:
        ops = fn.ops if isinstance(fn, LoweredFunction) else list(fn)
        ops = [tuple(op) for op in ops]
        for _start, kinds in _iter_chains(ops, max_width):
            counts[kinds] += 1

    weights: Dict[str, float] = {}
    if histogram:
        for kind in _CHAINABLE_KINDS:
            handler = _HANDLERS.get(kind)
            if handler is not None:
                weights[kind] = float(histogram.get(handler.__name__, 0))

    records = []
    for kinds, occurrences in counts.items():
        if occurrences < min_occurrences:
            continue
        if histogram:
            weight = min(weights.get(k, 0.0) for k in kinds)
            if weight == 0.0:
                continue  # a constituent never fired in the profile
        else:
            weight = 1.0
        records.append({
            "kinds": list(kinds),
            "width": len(kinds),
            "occurrences": occurrences,
            # Dispatches saved per execution of the chain = width - 1.
            "score": occurrences * weight * (len(kinds) - 1),
        })
    records.sort(key=lambda r: (-r["score"], -r["width"], r["kinds"]))
    return records[:top]


def apply_fusion_table(
    lowered: Sequence["LoweredFunction"], table: Sequence[dict]
) -> int:
    """Rewrite lowered ops in place with the mined ``fused.mined`` chains.

    Longest chains first; interior offsets become pads exactly like the
    static fusion pass.  Returns the number of chains formed.
    """
    patterns = sorted(
        (tuple(rec["kinds"]) for rec in table), key=len, reverse=True
    )
    formed = 0
    for lf in lowered:
        ops = lf.ops
        targets = _serial_jump_targets(ops)
        n = len(ops)
        i = 0
        while i < n:
            for kinds in patterns:
                width = len(kinds)
                end = i + width
                if end > n:
                    continue
                if any(j in targets for j in range(i + 1, end)):
                    continue
                if tuple(kind for kind, _ in ops[i:end]) != kinds:
                    continue
                ops[i] = ("fused.mined", (kinds, tuple(imm for _, imm in ops[i:end])))
                for j in range(i + 1, end):
                    ops[j] = _PAD
                formed += 1
                i = end - 1
                break
            i += 1
        lf.code = None  # force a re-link
    return formed


# ----------------------------------------------------------------- lowered IR


@dataclass
class LoweredFunction:
    """One function body in the pre-resolved flat representation.

    ``ops`` is the serial form: picklable ``(kind, immediate)`` tuples (what
    the compilation cache stores).  ``code`` is the linked form -- handlers
    resolved to direct function references -- built on demand by :func:`link`
    and never serialized.
    """

    ops: List[Tuple[str, object]]
    nresults: int
    local_defaults: Tuple
    name: str = ""
    code: Optional[List[Tuple[Callable, object]]] = field(
        default=None, repr=False, compare=False
    )

    def to_payload(self) -> dict:
        """Plain-data form for the on-disk artifact."""
        return {
            "ops": [list(op) for op in self.ops],
            "nresults": self.nresults,
            "local_defaults": list(self.local_defaults),
            "name": self.name,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LoweredFunction":
        """Rebuild from :meth:`to_payload` output (handlers re-linked lazily)."""
        return cls(
            ops=[(kind, imm) for kind, imm in payload["ops"]],
            nresults=payload["nresults"],
            local_defaults=tuple(payload["local_defaults"]),
            name=payload.get("name", ""),
        )


def link(lowered: LoweredFunction) -> List[Tuple[Callable, object]]:
    """Resolve the serial ops to ``(handler, immediate)`` pairs (memoized)."""
    code = []
    for kind, imm in lowered.ops:
        if kind == "fused.mined":
            kinds = tuple(imm[0])
            code.append((_chain_handler(kinds), _link_mined((kinds, imm[1]))))
            continue
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise Trap(f"unknown lowered op kind {kind!r} (IR version skew?)")
        linker = _LINKERS.get(kind)
        code.append((handler, linker(imm) if linker is not None else imm))
    lowered.code = code
    return code


# -------------------------------------------------------------- lowering pass


def _lower_instruction(
    module: Module,
    instr: Instruction,
    pc: int,
    cmap: Dict[int, Tuple[Optional[int], int]],
    else_to_end: Dict[int, int],
    nops: int,
) -> Tuple[str, object]:
    name = instr.name

    # ----- control
    if name == "nop":
        return ("nop", None)
    if name == "unreachable":
        return ("unreachable", None)
    if name == "block":
        _else, end = cmap[pc]
        bt: BlockType = instr.operands[0]
        return ("block", (bt.arity(), end + 1))
    if name == "loop":
        return ("loop", None)
    if name == "if":
        else_idx, end = cmap[pc]
        bt = instr.operands[0]
        false_target = (else_idx + 1) if else_idx is not None else end
        return ("if", (bt.arity(), false_target, end + 1))
    if name == "else":
        return ("else", else_to_end[pc])
    if name == "end":
        return ("end", None)
    if name == "br":
        return ("br", instr.operands[0])
    if name == "br_if":
        return ("br_if", instr.operands[0])
    if name == "br_table":
        targets, default = instr.operands
        return ("br_table", (tuple(targets), default))
    if name == "return":
        return ("return", nops)
    if name == "call":
        callee_index = instr.operands[0]
        nargs = len(module.func_type(callee_index).params)
        return ("call", (callee_index, nargs))
    if name == "call_indirect":
        type_index, table_index = instr.operands
        nargs = len(module.types[type_index].params)
        return ("call_indirect", (type_index, table_index, nargs))

    # ----- parametric / variables
    if name == "drop":
        return ("drop", None)
    if name == "select":
        return ("select", None)
    if name in ("local.get", "local.set", "local.tee", "global.get", "global.set"):
        return (name, instr.operands[0])

    # ----- constants (pre-validated at lower time)
    if name == "i32.const":
        return ("const", V.wrap32(instr.operands[0]))
    if name == "i64.const":
        return ("const", V.wrap64(instr.operands[0]))
    if name == "f32.const":
        return ("const", V.round_f32(float(instr.operands[0])))
    if name == "f64.const":
        return ("const", float(instr.operands[0]))
    if name == "v128.const":
        return ("const", bytes(instr.operands[0]))

    # ----- memory
    if name in _LOADS:
        memarg: MemArg = instr.operands[0]
        nbytes, kind = _LOADS[name]
        if kind == "f32":
            return ("load.f32", memarg.offset)
        if kind == "f64":
            return ("load.f64", memarg.offset)
        if kind == "v128":
            return ("load.v128", memarg.offset)
        if kind == "s32":
            return ("load.s32", (memarg.offset, nbytes))
        if kind == "s64":
            return ("load.s64", (memarg.offset, nbytes))
        return ("load.u", (memarg.offset, nbytes))
    if name in _STORES:
        memarg = instr.operands[0]
        if name == "f32.store":
            return ("store.f32", memarg.offset)
        if name == "f64.store":
            return ("store.f64", memarg.offset)
        if name == "v128.store":
            return ("store.v128", memarg.offset)
        return ("store.i", (memarg.offset, abs(_STORES[name])))
    if name == "memory.size":
        return ("memory.size", None)
    if name == "memory.grow":
        return ("memory.grow", None)
    if name == "memory.copy":
        return ("memory.copy", None)
    if name == "memory.fill":
        return ("memory.fill", None)

    # ----- numeric
    if name in _BINOPS:
        return ("bin", name)
    if name in _UNOPS:
        return ("un", name)

    # ----- SIMD
    if name.endswith(".splat"):
        return ("splat", _simd_lanes(name))
    if ".extract_lane" in name:
        fmt, _count, size = _simd_lanes(name)
        return ("extract_lane", (fmt, size, instr.operands[0], name.endswith("_s")))
    if ".replace_lane" in name:
        fmt, _count, size = _simd_lanes(name)
        return ("replace_lane", (fmt, size, instr.operands[0]))
    if name == "v128.not":
        return ("v128.not", None)
    if instr.info.is_simd:
        if name.split(".")[1] in ("neg", "abs", "sqrt"):
            return ("simd.un", name)
        return ("simd.bin", name)

    raise Trap(f"instruction {name!r} not supported by the lowering pass")


def _jump_targets(
    body: Sequence[Instruction], cmap: Dict[int, Tuple[Optional[int], int]]
) -> set:
    """All offsets any lowered op may jump to (fusion must not span them)."""
    targets = {0}
    for start, (else_idx, end) in cmap.items():
        targets.add(end)
        targets.add(end + 1)
        if else_idx is not None:
            targets.add(else_idx + 1)
        if body[start].name == "loop":
            targets.add(start + 1)
    return targets


_PAD = ("fused.pad", None)


def _fuse(ops: List[Tuple[str, object]], targets: set) -> int:
    """Rewrite common adjacent op sequences into superinstructions in place.

    The interior offsets of a fused run are replaced with pads; runs never
    span a jump target, so the pads are unreachable.  Returns the number of
    superinstructions formed.
    """
    n = len(ops)
    fused = 0
    i = 0
    while i < n:
        kind = ops[i][0]
        if kind == "local.get":
            # local.get a ; local.get b ; cmp ; br_if  -> one compare-branch
            if (
                i + 3 < n
                and i + 1 not in targets and i + 2 not in targets and i + 3 not in targets
                and ops[i + 1][0] == "local.get"
                and ops[i + 2][0] == "bin"
                and ops[i + 3][0] == "br_if"
            ):
                ops[i] = (
                    "fused.get_get_cmp_br_if",
                    (ops[i][1], ops[i + 1][1], ops[i + 2][1], ops[i + 3][1]),
                )
                ops[i + 1] = ops[i + 2] = ops[i + 3] = _PAD
                fused += 1
                i += 4
                continue
            if i + 2 < n and i + 1 not in targets and i + 2 not in targets:
                k1, v1 = ops[i + 1]
                k2, v2 = ops[i + 2]
                # Four-wide forms ending in local.set bypass the value stack
                # entirely (the inner loop of every reduction kernel).
                tail_set = (
                    i + 3 < n and i + 3 not in targets and ops[i + 3][0] == "local.set"
                )
                if k1 == "local.get" and k2 == "bin":
                    if tail_set:
                        ops[i] = (
                            "fused.get_get_bin_set",
                            (ops[i][1], v1, v2, ops[i + 3][1]),
                        )
                        ops[i + 1] = ops[i + 2] = ops[i + 3] = _PAD
                        fused += 1
                        i += 4
                        continue
                    ops[i] = ("fused.get_get_bin", (ops[i][1], v1, v2))
                    ops[i + 1] = ops[i + 2] = _PAD
                    fused += 1
                    i += 3
                    continue
                if k1 == "const" and k2 == "bin":
                    if tail_set:
                        ops[i] = (
                            "fused.get_const_bin_set",
                            (ops[i][1], v1, v2, ops[i + 3][1]),
                        )
                        ops[i + 1] = ops[i + 2] = ops[i + 3] = _PAD
                        fused += 1
                        i += 4
                        continue
                    ops[i] = ("fused.get_const_bin", (ops[i][1], v1, v2))
                    ops[i + 1] = ops[i + 2] = _PAD
                    fused += 1
                    i += 3
                    continue
                if k1 == "const" and k2 == "store.i":
                    ops[i] = ("fused.get_const_store", (ops[i][1], v1, v2[0], v2[1]))
                    ops[i + 1] = ops[i + 2] = _PAD
                    fused += 1
                    i += 3
                    continue
        elif kind == "bin" and i + 1 < n and i + 1 not in targets and ops[i + 1][0] == "br_if":
            ops[i] = ("fused.cmp_br_if", (ops[i][1], ops[i + 1][1]))
            ops[i + 1] = _PAD
            fused += 1
            i += 2
            continue
        elif kind == "bin" and i + 1 < n and i + 1 not in targets and ops[i + 1][0] == "local.set":
            ops[i] = ("fused.bin_set", (ops[i][1], ops[i + 1][1]))
            ops[i + 1] = _PAD
            fused += 1
            i += 2
            continue
        elif (
            kind == "un"
            and ops[i][1] in ("i32.eqz", "i64.eqz")
            and i + 1 < n
            and i + 1 not in targets
            and ops[i + 1][0] == "br_if"
        ):
            ops[i] = ("fused.eqz_br_if", ops[i + 1][1])
            ops[i + 1] = _PAD
            fused += 1
            i += 2
            continue
        i += 1

    # Back-edge sweep: an induction-variable update superinstruction (or a
    # bare local.set) immediately followed by an unconditional br is the tail
    # of every counted loop -- collapse the pair into one dispatch.
    i = 0
    while i < n:
        width = _SET_BR_WIDTHS.get(ops[i][0])
        if width is not None:
            j = i + width
            if j < n and j not in targets and ops[j][0] == "br":
                kind, imm = ops[i]
                if kind == "local.set":
                    ops[i] = ("fused.set_br", (imm, ops[j][1]))
                else:
                    ops[i] = (kind + "_br", (*imm, ops[j][1]))
                ops[j] = _PAD
                fused += 1
                i = j + 1
                continue
        i += 1
    return fused


#: Slot widths of the set-style ops eligible for back-edge fusion.
_SET_BR_WIDTHS = {
    "fused.get_get_bin_set": 4,
    "fused.get_const_bin_set": 4,
    "local.set": 1,
}


def lower_function(module: Module, func: Function, func_type) -> LoweredFunction:
    """Lower one decoded function body to the flat pre-resolved form."""
    body = func.body
    cmap = build_control_map(body)
    else_to_end = {e: end for (e, end) in cmap.values() if e is not None}
    nops = len(body)
    ops = [
        _lower_instruction(module, instr, pc, cmap, else_to_end, nops)
        for pc, instr in enumerate(body)
    ]
    _fuse(ops, _jump_targets(body, cmap))
    return LoweredFunction(
        ops=ops,
        nresults=len(func_type.results),
        local_defaults=tuple(V.default_value(vt.short_name) for vt in func.locals),
        name=func.name,
    )


def lower_module(module: Module) -> List[LoweredFunction]:
    """Lower every defined function of a module, in definition order."""
    return [
        lower_function(module, func, module.types[func.type_index])
        for func in module.functions
    ]


# --------------------------------------------------------------- serialization


def serialize_lowered(
    lowered: Sequence[LoweredFunction],
    fusion_table: Optional[Sequence[dict]] = None,
) -> dict:
    """Serial artifact payload for a lowered module (IR-versioned).

    ``fusion_table`` is the learned superinstruction table from
    :func:`mine_superinstructions`; when given it is persisted alongside the
    ops (which already contain the applied ``fused.mined`` chains), so a
    cached artifact replays the profile-guided fusion decisions.
    """
    payload = {
        "kind": "lowered-ir",
        "ir_version": IR_VERSION,
        "functions": [lf.to_payload() for lf in lowered],
    }
    if fusion_table is not None:
        payload["fusion_table"] = [dict(rec) for rec in fusion_table]
    return payload


def deserialize_lowered(payload: object, verify: bool = False) -> Optional[List[LoweredFunction]]:
    """Rebuild lowered functions from an artifact payload.

    Returns ``None`` when the payload is not a lowered-IR artifact of the
    current :data:`IR_VERSION` (the caller then re-lowers from the module).

    With ``verify=True`` the payload is first run through the static verifier
    (:mod:`repro.analysis.ir_verify`); a structurally-broken artifact raises
    :class:`~repro.wasm.errors.ValidationError` instead of being linked.
    """
    if not isinstance(payload, dict) or payload.get("kind") != "lowered-ir":
        return None
    if payload.get("ir_version") != IR_VERSION:
        return None
    if verify:
        # Imported lazily: repro.analysis.ir_verify imports this module.
        from repro.analysis.ir_verify import verify_payload
        from repro.wasm.errors import ValidationError

        verify_payload(payload).raise_if_error(
            ValidationError, "lowered-IR artifact rejected: "
        )
    return [LoweredFunction.from_payload(p) for p in payload["functions"]]
