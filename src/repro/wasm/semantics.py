"""Numeric and SIMD semantics of the lowered IR, shared by every engine.

The binary/unary operator tables, the memory-access descriptors and the
NumPy-backed SIMD lane operations.  The interpreter's handlers link against
them, the generated code of the LLVM and Cranelift back-ends calls them, and
so all engines agree bit-for-bit; they delegate to :mod:`repro.wasm.values`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from repro.wasm import values as V
from repro.wasm.errors import Trap

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
