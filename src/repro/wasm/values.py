"""Numeric value semantics of the Wasm ISA.

Integers are represented internally as *unsigned* Python ints in
``[0, 2**bits)``; floats as Python floats (f32 results are rounded through a
32-bit container to get correct single-precision semantics); ``v128`` values
as 16-byte ``bytes``.  The helpers here implement the exact wrapping,
signedness, truncation-with-trap and bit-twiddling semantics the interpreter
and the code-generating back-end share.
"""

from __future__ import annotations

import math
import struct
from typing import Tuple

from repro.wasm.errors import IntegerDivideByZeroTrap, IntegerOverflowTrap

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

# Pre-compiled bit-cast codecs: f32 rounding sits on the hot path of every
# single-precision operation, so the format strings are parsed exactly once.
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Pre-compiled v128 lane codecs, keyed by lane struct char (same idiom as the
# scalar codecs above).  ``V128_LANE`` packs/unpacks one lane (splat,
# extract_lane, replace_lane); ``V128_VEC`` a whole 16-byte vector.
V128_LANE = {
    "b": struct.Struct("<b"),
    "h": struct.Struct("<h"),
    "i": struct.Struct("<i"),
    "q": struct.Struct("<q"),
    "f": _F32,
    "d": _F64,
}
V128_VEC = {
    "b": struct.Struct("<16b"),
    "h": struct.Struct("<8h"),
    "i": struct.Struct("<4i"),
    "q": struct.Struct("<2q"),
    "f": struct.Struct("<4f"),
    "d": struct.Struct("<2d"),
}


# ----------------------------------------------------------------- int helpers


def wrap32(value: int) -> int:
    """Wrap to unsigned 32-bit."""
    return value & MASK32


def wrap64(value: int) -> int:
    """Wrap to unsigned 64-bit."""
    return value & MASK64


def signed32(value: int) -> int:
    """Interpret an unsigned 32-bit value as signed."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def signed64(value: int) -> int:
    """Interpret an unsigned 64-bit value as signed."""
    value &= MASK64
    return value - 0x10000000000000000 if value & 0x8000000000000000 else value


def div_s(a: int, b: int, bits: int) -> int:
    """Signed division with Wasm trap semantics (truncates toward zero)."""
    mask = MASK32 if bits == 32 else MASK64
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == 0:
        raise IntegerDivideByZeroTrap()
    if sa == -(1 << (bits - 1)) and sb == -1:
        raise IntegerOverflowTrap(f"i{bits}.div_s overflow")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & mask


def div_u(a: int, b: int, bits: int) -> int:
    """Unsigned division with trap on zero divisor."""
    mask = MASK32 if bits == 32 else MASK64
    a &= mask
    b &= mask
    if b == 0:
        raise IntegerDivideByZeroTrap()
    return (a // b) & mask


def rem_s(a: int, b: int, bits: int) -> int:
    """Signed remainder (sign follows the dividend), trap on zero divisor."""
    mask = MASK32 if bits == 32 else MASK64
    sa = signed32(a) if bits == 32 else signed64(a)
    sb = signed32(b) if bits == 32 else signed64(b)
    if sb == 0:
        raise IntegerDivideByZeroTrap()
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & mask


def rem_u(a: int, b: int, bits: int) -> int:
    """Unsigned remainder, trap on zero divisor."""
    mask = MASK32 if bits == 32 else MASK64
    a &= mask
    b &= mask
    if b == 0:
        raise IntegerDivideByZeroTrap()
    return (a % b) & mask


def shl(a: int, b: int, bits: int) -> int:
    """Shift left (shift count taken modulo the bit width)."""
    mask = MASK32 if bits == 32 else MASK64
    return (a << (b % bits)) & mask


def shr_u(a: int, b: int, bits: int) -> int:
    """Logical shift right."""
    mask = MASK32 if bits == 32 else MASK64
    return ((a & mask) >> (b % bits)) & mask


def shr_s(a: int, b: int, bits: int) -> int:
    """Arithmetic shift right."""
    mask = MASK32 if bits == 32 else MASK64
    sa = signed32(a) if bits == 32 else signed64(a)
    return (sa >> (b % bits)) & mask


def rotl(a: int, b: int, bits: int) -> int:
    """Rotate left."""
    mask = MASK32 if bits == 32 else MASK64
    b %= bits
    a &= mask
    return ((a << b) | (a >> (bits - b))) & mask if b else a


def rotr(a: int, b: int, bits: int) -> int:
    """Rotate right."""
    mask = MASK32 if bits == 32 else MASK64
    b %= bits
    a &= mask
    return ((a >> b) | (a << (bits - b))) & mask if b else a


def clz(a: int, bits: int) -> int:
    """Count leading zero bits."""
    a &= MASK32 if bits == 32 else MASK64
    if a == 0:
        return bits
    return bits - a.bit_length()


def ctz(a: int, bits: int) -> int:
    """Count trailing zero bits."""
    a &= MASK32 if bits == 32 else MASK64
    if a == 0:
        return bits
    return (a & -a).bit_length() - 1


def popcnt(a: int, bits: int) -> int:
    """Count set bits."""
    return bin(a & (MASK32 if bits == 32 else MASK64)).count("1")


def extend_s(a: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend the low ``from_bits`` of ``a`` into a ``to_bits`` value."""
    mask_from = (1 << from_bits) - 1
    mask_to = (1 << to_bits) - 1
    a &= mask_from
    if a & (1 << (from_bits - 1)):
        a -= 1 << from_bits
    return a & mask_to


# --------------------------------------------------------------- float helpers


def round_f32(value: float) -> float:
    """Round a Python float through a 32-bit container (f32 semantics)."""
    return _F32.unpack(_F32.pack(value))[0]


def nearest(value: float) -> float:
    """Round to nearest, ties to even (the Wasm ``nearest`` instruction)."""
    if math.isnan(value) or math.isinf(value):
        return value
    floor_v = math.floor(value)
    diff = value - floor_v
    if diff < 0.5:
        result = floor_v
    elif diff > 0.5:
        result = floor_v + 1
    else:
        result = floor_v if floor_v % 2 == 0 else floor_v + 1
    # Preserve the sign of zero.
    if result == 0 and math.copysign(1.0, value) < 0:
        return -0.0
    return float(result)


def trunc_to_int(value: float, bits: int, signed: bool) -> int:
    """Float-to-integer truncation with the spec's trapping behaviour."""
    if math.isnan(value):
        raise IntegerOverflowTrap("invalid conversion to integer (NaN)")
    truncated = math.trunc(value)
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if truncated < lo or truncated > hi:
        raise IntegerOverflowTrap(f"float value {value} out of range for i{bits}")
    return truncated & ((1 << bits) - 1)


def reinterpret_f32_to_i32(value: float) -> int:
    """Bit-cast f32 -> i32."""
    return _U32.unpack(_F32.pack(value))[0]


def reinterpret_i32_to_f32(value: int) -> float:
    """Bit-cast i32 -> f32."""
    return _F32.unpack(_U32.pack(value & MASK32))[0]


def reinterpret_f64_to_i64(value: float) -> int:
    """Bit-cast f64 -> i64."""
    return _U64.unpack(_F64.pack(value))[0]


def reinterpret_i64_to_f64(value: int) -> float:
    """Bit-cast i64 -> f64."""
    return _F64.unpack(_U64.pack(value & MASK64))[0]


def float_min(a: float, b: float) -> float:
    """Wasm ``min``: NaN-propagating, -0 < +0."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return -0.0 if (math.copysign(1.0, a) < 0 or math.copysign(1.0, b) < 0) else 0.0
    return min(a, b)


def float_max(a: float, b: float) -> float:
    """Wasm ``max``: NaN-propagating, +0 > -0."""
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b == 0.0:
        return 0.0 if (math.copysign(1.0, a) > 0 or math.copysign(1.0, b) > 0) else -0.0
    return max(a, b)


# ---------------------------------------------------------------- default values


def default_value(valtype_name: str):
    """Zero value of a value type (used to initialise locals)."""
    if valtype_name in ("i32", "i64"):
        return 0
    if valtype_name in ("f32", "f64"):
        return 0.0
    if valtype_name == "v128":
        return bytes(16)
    return 0
