"""WebAssembly type system: value types, function types, limits.

The Wasm ISA exposed to HPC applications in the paper uses the four numeric
value types of the Wasm 1.0 specification (``i32``, ``i64``, ``f32``, ``f64``)
plus the 128-bit ``v128`` type of the fixed-width SIMD proposal (enabled with
``-msimd128`` in §4.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple


class ValType(Enum):
    """A WebAssembly value type (binary encoding in the member value)."""

    I32 = 0x7F
    I64 = 0x7E
    F32 = 0x7D
    F64 = 0x7C
    V128 = 0x7B
    FUNCREF = 0x70

    @property
    def short_name(self) -> str:
        """Lower-case WAT spelling (``i32``, ``f64``, ``v128``, ...)."""
        return self.name.lower()

    @classmethod
    def from_byte(cls, byte: int) -> "ValType":
        """Decode a value type from its binary byte."""
        for member in cls:
            if member.value == byte:
                return member
        raise ValueError(f"unknown value type byte 0x{byte:02x}")


# WAT spelling -> ValType, for the builder's string-friendly API.
VALTYPE_BY_NAME = {vt.short_name: vt for vt in ValType}


def valtype(spec) -> ValType:
    """Coerce a :class:`ValType` or its WAT spelling into a :class:`ValType`."""
    if isinstance(spec, ValType):
        return spec
    if isinstance(spec, str):
        try:
            return VALTYPE_BY_NAME[spec]
        except KeyError as exc:
            raise ValueError(f"unknown value type {spec!r}") from exc
    raise TypeError(f"cannot interpret {spec!r} as a value type")


@dataclass(frozen=True)
class FuncType:
    """A function signature: parameter types and result types."""

    params: Tuple[ValType, ...] = ()
    results: Tuple[ValType, ...] = ()

    @classmethod
    def of(cls, params=(), results=()) -> "FuncType":
        """Build a signature from value types or their WAT spellings."""
        return cls(tuple(valtype(p) for p in params), tuple(valtype(r) for r in results))

    def wat(self) -> str:
        """WAT rendering, e.g. ``(param i32 i32) (result i32)``."""
        parts = []
        if self.params:
            parts.append("(param " + " ".join(p.short_name for p in self.params) + ")")
        if self.results:
            parts.append("(result " + " ".join(r.short_name for r in self.results) + ")")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FuncType({self.wat() or '(no params/results)'})"


@dataclass(frozen=True)
class Limits:
    """Limits of a memory or table (in pages / elements)."""

    minimum: int
    maximum: Optional[int] = None

    def validate(self, hard_cap: int) -> None:
        """Check internal consistency and the spec's hard cap."""
        if self.minimum < 0:
            raise ValueError("limits minimum must be non-negative")
        if self.minimum > hard_cap:
            raise ValueError(f"limits minimum {self.minimum} exceeds cap {hard_cap}")
        if self.maximum is not None:
            if self.maximum < self.minimum:
                raise ValueError("limits maximum must be >= minimum")
            if self.maximum > hard_cap:
                raise ValueError(f"limits maximum {self.maximum} exceeds cap {hard_cap}")


@dataclass(frozen=True)
class MemoryType:
    """Type of a linear memory: page limits (64 KiB pages, 32-bit addresses)."""

    limits: Limits

    # 32-bit Wasm memories max out at 4 GiB = 65536 pages (§3.8 of the paper).
    PAGE_SIZE = 65536
    MAX_PAGES = 65536

    def validate(self) -> None:
        """Check the page limits against the 4 GiB address-space cap."""
        self.limits.validate(self.MAX_PAGES)


@dataclass(frozen=True)
class TableType:
    """Type of a table (always funcref elements in Wasm 1.0)."""

    limits: Limits
    element: ValType = ValType.FUNCREF


@dataclass(frozen=True)
class GlobalType:
    """Type of a global variable: value type and mutability."""

    value_type: ValType
    mutable: bool = False
