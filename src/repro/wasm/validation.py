"""Module validation (type checking).

Implements the stack-polymorphic validation algorithm of the Wasm
specification appendix for the instruction subset in
:mod:`repro.wasm.opcodes`: every function body is checked instruction by
instruction against a typed operand stack and a stack of control frames, so
ill-typed modules are rejected before instantiation -- the static half of the
sandbox guarantees described in §2.2 of the paper.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.wasm.errors import Trap, ValidationError
from repro.wasm.instructions import BlockType, Instruction
from repro.wasm.module import ExternKind, Module
from repro.wasm.opcodes import BY_OPCODE, Imm, OpcodeInfo
from repro.wasm.types import FuncType, ValType


@dataclass
class _ControlFrame:
    """Validation-time control frame."""

    opcode: str
    start_types: List[ValType]
    end_types: List[ValType]
    height: int
    unreachable: bool = False

    def label_types(self) -> List[ValType]:
        """Types a branch to this frame must provide."""
        return self.start_types if self.opcode == "loop" else self.end_types


class FunctionValidator:
    """Validates a single function body."""

    def __init__(self, module: Module, func_type: FuncType, locals_: Sequence[ValType]):
        self.module = module
        self.func_type = func_type
        self.locals = list(func_type.params) + list(locals_)
        self.stack: List[ValType] = []
        self.frames: List[_ControlFrame] = []

    # ------------------------------------------------------------ stack helpers

    def _push(self, vt: ValType) -> None:
        self.stack.append(vt)

    def _pop(self, expected: Optional[ValType] = None) -> Optional[ValType]:
        frame = self.frames[-1]
        if len(self.stack) == frame.height:
            if frame.unreachable:
                return expected
            raise ValidationError(
                f"stack underflow (expected {expected.short_name if expected else 'a value'})"
            )
        actual = self.stack.pop()
        if expected is not None and actual != expected:
            raise ValidationError(
                f"type mismatch: expected {expected.short_name}, found {actual.short_name}"
            )
        return actual

    def _push_many(self, types: Sequence[ValType]) -> None:
        for t in types:
            self._push(t)

    def _pop_many(self, types: Sequence[ValType]) -> None:
        for t in reversed(list(types)):
            self._pop(t)

    def _push_frame(self, opcode: str, start: Sequence[ValType], end: Sequence[ValType]) -> None:
        self.frames.append(
            _ControlFrame(opcode, list(start), list(end), height=len(self.stack))
        )
        self._push_many(start)

    def _pop_frame(self) -> _ControlFrame:
        frame = self.frames[-1]
        self._pop_many(frame.end_types)
        if len(self.stack) != frame.height and not frame.unreachable:
            raise ValidationError(
                f"values remaining on stack at end of {frame.opcode} "
                f"({len(self.stack) - frame.height} extra)"
            )
        del self.stack[frame.height :]
        self.frames.pop()
        return frame

    def _set_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.stack[frame.height :]
        frame.unreachable = True

    def _label(self, depth: int) -> _ControlFrame:
        if depth >= len(self.frames):
            raise ValidationError(f"branch depth {depth} exceeds nesting {len(self.frames)}")
        return self.frames[-1 - depth]

    # ---------------------------------------------------------------- validate

    def validate(self, body: Sequence[Instruction]) -> None:
        """Validate the instruction sequence of one function body.

        A plain numeric/const op or a ``local.get/set/tee`` whose operands are
        on top of the stack, above the current frame's height, is accepted
        inline from its row of :data:`_ACCEPT`.  That holds in an unreachable
        frame too: values above its height are real and typed, and the
        stack-polymorphic case (too few of them) is not accepted inline.
        Every other instruction -- control, calls, globals, memory ops, and
        any operand that does not fit -- goes through
        :meth:`_validate_instruction`, so every rejection keeps one message
        and one ``instr_offset``.
        """
        self._push_frame("func", [], list(self.func_type.results))
        stack, frames, locals_ = self.stack, self.frames, self.locals
        n_locals = len(locals_)
        height, sp = frames[-1].height, len(stack)
        for position, instr in enumerate(body):
            accept = _ACCEPT[instr.info.opcode]
            if accept is not None:
                kind, n, pops, pushes = accept
                if kind == _PLAIN:
                    if sp - n >= height and (not n or stack[-n:] == pops):
                        if n:
                            del stack[-n:]
                        stack += pushes
                        sp += len(pushes) - n
                        continue
                else:
                    index = instr.operands[0]
                    if index < n_locals:
                        lt = locals_[index]
                        if kind == _LOCAL_GET:
                            stack.append(lt)
                            sp += 1
                            continue
                        if sp > height and stack[-1] is lt:
                            if kind == _LOCAL_SET:
                                del stack[-1]
                                sp -= 1
                            continue
            try:
                self._validate_instruction(instr)
            except ValidationError as exc:
                raise ValidationError(
                    f"at instruction {position} ({instr.name}): {exc}",
                    instr_offset=position,
                    opcode=instr.name,
                ) from None
            sp = len(stack)
            # A stray ``end`` may have closed the function: then no operand
            # is above the height, and the slow path fails as it always has.
            height = frames[-1].height if frames else _NO_FRAME
        # The implicit end of the function body.
        frame = self._pop_frame()
        self._push_many(frame.end_types)

    def _validate_instruction(self, instr: Instruction) -> None:  # noqa: C901
        name = instr.name
        info = instr.info

        if name in ("block", "loop"):
            bt: BlockType = instr.operands[0]
            results = [bt.result] if bt.result is not None else []
            self._push_frame(name, [], results)
            return
        if name == "if":
            self._pop(ValType.I32)
            bt = instr.operands[0]
            results = [bt.result] if bt.result is not None else []
            self._push_frame("if", [], results)
            return
        if name == "else":
            frame = self._pop_frame()
            self._push_frame("else", [], frame.end_types)
            return
        if name == "end":
            frame = self._pop_frame()
            self._push_many(frame.end_types)
            return
        if name == "br":
            frame = self._label(instr.operands[0])
            self._pop_many(frame.label_types())
            self._set_unreachable()
            return
        if name == "br_if":
            self._pop(ValType.I32)
            frame = self._label(instr.operands[0])
            self._pop_many(frame.label_types())
            self._push_many(frame.label_types())
            return
        if name == "br_table":
            targets, default = instr.operands
            self._pop(ValType.I32)
            default_types = self._label(default).label_types()
            for t in targets:
                if [x for x in self._label(t).label_types()] != list(default_types):
                    raise ValidationError("br_table targets have inconsistent label types")
            self._pop_many(default_types)
            self._set_unreachable()
            return
        if name == "return":
            self._pop_many(self.func_type.results)
            self._set_unreachable()
            return
        if name == "unreachable":
            self._set_unreachable()
            return
        if name == "call":
            func_index = instr.operands[0]
            if func_index >= self.module.total_functions():
                raise ValidationError(f"call to unknown function index {func_index}")
            ft = self.module.func_type(func_index)
            self._pop_many(ft.params)
            self._push_many(ft.results)
            return
        if name == "call_indirect":
            type_index, table_index = instr.operands
            if type_index >= len(self.module.types):
                raise ValidationError(f"call_indirect references unknown type {type_index}")
            if not self.module.tables and not any(
                imp.kind == ExternKind.TABLE for imp in self.module.imports
            ):
                raise ValidationError("call_indirect requires a table")
            self._pop(ValType.I32)
            ft = self.module.types[type_index]
            self._pop_many(ft.params)
            self._push_many(ft.results)
            return
        if name == "drop":
            self._pop(None)
            return
        if name == "select":
            self._pop(ValType.I32)
            a = self._pop(None)
            b = self._pop(None)
            if a is not None and b is not None and a != b:
                raise ValidationError("select operands must have the same type")
            self._push(a or b or ValType.I32)
            return
        if name in ("local.get", "local.set", "local.tee"):
            index = instr.operands[0]
            if index >= len(self.locals):
                raise ValidationError(f"local index {index} out of range ({len(self.locals)} locals)")
            lt = self.locals[index]
            if name == "local.get":
                self._push(lt)
            elif name == "local.set":
                self._pop(lt)
            else:
                self._pop(lt)
                self._push(lt)
            return
        if name in ("global.get", "global.set"):
            index = instr.operands[0]
            imported = self.module.imported_globals()
            total = len(imported) + len(self.module.globals)
            if index >= total:
                raise ValidationError(f"global index {index} out of range ({total} globals)")
            if index < len(imported):
                gtype = imported[index].desc
            else:
                gtype = self.module.globals[index - len(imported)].type
            if name == "global.get":
                self._push(gtype.value_type)
            else:
                if not gtype.mutable:
                    raise ValidationError(f"global.set on immutable global {index}")
                self._pop(gtype.value_type)
            return
        if info.imm == Imm.MEMARG or name in (
            "memory.size", "memory.grow", "memory.copy", "memory.fill",
        ):
            if not self.module.memories and not self.module.imported_memories():
                raise ValidationError(f"{name} requires a linear memory")
            self._pop_many(info.pops)
            self._push_many(info.pushes)
            return

        # Plain numeric / const / SIMD instructions: use the static signature.
        self._pop_many(info.pops)
        self._push_many(info.pushes)


# -------------------------------------------------------------- accept table
#
# One row per opcode, keyed by the integer opcode (hashing the frozen
# OpcodeInfo would cost more than the lookup saves).  A row is None for an
# instruction whose typing depends on context; otherwise it names how
# ``FunctionValidator.validate`` may accept it inline: ``(_PLAIN, number of
# pops, pops, pushes)`` or ``(_LOCAL_GET | _LOCAL_SET | _LOCAL_TEE, ...)``.

_PLAIN, _LOCAL_GET, _LOCAL_SET, _LOCAL_TEE = range(4)
_NO_FRAME = sys.maxsize
_LOCAL_KINDS = {"local.get": _LOCAL_GET, "local.set": _LOCAL_SET, "local.tee": _LOCAL_TEE}

#: Instructions :meth:`FunctionValidator._validate_instruction` types by context.
_CONTEXTUAL = frozenset({
    "block", "loop", "if", "else", "end", "br", "br_if", "br_table", "return",
    "unreachable", "call", "call_indirect", "drop", "select",
    "local.get", "local.set", "local.tee", "global.get", "global.set",
    "memory.size", "memory.grow", "memory.copy", "memory.fill",
})


def _accept_row(info: OpcodeInfo) -> Optional[tuple]:
    if info.name in _LOCAL_KINDS:
        return (_LOCAL_KINDS[info.name], 0, None, None)
    if info.name in _CONTEXTUAL or info.imm == Imm.MEMARG:
        return None
    return (_PLAIN, len(info.pops), list(info.pops), list(info.pushes))


_ACCEPT: Dict[int, Optional[tuple]] = {
    opcode: _accept_row(info) for opcode, info in BY_OPCODE.items()
}


def validate_module(module: Module) -> None:
    """Validate a whole module; raises :class:`ValidationError` on failure.

    Decoded-but-hostile modules can hold structurally absurd values (indices
    and enum bytes the decoder has no context to reject); whatever low-level
    exception those provoke inside the checks is converted to a typed
    :class:`ValidationError` so callers validating untrusted input handle
    one :class:`~repro.wasm.errors.WasmError` family.
    """
    try:
        _validate_module(module)
    except (ValidationError, Trap):
        raise
    except (IndexError, KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed module: {type(exc).__name__}: {exc}") from exc


def _validate_module(module: Module) -> None:
    # Type indices referenced by imports and functions must exist.
    for imp in module.imports:
        if imp.kind == ExternKind.FUNC and imp.desc >= len(module.types):
            raise ValidationError(f"import {imp.qualified_name} references unknown type {imp.desc}")
    for func in module.functions:
        if func.type_index >= len(module.types):
            raise ValidationError(
                f"function {func.name or '<anon>'} references unknown type {func.type_index}"
            )

    # Memory limits.
    for mem in module.memories:
        try:
            mem.validate()
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    if len(module.memories) + len(module.imported_memories()) > 1:
        raise ValidationError("at most one linear memory is allowed")

    # Exports must reference existing entities, with unique names.
    seen = set()
    for export in module.exports:
        if export.name in seen:
            raise ValidationError(f"duplicate export name {export.name!r}")
        seen.add(export.name)
        if export.kind == ExternKind.FUNC and export.index >= module.total_functions():
            raise ValidationError(f"export {export.name!r} references unknown function {export.index}")
        if export.kind == ExternKind.MEMORY and export.index >= (
            len(module.memories) + len(module.imported_memories())
        ):
            raise ValidationError(f"export {export.name!r} references unknown memory {export.index}")

    # Start function must be () -> ().
    if module.start is not None:
        if module.start >= module.total_functions():
            raise ValidationError(f"start function index {module.start} out of range")
        st = module.func_type(module.start)
        if st.params or st.results:
            raise ValidationError("start function must have no parameters and no results")

    # Data segments must target memory 0 with a constant offset.
    for seg in module.data:
        if seg.memory_index != 0:
            raise ValidationError("data segments must target memory 0")

    # Function bodies.
    for i, func in enumerate(module.functions):
        func_type = module.types[func.type_index]
        validator = FunctionValidator(module, func_type, func.locals)
        try:
            validator.validate(func.body)
        except ValidationError as exc:
            # Re-wrap with the function's coordinates, keeping the inner
            # error's instruction offset/opcode so consumers (serve's 400
            # responses, analyzer findings) can point at the instruction.
            raise ValidationError(
                f"function {i} ({func.name or '?'}): {exc}",
                func_index=i,
                func_name=func.name or None,
                instr_offset=getattr(exc, "instr_offset", None),
                opcode=getattr(exc, "opcode", None),
            ) from None
