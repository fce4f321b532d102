"""The pre-refactor string-dispatch interpreter, kept as a benchmark baseline.

This is the execution core as it existed before the lowering refactor: a
dispatch loop that branches on opcode *name strings* per step and resolves
``block``/``else``/``end`` matching through per-function control maps.  It is
*not* registered as a back-end; ``benchmarks/test_interpreter_throughput.py``
runs it to quantify the speedup of the threaded-dispatch loop over the
pre-resolved IR (the ``>= 2x`` acceptance bar of the refactor).

Numeric semantics delegate to the same shared tables in
:mod:`repro.wasm.semantics`, so the comparison measures dispatch cost only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.wasm import values as V
from repro.wasm.errors import IndirectCallTrap, Trap, UnreachableTrap
from repro.wasm.instructions import BlockType, MemArg
from repro.wasm.lowering import build_control_map
from repro.wasm.semantics import (
    _CONVERSIONS,
    _F_BIN,
    _I32_BIN,
    _I64_BIN,
    _LOADS,
    _STORES,
    _UNARY_INT,
    _f_unary,
    _simd_binary,
    _simd_lanes,
)
from repro.wasm.module import Module
from repro.wasm.runtime import Executor, Instance, WasmFunction

MAX_CALL_DEPTH = 256


@dataclass
class _Frame:
    """One entry of the control stack."""

    kind: str            # "func", "block", "loop", "if"
    arity: int           # values the construct leaves behind when branched to/out of
    height: int          # value-stack height at entry
    start: int           # pc of the first body instruction (for loops: branch target)
    end: int             # pc of the matching end (function: len(body))


class BaselineInterpreter(Executor):
    """The pre-lowering dispatch loop: per-step opcode-name string matching."""

    name = "baseline-interpreter"

    def __init__(self, max_call_depth: int = MAX_CALL_DEPTH):
        self.max_call_depth = max_call_depth
        self._control_maps: Dict[int, Dict[int, Tuple[Optional[int], int]]] = {}

    def prepare(self, module: Module) -> None:
        for i, func in enumerate(module.functions):
            self._control_maps[i] = build_control_map(func.body)

    def _matching(self, local_index: int, body, pc: int) -> Tuple[Optional[int], int]:
        cmap = self._control_maps.get(local_index)
        if cmap is None:
            cmap = build_control_map(body)
            self._control_maps[local_index] = cmap
        return cmap[pc]

    def call(self, instance: Instance, func_index: int, args) -> List:
        target = instance.functions[func_index]
        return self._exec(instance, target, list(args))

    def _exec(self, instance: Instance, target: WasmFunction, args: List) -> List:
        module = instance.module
        func = target.definition
        func_type = target.func_type
        local_index = target.func_index - module.num_imported_functions()

        locals_: List = list(args)
        for vt in func.locals:
            locals_.append(V.default_value(vt.short_name))

        body = func.body
        stack: List = []
        frames: List[_Frame] = [
            _Frame(kind="func", arity=len(func_type.results), height=0, start=0, end=len(body))
        ]
        memory = instance.memory
        pc = 0

        def do_branch(depth: int) -> int:
            frame = frames[-1 - depth]
            if frame.kind == "loop":
                if depth:
                    del frames[len(frames) - depth:]
                del stack[frame.height:]
                return frame.start
            results = stack[len(stack) - frame.arity:] if frame.arity else []
            del frames[len(frames) - 1 - depth:]
            del stack[frame.height:]
            stack.extend(results)
            if frame.kind == "func":
                return len(body)
            return frame.end + 1

        # Hot-path hygiene (the baseline stays string-dispatched, but it
        # should be an honest baseline): bound methods hoisted out of the
        # loop, ``info.name`` read without the property descriptor, and the
        # dispatch chain ordered by dynamic frequency -- locals, ALU and
        # constants first, control flow after.
        push = stack.append
        pop = stack.pop
        n_body = len(body)

        while pc < n_body:
            instr = body[pc]
            name = instr.info.name

            if name == "local.get":
                push(locals_[instr.operands[0]])
                pc += 1
            elif name in _I32_BIN:
                b = pop()
                a = pop()
                push(_I32_BIN[name](a, b))
                pc += 1
            elif name == "i32.const":
                push(V.wrap32(instr.operands[0]))
                pc += 1
            elif name == "local.set":
                locals_[instr.operands[0]] = pop()
                pc += 1
            elif name == "br_if":
                if pop():
                    pc = do_branch(instr.operands[0])
                else:
                    pc += 1
            elif name == "br":
                pc = do_branch(instr.operands[0])
            elif name == "local.tee":
                locals_[instr.operands[0]] = stack[-1]
                pc += 1
            elif name == "nop":
                pc += 1
            elif name == "unreachable":
                raise UnreachableTrap()
            elif name in ("block", "loop"):
                else_idx, end_idx = self._matching(local_index, body, pc)
                bt: BlockType = instr.operands[0]
                frames.append(
                    _Frame(
                        kind=name,
                        arity=bt.arity() if name == "block" else 0,
                        height=len(stack),
                        start=pc + 1,
                        end=end_idx,
                    )
                )
                pc += 1
            elif name == "if":
                else_idx, end_idx = self._matching(local_index, body, pc)
                bt = instr.operands[0]
                cond = stack.pop()
                frames.append(
                    _Frame(kind="if", arity=bt.arity(), height=len(stack), start=pc + 1, end=end_idx)
                )
                if cond:
                    pc += 1
                else:
                    pc = (else_idx + 1) if else_idx is not None else end_idx
            elif name == "else":
                pc = frames[-1].end
            elif name == "end":
                frames.pop()
                pc += 1
            elif name == "br_table":
                targets, default = instr.operands
                idx = stack.pop()
                depth = targets[idx] if idx < len(targets) else default
                pc = do_branch(depth)
            elif name == "return":
                results = stack[len(stack) - len(func_type.results):] if func_type.results else []
                return list(results)
            elif name == "call":
                callee_index = instr.operands[0]
                callee_type = instance.function_type(callee_index)
                nargs = len(callee_type.params)
                call_args = stack[len(stack) - nargs:] if nargs else []
                del stack[len(stack) - nargs:]
                results = instance.call_function(callee_index, call_args)
                stack.extend(results)
                pc += 1
            elif name == "call_indirect":
                type_index, table_index = instr.operands
                expected = module.types[type_index]
                elem_index = stack.pop()
                if table_index >= len(instance.tables):
                    raise IndirectCallTrap(f"no table at index {table_index}")
                callee_index = instance.tables[table_index].get(elem_index)
                if callee_index is None:
                    raise IndirectCallTrap(f"null funcref at table slot {elem_index}")
                if instance.function_type(callee_index) != expected:
                    raise IndirectCallTrap("indirect call signature mismatch")
                nargs = len(expected.params)
                call_args = stack[len(stack) - nargs:] if nargs else []
                del stack[len(stack) - nargs:]
                stack.extend(instance.call_function(callee_index, call_args))
                pc += 1
            elif name == "drop":
                stack.pop()
                pc += 1
            elif name == "select":
                cond = stack.pop()
                b = stack.pop()
                a = stack.pop()
                stack.append(a if cond else b)
                pc += 1
            elif name == "global.get":
                stack.append(instance.globals[instr.operands[0]].value)
                pc += 1
            elif name == "global.set":
                instance.globals[instr.operands[0]].set(stack.pop())
                pc += 1
            elif name == "i64.const":
                stack.append(V.wrap64(instr.operands[0]))
                pc += 1
            elif name in ("f32.const", "f64.const"):
                stack.append(float(instr.operands[0]))
                pc += 1
            elif name == "v128.const":
                stack.append(bytes(instr.operands[0]))
                pc += 1
            elif name in _LOADS:
                memarg: MemArg = instr.operands[0]
                addr = stack.pop() + memarg.offset
                nbytes, kind = _LOADS[name]
                if kind == "f32":
                    stack.append(memory.load_f32(addr))
                elif kind == "f64":
                    stack.append(memory.load_f64(addr))
                elif kind == "v128":
                    stack.append(memory.read(addr, 16))
                elif kind == "s32":
                    stack.append(memory.load_int(addr, nbytes, signed=True) & V.MASK32)
                elif kind == "s64":
                    stack.append(memory.load_int(addr, nbytes, signed=True) & V.MASK64)
                else:
                    stack.append(memory.load_int(addr, nbytes, signed=False))
                pc += 1
            elif name in _STORES:
                memarg = instr.operands[0]
                value = stack.pop()
                addr = stack.pop() + memarg.offset
                spec = _STORES[name]
                if name == "f32.store":
                    memory.store_f32(addr, value)
                elif name == "f64.store":
                    memory.store_f64(addr, value)
                elif name == "v128.store":
                    memory.write(addr, bytes(value))
                else:
                    memory.store_int(addr, value, abs(spec))
                pc += 1
            elif name == "memory.size":
                stack.append(memory.pages)
                pc += 1
            elif name == "memory.grow":
                delta = stack.pop()
                stack.append(memory.grow(delta) & V.MASK32)
                pc += 1
            elif name in _I64_BIN:
                b = stack.pop()
                a = stack.pop()
                stack.append(_I64_BIN[name](a, b))
                pc += 1
            elif name in _F_BIN:
                b = stack.pop()
                a = stack.pop()
                stack.append(_F_BIN[name](a, b))
                pc += 1
            elif name in _UNARY_INT:
                stack.append(_UNARY_INT[name](stack.pop()))
                pc += 1
            elif name in _CONVERSIONS:
                stack.append(_CONVERSIONS[name](stack.pop()))
                pc += 1
            elif name.startswith(("f32.", "f64.")) and name.split(".")[1] in (
                "abs", "neg", "sqrt", "ceil", "floor", "trunc", "nearest",
            ):
                stack.append(_f_unary(name, stack.pop()))
                pc += 1
            elif name.endswith(".splat"):
                fmt, count, size = _simd_lanes(name)
                value = stack.pop()
                if fmt in ("f", "d"):
                    lane = struct.pack(f"<{fmt}", value)
                else:
                    lane = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
                stack.append(lane * count)
                pc += 1
            elif instr.info.is_simd:
                b = stack.pop()
                a = stack.pop()
                stack.append(_simd_binary(name, a, b))
                pc += 1
            else:
                raise Trap(f"instruction {name!r} not implemented by the baseline interpreter")

        if func_type.results:
            return list(stack[len(stack) - len(func_type.results):])
        return []
