"""LLVM back-end: translate lowered function bodies to generated Python source.

Wasmer's LLVM back-end lowers Wasm through LLVM-IR into an optimised shared
object that is later ``dlopen``-ed.  The analogue here consumes the
pre-resolved IR of :mod:`repro.wasm.lowering` -- the same lowered form the
interpreter executes, including fused superinstructions -- and
translates it into Python source code (the module's "shared object"), compiles
it with ``compile``/``exec`` once, and thereafter executes plain Python
functions with no per-instruction dispatch: the slowest back-end to compile
and the fastest to run, reproducing the LLVM row of Table 1.  The generated
source travels inside a serializable artifact dict, which is exactly what the
compilation cache stores and reloads (§3.3 of the paper).

The generator is shared with the Cranelift back-end, which runs it per
function on first call and without the stack-to-expression fold
(:class:`FirstCallTable`); :class:`GeneratedCodeExecutor` runs the callables
of both.

Structured Wasm control flow is lowered with the label-id scheme: every
``block``/``loop``/``if`` gets a unique integer label, branches set ``_br`` to
the target label and break out of nested Python ``while`` regions until the
epilogue of the target construct consumes the branch.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Dict, List, Optional, Sequence

from repro.wasm import values as V
from repro.wasm.compilers.base import CompiledModule, CompilerBackend, register_backend
from repro.wasm.errors import IndirectCallTrap, StackExhaustionTrap, Trap, UnreachableTrap
from repro.wasm.lowering import (
    IR_VERSION,
    LoweredFunction,
    _BINOPS,
    _UNOPS,
    _simd_binary,
    _simd_unary,
    lower_module,
)
from repro.wasm.module import Module
from repro.wasm.runtime import Executor, HostFunction, Instance, reserve_recursion_headroom

MAX_CALL_DEPTH = 256

# Binary operations inlined as expressions in generated code; everything else
# falls back to the shared semantic tables (still correct, slightly slower).
_INLINE_EXPR = {
    "i32.add": "(({a}) + ({b})) & 0xFFFFFFFF",
    "i32.sub": "(({a}) - ({b})) & 0xFFFFFFFF",
    "i32.mul": "(({a}) * ({b})) & 0xFFFFFFFF",
    "i32.and": "({a}) & ({b})",
    "i32.or": "({a}) | ({b})",
    "i32.xor": "({a}) ^ ({b})",
    "i32.shl": "(({a}) << (({b}) % 32)) & 0xFFFFFFFF",
    "i32.shr_u": "({a}) >> (({b}) % 32)",
    "i32.shr_s": "(_S32({a}) >> (({b}) % 32)) & 0xFFFFFFFF",
    "i32.eq": "int(({a}) == ({b}))",
    "i32.ne": "int(({a}) != ({b}))",
    "i32.lt_u": "int(({a}) < ({b}))",
    "i32.gt_u": "int(({a}) > ({b}))",
    "i32.le_u": "int(({a}) <= ({b}))",
    "i32.ge_u": "int(({a}) >= ({b}))",
    # Signed comparisons use the xor-bias trick: flipping the sign bit maps
    # signed order onto unsigned order, so no _S32/_S64 call is needed.
    "i32.lt_s": "int((({a}) ^ 0x80000000) < (({b}) ^ 0x80000000))",
    "i32.gt_s": "int((({a}) ^ 0x80000000) > (({b}) ^ 0x80000000))",
    "i32.le_s": "int((({a}) ^ 0x80000000) <= (({b}) ^ 0x80000000))",
    "i32.ge_s": "int((({a}) ^ 0x80000000) >= (({b}) ^ 0x80000000))",
    "i64.add": "(({a}) + ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.sub": "(({a}) - ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.mul": "(({a}) * ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.and": "({a}) & ({b})",
    "i64.or": "({a}) | ({b})",
    "i64.xor": "({a}) ^ ({b})",
    "i64.shl": "(({a}) << (({b}) % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.shr_u": "({a}) >> (({b}) % 64)",
    "i64.shr_s": "(_S64({a}) >> (({b}) % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.eq": "int(({a}) == ({b}))",
    "i64.ne": "int(({a}) != ({b}))",
    "i64.lt_u": "int(({a}) < ({b}))",
    "i64.gt_u": "int(({a}) > ({b}))",
    "i64.le_u": "int(({a}) <= ({b}))",
    "i64.ge_u": "int(({a}) >= ({b}))",
    "i64.lt_s": "int((({a}) ^ 0x8000000000000000) < (({b}) ^ 0x8000000000000000))",
    "i64.gt_s": "int((({a}) ^ 0x8000000000000000) > (({b}) ^ 0x8000000000000000))",
    "i64.le_s": "int((({a}) ^ 0x8000000000000000) <= (({b}) ^ 0x8000000000000000))",
    "i64.ge_s": "int((({a}) ^ 0x8000000000000000) >= (({b}) ^ 0x8000000000000000))",
    "f32.add": "_F32(({a}) + ({b}))",
    "f32.sub": "_F32(({a}) - ({b}))",
    "f32.mul": "_F32(({a}) * ({b}))",
    "f64.add": "({a}) + ({b})",
    "f64.sub": "({a}) - ({b})",
    "f64.mul": "({a}) * ({b})",
    "f32.eq": "int(({a}) == ({b}))",
    "f32.ne": "int(({a}) != ({b}))",
    "f32.lt": "int(({a}) < ({b}))",
    "f32.gt": "int(({a}) > ({b}))",
    "f32.le": "int(({a}) <= ({b}))",
    "f32.ge": "int(({a}) >= ({b}))",
    "f64.eq": "int(({a}) == ({b}))",
    "f64.ne": "int(({a}) != ({b}))",
    "f64.lt": "int(({a}) < ({b}))",
    "f64.gt": "int(({a}) > ({b}))",
    "f64.le": "int(({a}) <= ({b}))",
    "f64.ge": "int(({a}) >= ({b}))",
}


def _binexpr(name: str, a: str, b: str) -> str:
    """Python expression computing binary op ``name`` over operand exprs."""
    template = _INLINE_EXPR.get(name)
    if template is not None:
        return template.format(a=a, b=b)
    return f"_BIN[{name!r}]({a}, {b})"


def _as_test(expr: str) -> str:
    """Strip the ``int(...)`` wrapper when an expression feeds an ``if``.

    Comparison templates produce ``int(<cmp>)`` because Wasm comparisons
    push an i32, but in test position the bool is enough and the call is
    pure overhead.
    """
    if expr.startswith("int(") and expr.endswith(")"):
        inner = expr[4:-1]
        if inner.count("(") == inner.count(")"):
            return inner
    return expr


# An expression is foldable when deferring its evaluation to the consuming
# statement cannot change behaviour: no stack traffic, no memory/global/call
# effects, and no lower-case scratch temporaries (those are reassigned by
# later statements).  Locals (``L[i]``) are safe because folding only ever
# spans the immediately preceding push -- nothing can mutate ``L`` in between.
_IMPURE = re.compile(r"S\.|call\(|M\.|G\[|instance|\b_[a-z][a-z0-9]*\b")


class _FunctionCodeGen:
    """Generates the Python source for one lowered Wasm function.

    ``fold`` is the optimisation level: with it the stack-to-expression
    peephole (:meth:`_pop_expr`) turns pushes and pops into nested
    expressions (LLVM); without it every op is translated on its own, local
    lowering and the IR's fused superinstructions only (Cranelift).
    """

    def __init__(self, lowered: LoweredFunction, func_name: str, fold: bool = True):
        self.lowered = lowered
        self.func_name = func_name
        self.fold = fold
        self.lines: List[str] = []
        self.indent = 0
        self.label_counter = 0
        # Stack of (label_id, kind); index -1 is the innermost label.
        self.labels: List[tuple] = []

    # ------------------------------------------------------------------- utils

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _new_label(self) -> int:
        self.label_counter += 1
        return self.label_counter

    def _target(self, depth: int) -> int:
        return self.labels[-1 - depth][0]

    def _pop_expr(self) -> Optional[str]:
        """Stack-to-expression peephole: reclaim the last pushed pure value.

        When the immediately preceding emitted line is ``S.append(<expr>)``
        at the current indent and ``<expr>`` is side-effect free, delete the
        push and hand the expression to the consumer, eliding the stack
        round trip entirely.  The one-line lookback means a fold can never
        cross another statement, a control-flow join (those dedent), or a
        mutation of anything the expression reads.
        """
        if self.fold and self.lines:
            prefix = "    " * self.indent + "S.append("
            line = self.lines[-1]
            if line.startswith(prefix) and line.endswith(")"):
                expr = line[len(prefix):-1]
                if _IMPURE.search(expr) is None:
                    self.lines.pop()
                    return expr
        return None

    def _pop_or_runtime(self) -> str:
        expr = self._pop_expr()
        return expr if expr is not None else "S.pop()"

    def _addr(self, offset: int) -> str:
        base = self._pop_or_runtime()
        return f"{base} + {offset}" if offset else base

    def _bin_operands(self) -> tuple:
        """Operand expressions for a two-operand consumer, fold-aware.

        ``b`` (top of stack) can only fold if it was the last push, and ``a``
        only if ``b`` folded too, so stack pop order is preserved; when
        neither folds the caller must spill through temporaries because every
        inline template evaluates ``a`` textually first.
        """
        b = self._pop_expr()
        if b is None:
            return None, None
        return self._pop_or_runtime(), b

    # ---------------------------------------------------------------- generate

    def generate(self) -> str:
        nresults = self.lowered.nresults
        self._emit(f"def {self.func_name}(instance, args):")
        self.indent += 1
        self._emit("L = list(args)")
        if self.lowered.local_defaults:
            self._emit(f"L.extend({list(self.lowered.local_defaults)!r})")
        self._emit("S = []")
        self._emit("M = instance.memory")
        self._emit("G = instance.globals")
        self._emit("call = instance.call_function")
        self._emit("_br = None")
        func_label = self._new_label()
        self.labels.append((func_label, "func"))
        self._emit("while True:")
        self.indent += 1
        for kind, imm in self.lowered.ops:
            self._op(kind, imm)
        self._emit("break")
        self.indent -= 1
        self.labels.pop()
        if nresults:
            self._emit(f"return S[-{nresults}:]")
        else:
            self._emit("return []")
        self.indent -= 1
        return "\n".join(self.lines)

    # --------------------------------------------------------------------- ops

    def _branch_stmts(self, depth: int) -> None:
        for stmt in self._branch_code(depth):
            self._emit("    " + stmt)

    def _branch_code(self, depth: int) -> List[str]:
        """Statements realising a branch to relative ``depth``.

        A depth-0 branch needs no label plumbing: the innermost region is
        the target, so a bare ``continue`` (loop back-edge) or ``break``
        (block/if/function exit, with ``_br`` still ``None``) lands exactly
        on the target's fallthrough path.
        """
        label, kind = self.labels[-1 - depth]
        if depth == 0:
            return ["continue" if kind == "loop" else "break"]
        return [f"_br = {label}", "break"]

    def _op(self, kind: str, imm) -> None:  # noqa: C901 - one big dispatcher
        emit = self._emit

        # ----- control flow ------------------------------------------------
        if kind == "fused.pad":
            return  # interior of a superinstruction: unreachable by construction
        if kind == "nop":
            emit("pass")
        elif kind == "unreachable":
            emit("raise UnreachableTrap()")
        elif kind == "block":
            label = self._new_label()
            self.labels.append((label, "block"))
            emit("while True:")
            self.indent += 1
        elif kind == "loop":
            label = self._new_label()
            self.labels.append((label, "loop"))
            emit("while True:")
            self.indent += 1
            emit("while True:")
            self.indent += 1
        elif kind == "if":
            label = self._new_label()
            self.labels.append((label, "if"))
            cond = _as_test(self._pop_or_runtime())
            emit("while True:")
            self.indent += 1
            emit(f"if {cond}:")
            self.indent += 1
            emit("pass")
        elif kind == "else":
            self.indent -= 1
            emit("else:")
            self.indent += 1
            emit("pass")
        elif kind == "end":
            label, label_kind = self.labels.pop()
            if label_kind in ("if", "block"):
                if label_kind == "if":
                    self.indent -= 1  # close the then/else suite
                emit("_br = None")
                emit("break")
                self.indent -= 1  # close the region while
                emit("if _br is not None:")
                emit(f"    if _br == {label}:")
                emit("        _br = None")
                emit("    else:")
                emit("        break")
            elif label_kind == "loop":
                emit("_br = None")
                emit("break")
                self.indent -= 1  # close the body region
                emit(f"if _br == {label}:")
                emit("    _br = None")
                emit("    continue")
                emit("break")
                self.indent -= 1  # close the driver
                emit("if _br is not None:")
                emit("    break")
            else:  # pragma: no cover - function-level end handled by generate()
                raise Trap("unexpected end at function level")
        elif kind == "br":
            for stmt in self._branch_code(imm):
                emit(stmt)
        elif kind == "br_if":
            emit(f"if {_as_test(self._pop_or_runtime())}:")
            self._branch_stmts(imm)
        elif kind == "br_table":
            targets, default = imm
            ids = [self._target(d) for d in targets]
            default_id = self._target(default)
            emit("_i = S.pop()")
            emit(f"_br = {ids!r}[_i] if _i < {len(ids)} else {default_id}")
            emit("break")
        elif kind == "return":
            n = self.lowered.nresults
            emit(f"return S[-{n}:]" if n else "return []")
        elif kind == "call":
            callee_index, nargs = imm
            if nargs:
                emit(f"_a = S[-{nargs}:]")
                emit(f"del S[-{nargs}:]")
                emit(f"S.extend(call({callee_index}, _a))")
            else:
                emit(f"S.extend(call({callee_index}, []))")
        elif kind == "call_indirect":
            type_index, table_index, nargs = imm
            emit("_i = S.pop()")
            emit(f"_fi = instance.tables[{table_index}].get(_i)")
            emit("if _fi is None:")
            emit("    raise IndirectCallTrap('null funcref in call_indirect')")
            emit(f"if instance.function_type(_fi) != instance.module.types[{type_index}]:")
            emit("    raise IndirectCallTrap('call_indirect signature mismatch')")
            if nargs:
                emit(f"_a = S[-{nargs}:]")
                emit(f"del S[-{nargs}:]")
                emit("S.extend(call(_fi, _a))")
            else:
                emit("S.extend(call(_fi, []))")

        # ----- parametric / variables ----------------------------------------
        elif kind == "drop":
            if self._pop_expr() is None:
                emit("S.pop()")
        elif kind == "select":
            emit("_c = S.pop(); _b = S.pop(); _a = S.pop()")
            emit("S.append(_a if _c else _b)")
        elif kind == "local.get":
            emit(f"S.append(L[{imm}])")
        elif kind == "local.set":
            emit(f"L[{imm}] = {self._pop_or_runtime()}")
        elif kind == "local.tee":
            emit(f"L[{imm}] = S[-1]")
        elif kind == "global.get":
            emit(f"S.append(G[{imm}].value)")
        elif kind == "global.set":
            emit(f"G[{imm}].set({self._pop_or_runtime()})")

        # ----- constants (pre-validated at lower time) -----------------------
        elif kind == "const":
            emit(f"S.append({imm!r})")

        # ----- memory ---------------------------------------------------------
        elif kind == "load.u":
            emit(f"S.append(M.load_int({self._addr(imm[0])}, {imm[1]}))")
        elif kind == "load.s32":
            emit(f"S.append(M.load_int({self._addr(imm[0])}, {imm[1]}, signed=True) & 0xFFFFFFFF)")
        elif kind == "load.s64":
            emit(
                f"S.append(M.load_int({self._addr(imm[0])}, {imm[1]}, signed=True)"
                " & 0xFFFFFFFFFFFFFFFF)"
            )
        elif kind == "load.f32":
            emit(f"S.append(M.load_f32({self._addr(imm)}))")
        elif kind == "load.f64":
            emit(f"S.append(M.load_f64({self._addr(imm)}))")
        elif kind == "load.v128":
            emit(f"S.append(M.read({self._addr(imm)}, 16))")
        elif kind == "store.i":
            v = self._pop_expr()
            if v is None:
                emit("_v = S.pop()")
                v = "_v"
            emit(f"M.store_int({self._addr(imm[0])}, {v}, {imm[1]})")
        elif kind == "store.f32":
            v = self._pop_expr()
            if v is None:
                emit("_v = S.pop()")
                v = "_v"
            emit(f"M.store_f32({self._addr(imm)}, {v})")
        elif kind == "store.f64":
            v = self._pop_expr()
            if v is None:
                emit("_v = S.pop()")
                v = "_v"
            emit(f"M.store_f64({self._addr(imm)}, {v})")
        elif kind == "store.v128":
            emit("_v = S.pop()")
            emit(f"M.write({self._addr(imm)}, bytes(_v))")
        elif kind == "memory.size":
            emit("S.append(M.pages)")
        elif kind == "memory.grow":
            emit("S.append(M.grow(S.pop()) & 0xFFFFFFFF)")
        elif kind == "memory.copy":
            emit("_n = S.pop(); _s = S.pop()")
            emit("M.copy_within(S.pop(), _s, _n)")
        elif kind == "memory.fill":
            emit("_n = S.pop(); _v = S.pop()")
            emit("M.fill(S.pop(), _v, _n)")

        # ----- numeric --------------------------------------------------------
        elif kind == "bin":
            a, b = self._bin_operands()
            if b is None:
                emit("_b = S.pop(); _a = S.pop()")
                a, b = "_a", "_b"
            emit(f"S.append({_binexpr(imm, a, b)})")
        elif kind == "un":
            emit(f"S.append(_UN[{imm!r}]({self._pop_or_runtime()}))")

        # ----- superinstructions ---------------------------------------------
        elif kind == "fused.get_get_bin":
            a, b, name = imm
            emit(f"S.append({_binexpr(name, f'L[{a}]', f'L[{b}]')})")
        elif kind == "fused.get_const_bin":
            a, const, name = imm
            emit(f"S.append({_binexpr(name, f'L[{a}]', repr(const))})")
        elif kind == "fused.get_const_store":
            a, value, offset, nbytes = imm
            base = f"L[{a}] + {offset}" if offset else f"L[{a}]"
            emit(f"M.store_int({base}, {value!r}, {nbytes})")
        elif kind == "fused.cmp_br_if":
            name, depth = imm
            a, b = self._bin_operands()
            if b is None:
                emit("_b = S.pop(); _a = S.pop()")
                a, b = "_a", "_b"
            emit(f"if {_as_test(_binexpr(name, a, b))}:")
            self._branch_stmts(depth)
        elif kind == "fused.eqz_br_if":
            emit(f"if not ({_as_test(self._pop_or_runtime())}):")
            self._branch_stmts(imm)
        elif kind == "fused.get_get_cmp_br_if":
            a, b, name, depth = imm
            emit(f"if {_as_test(_binexpr(name, f'L[{a}]', f'L[{b}]'))}:")
            self._branch_stmts(depth)
        elif kind == "fused.get_get_bin_set":
            a, b, name, dest = imm
            emit(f"L[{dest}] = {_binexpr(name, f'L[{a}]', f'L[{b}]')}")
        elif kind == "fused.get_const_bin_set":
            a, const, name, dest = imm
            emit(f"L[{dest}] = {_binexpr(name, f'L[{a}]', repr(const))}")
        elif kind == "fused.bin_set":
            name, dest = imm
            a, b = self._bin_operands()
            if b is None:
                emit("_b = S.pop(); _a = S.pop()")
                a, b = "_a", "_b"
            emit(f"L[{dest}] = {_binexpr(name, a, b)}")
        elif kind == "fused.get_get_bin_set_br":
            a, b, name, dest, depth = imm
            emit(f"L[{dest}] = {_binexpr(name, f'L[{a}]', f'L[{b}]')}")
            for stmt in self._branch_code(depth):
                emit(stmt)
        elif kind == "fused.get_const_bin_set_br":
            a, const, name, dest, depth = imm
            emit(f"L[{dest}] = {_binexpr(name, f'L[{a}]', repr(const))}")
            for stmt in self._branch_code(depth):
                emit(stmt)
        elif kind == "fused.set_br":
            dest, depth = imm
            emit(f"L[{dest}] = {self._pop_or_runtime()}")
            for stmt in self._branch_code(depth):
                emit(stmt)
        elif kind == "fused.mined":
            # A mined chain is just its constituents back-to-back: generated
            # code has no dispatch loop, so emitting them inline is exact.
            for sub_kind, sub_imm in zip(*imm):
                self._op(sub_kind, sub_imm)

        # ----- SIMD -----------------------------------------------------------
        elif kind == "splat":
            fmt, count, size = imm
            if fmt in ("f", "d"):
                emit(f"S.append(_V128L[{fmt!r}].pack(S.pop()) * {count})")
            else:
                emit(
                    f"S.append((S.pop() & {(1 << (8 * size)) - 1}).to_bytes({size}, 'little')"
                    f" * {count})"
                )
        elif kind == "extract_lane":
            fmt, size, lane, signed = imm
            lo, hi = lane * size, (lane + 1) * size
            if fmt in ("f", "d"):
                emit(f"S.append(_V128L[{fmt!r}].unpack(S.pop()[{lo}:{hi}])[0])")
            elif signed:
                emit(
                    f"S.append(int.from_bytes(S.pop()[{lo}:{hi}], 'little', signed=True)"
                    " & 0xFFFFFFFF)"
                )
            else:
                emit(f"S.append(int.from_bytes(S.pop()[{lo}:{hi}], 'little'))")
        elif kind == "replace_lane":
            fmt, size, lane = imm
            lo, hi = lane * size, (lane + 1) * size
            emit("_v = S.pop(); _vec = bytearray(S.pop())")
            if fmt in ("f", "d"):
                emit(f"_vec[{lo}:{hi}] = _V128L[{fmt!r}].pack(_v)")
            else:
                emit(f"_vec[{lo}:{hi}] = (_v & {(1 << (8 * size)) - 1}).to_bytes({size}, 'little')")
            emit("S.append(bytes(_vec))")
        elif kind == "v128.not":
            emit(
                "S.append((~int.from_bytes(S.pop(), 'little') & ((1 << 128) - 1))"
                ".to_bytes(16, 'little'))"
            )
        elif kind == "simd.bin":
            emit("_b = S.pop(); _a = S.pop()")
            emit(f"S.append(_SIMD_BIN({imm!r}, _a, _b))")
        elif kind == "simd.un":
            emit(f"S.append(_SIMD_UN({imm!r}, S.pop()))")
        else:
            raise Trap(f"LLVM backend cannot translate lowered op {kind!r}")


class PythonCodeGenerator:
    """Generates one Python module of source text for a whole Wasm module.

    Consumes the lowered IR (lowering the module itself when none is
    supplied), so code generation starts from pre-resolved jump targets,
    pre-validated constants and fused superinstructions.
    """

    def __init__(self, module: Module, lowered: Optional[Sequence[LoweredFunction]] = None):
        self.module = module
        self.lowered = list(lowered) if lowered is not None else lower_module(module)

    @staticmethod
    def function_symbol(local_index: int) -> str:
        """Python name of the generated function for a module-local index."""
        return f"__wasm_func_{local_index}"

    def generate(self) -> str:
        """Generate the full source ("shared object") for the module."""
        header = [
            "# Generated by the repro LLVM backend -- lowered Wasm IR to Python.",
            "# This text is the cacheable compilation artifact (cf. MPIWasm §3.3).",
        ]
        chunks: List[str] = ["\n".join(header)]
        for i, lowered in enumerate(self.lowered):
            gen = _FunctionCodeGen(lowered, self.function_symbol(i))
            chunks.append(gen.generate())
        return "\n\n\n".join(chunks) + "\n"


def _exec_namespace() -> Dict[str, object]:
    """Globals injected into the generated code's namespace."""
    return {
        "struct": struct,
        "math": math,
        # repr() of non-finite floats emits the bare names inf/-inf/nan in
        # generated constants; bind them so those literals evaluate.
        "inf": math.inf,
        "nan": math.nan,
        "V": V,
        "_BIN": _BINOPS,
        "_UN": _UNOPS,
        "_SIMD_BIN": _simd_binary,
        "_SIMD_UN": _simd_unary,
        "_V128L": V.V128_LANE,
        "_S32": V.signed32,
        "_S64": V.signed64,
        "_F32": V.round_f32,
        "UnreachableTrap": UnreachableTrap,
        "IndirectCallTrap": IndirectCallTrap,
        "Trap": Trap,
    }


def load_artifact(source: str, function_count: int) -> List:
    """Execute generated source and return the compiled callables in order."""
    namespace = _exec_namespace()
    code = compile(source, "<wasm-llvm-artifact>", "exec")
    exec(code, namespace)  # noqa: S102 - the artifact is generated by this backend
    return [namespace[PythonCodeGenerator.function_symbol(i)] for i in range(function_count)]


class FirstCallTable(list):
    """Generated callables by module-local index, each built on its first call.

    Entry ``i`` starts as a stub that generates function ``i``'s source from
    its lowered IR (at optimisation level ``fold``), compiles it, replaces
    itself with the result and runs it -- the code-generating counterpart of
    Singlepass lowering a function on first call.  Functions a run never
    calls are never generated.
    """

    def __init__(self, lowered: Sequence[LoweredFunction], fold: bool):
        namespace = _exec_namespace()
        super().__init__(
            self._stub(i, fn, namespace, fold) for i, fn in enumerate(lowered)
        )

    def _stub(self, index: int, lowered: LoweredFunction, namespace: dict, fold: bool):
        def generate_then_call(instance, args):
            symbol = PythonCodeGenerator.function_symbol(index)
            source = _FunctionCodeGen(lowered, symbol, fold=fold).generate()
            exec(compile(source, "<wasm-generated-function>", "exec"), namespace)  # noqa: S102
            self[index] = function = namespace[symbol]
            return function(instance, args)

        return generate_then_call


class GeneratedCodeExecutor(Executor):
    """Executes generated Python callables: LLVM's and Cranelift's tier.

    ``functions`` is indexed by module-local function index: the callables
    of LLVM's artifact, compiled up front, or Cranelift's
    :class:`FirstCallTable`, filled in as functions are first called.
    """

    name = "generated"

    def __init__(self, functions: List, max_call_depth: int = MAX_CALL_DEPTH):
        self._functions = functions
        self.max_call_depth = max_call_depth

    def prepare(self, module: Module) -> None:
        """No per-instance work: compilation already happened."""

    def configure(self, max_call_depth: Optional[int] = None) -> None:
        """Apply embedder-level execution limits (see :class:`Executor`)."""
        if max_call_depth is not None:
            self.max_call_depth = max_call_depth

    def call(self, instance: Instance, func_index: int, args: Sequence) -> List:
        target = instance.functions[func_index]
        if isinstance(target, HostFunction):
            result = target(instance, *args)
            if result is None:
                return []
            return list(result) if isinstance(result, (list, tuple)) else [result]
        local_index = func_index - instance.module.num_imported_functions()
        depth = instance.host_state.get("_call_depth", 0)
        if depth >= self.max_call_depth:
            raise StackExhaustionTrap(depth)
        if depth == 0:
            reserve_recursion_headroom(self.max_call_depth)
        instance.host_state["_call_depth"] = depth + 1
        try:
            return self._functions[local_index](instance, list(args))
        finally:
            instance.host_state["_call_depth"] = depth


class LLVMBackend(CompilerBackend):
    """Code-generating back-end (slowest compile, fastest execution)."""

    name = "llvm"

    def _compile(self, module: Module) -> dict:
        lowered = lower_module(module)
        source = PythonCodeGenerator(module, lowered).generate()
        # Force the bytecode compilation now so the cost is attributed to
        # compile time, as with LLVM's optimisation pipeline.
        compile(source, "<wasm-llvm-artifact>", "exec")
        return {"kind": "python-source", "ir_version": IR_VERSION, "source": source}

    def executor_for(self, compiled: CompiledModule) -> Executor:
        # Cache loads hand every rank a *fresh* CompiledModule, but all of
        # them share the Module object -- stash the exec()'d callables there
        # so loading the artifact is a once-per-process cost.
        module = compiled.module
        functions = getattr(module, "_llvm_runtime", None)
        if functions is None:
            artifact = compiled.artifact
            source = artifact["source"] if isinstance(artifact, dict) else str(artifact)
            functions = load_artifact(source, len(module.functions))
            module._llvm_runtime = functions
        return GeneratedCodeExecutor(functions)


register_backend(LLVMBackend())
