"""One row per lowered-IR kind: everything every engine needs to know of it.

The lowering pass (:mod:`repro.wasm.lowering`) emits ``(kind, immediate)``
ops; each kind is described once, by one :class:`IROp` row of :data:`OPS`:

* ``handler`` -- what the interpreter runs (:mod:`repro.wasm.ir_exec`);
  profile histograms key on its ``__name__``;
* ``linker`` -- turns the serial immediate into the one ``handler``
  destructures, or ``None`` when they are the same;
* ``check`` -- ``(checker, pc, imm)``: reports a malformed immediate through
  the primitives of ``repro.analysis.ir_verify._OpsChecker`` (``_err``,
  ``_target``, ``_depth``; ``checker.kind`` is the kind being checked);
  most are :func:`_imm` of the immediate's slot layout;
* ``width`` -- the slots the op occupies: a fused superinstruction is
  followed by ``width - 1`` ``fused.pad`` slots;
* ``effect`` -- ``(pops, pushes)`` for exactly the kinds a mined chain may
  contain (their handlers always return ``pc + 1``), else ``None``;
* ``emit`` -- ``(gen, imm)``: writes the op's Python source through the code
  generator of ``repro.wasm.compilers.llvm`` (LLVM and Cranelift).

The one kind without a row is ``fused.mined``, a profile-mined chain of
chainable kinds: its handler, width and source are those of its chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.wasm import ir_exec as X
from repro.wasm.errors import Trap
from repro.wasm.opcodes import BY_NAME
from repro.wasm.semantics import _BINOPS, _LOADS, _STORES, _UNOPS

#: The kind of a mined chain (see the module docstring).
MINED = "fused.mined"


@dataclass(frozen=True, slots=True)
class IROp:
    """The row of one IR kind.  Every column is required; a row that lacks
    one, or holds the wrong type in one, fails when it is built."""

    kind: str
    handler: Callable
    linker: Optional[Callable]
    check: Callable
    width: int
    effect: Optional[Tuple[int, int]]
    emit: Callable

    def __post_init__(self) -> None:
        for column in ("handler", "check", "emit"):
            if not callable(getattr(self, column)):
                raise TypeError(f"IR kind {self.kind!r}: {column} must be callable")
        if self.linker is not None and not callable(self.linker):
            raise TypeError(f"IR kind {self.kind!r}: linker must be callable or None")
        if not isinstance(self.width, int) or self.width < 1:
            raise TypeError(f"IR kind {self.kind!r}: width must be a positive int")
        if self.effect is not None and (self.width != 1 or len(self.effect) != 2):
            raise TypeError(f"IR kind {self.kind!r}: only a one-slot kind has a "
                            "(pops, pushes) chain effect")


# ------------------------------------------------------------ immediate checks


def _is_int(value: Any, lo: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


def _simd_lane_ops(unary: bool) -> frozenset:
    """The SIMD names ``_lower_instruction`` lowers to ``simd.un`` (``unary``)
    or ``simd.bin``: every SIMD opcode but the loads and stores,
    ``v128.const``, ``v128.not``, the splats and the lane accesses."""
    return frozenset(
        name for name, info in BY_NAME.items()
        if info.is_simd and name not in _LOADS and name not in _STORES
        and name not in ("v128.const", "v128.not")
        and not name.endswith(".splat") and "_lane" not in name
        and (name.split(".")[1] in ("neg", "abs", "sqrt")) == unary
    )


SIMD_BINARY_OPS = _simd_lane_ops(unary=False)
SIMD_UNARY_OPS = _simd_lane_ops(unary=True)


def _shape(c, pc: int, imm: Any, length: int) -> bool:
    if not isinstance(imm, (tuple, list)) or len(imm) != length:
        c._err(pc, "bad-immediate",
               f"{c.kind} immediate must be a {length}-tuple, got {imm!r}")
        return False
    return True


#: What a slot of an immediate may hold, by slot name (``depth`` and
#: ``target`` are checked against the function by the checker itself).
_SLOTS: Dict[str, Callable[[Any], bool]] = {
    "uint": _is_int,
    "local": _is_int,
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "nbytes": lambda v: _is_int(v, lo=1) and v <= 8,
    "binop": lambda v: isinstance(v, str) and v in _BINOPS,
    "unop": lambda v: isinstance(v, str) and v in _UNOPS,
    "simd binop": lambda v: isinstance(v, str) and v in SIMD_BINARY_OPS,
    "simd unop": lambda v: isinstance(v, str) and v in SIMD_UNARY_OPS,
}


def _imm(*slots: str) -> Callable:
    """The check of an immediate laid out as ``slots``: one slot is the bare
    value, more are a tuple of that length; none is no immediate at all."""
    def check(c, pc, imm):
        if len(slots) > 1 and not _shape(c, pc, imm, len(slots)):
            return
        for slot, value in zip(slots, imm if len(slots) > 1 else (imm,)):
            if slot == "depth":
                c._depth(pc, value, f"{c.kind} depth")
            elif slot == "target":
                c._target(pc, value, f"{c.kind} target")
            elif not _SLOTS[slot](value):
                c._err(pc, "bad-immediate", f"{c.kind} {slot} {value!r} invalid")
    return check


def _c_br_table(c, pc, imm):
    if _shape(c, pc, imm, 2):
        targets, default = imm
        if not isinstance(targets, (tuple, list)):
            c._err(pc, "bad-immediate",
                   f"br_table targets must be a sequence, got {targets!r}")
        else:
            for k, depth in enumerate(targets):
                c._depth(pc, depth, f"br_table target {k}")
        c._depth(pc, default, "br_table default")


def _c_const(c, pc, imm):
    if not isinstance(imm, (int, float, bytes)):
        c._err(pc, "bad-immediate",
               f"const value must be int/float/bytes, got {type(imm).__name__}")
    elif isinstance(imm, bytes) and len(imm) != 16:
        c._err(pc, "bad-immediate", f"v128 const must be 16 bytes, got {len(imm)}")


def _c_splat(c, pc, imm):
    if _shape(c, pc, imm, 3) and not (
        _is_int(imm[1], lo=1) and _is_int(imm[2], lo=1) and imm[1] * imm[2] == 16
    ):
        c._err(pc, "bad-immediate",
               f"splat (fmt, count, size) {imm!r} does not form 16 lanes")


def _c_lane(length: int, verb: str) -> Callable:
    """``(fmt, size, lane, ...)`` of a lane access inside the 16-byte vector."""
    def check(c, pc, imm):
        if _shape(c, pc, imm, length) and not (
            _is_int(imm[1], lo=1) and _is_int(imm[2]) and (imm[2] + 1) * imm[1] <= 16
        ):
            c._err(pc, "bad-immediate",
                   f"{c.kind} {imm!r} {verb} outside the 16-byte vector")
    return check


# -------------------------------------------------------------- source emitters

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
    "i64.add": "(({a}) + ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.sub": "(({a}) - ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.mul": "(({a}) * ({b})) & 0xFFFFFFFFFFFFFFFF",
    "i64.and": "({a}) & ({b})",
    "i64.or": "({a}) | ({b})",
    "i64.xor": "({a}) ^ ({b})",
    "i64.shl": "(({a}) << (({b}) % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.shr_u": "({a}) >> (({b}) % 64)",
    "i64.shr_s": "(_S64({a}) >> (({b}) % 64)) & 0xFFFFFFFFFFFFFFFF",
    "f32.add": "_F32(({a}) + ({b}))",
    "f32.sub": "_F32(({a}) - ({b}))",
    "f32.mul": "_F32(({a}) * ({b}))",
    "f64.add": "({a}) + ({b})",
    "f64.sub": "({a}) - ({b})",
    "f64.mul": "({a}) * ({b})",
}
# Comparisons push an i32: ``int(a OP b)``.  Signed ones use the xor-bias
# trick: flipping the sign bit maps signed order onto unsigned order, so no
# _S32/_S64 call is needed.
for _cmp, _sym in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("gt", ">"),
                   ("le", "<="), ("ge", ">=")):
    for _type in ("f32", "f64"):
        _INLINE_EXPR[f"{_type}.{_cmp}"] = f"int(({{a}}) {_sym} ({{b}}))"
    for _type, _bias in (("i32", "0x80000000"), ("i64", "0x8000000000000000")):
        if _cmp in ("eq", "ne"):
            _INLINE_EXPR[f"{_type}.{_cmp}"] = f"int(({{a}}) {_sym} ({{b}}))"
            continue
        _INLINE_EXPR[f"{_type}.{_cmp}_u"] = f"int(({{a}}) {_sym} ({{b}}))"
        _INLINE_EXPR[f"{_type}.{_cmp}_s"] = (
            f"int((({{a}}) ^ {_bias}) {_sym} (({{b}}) ^ {_bias}))")
del _cmp, _sym, _type, _bias


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


def _lines(*templates: str) -> Callable:
    """An emitter of fixed lines, each formatted with the immediate."""
    def emit(gen, imm):
        for template in templates:
            gen.emit(template.format(imm=imm))
    return emit


def _operands(gen) -> tuple:
    """``(a, b)`` of a two-operand op: folded, else spilled to temporaries."""
    a, b = gen.bin_operands()
    if b is None:
        gen.emit("_b = S.pop(); _a = S.pop()")
        a, b = "_a", "_b"
    return a, b


def _stored_value(gen) -> str:
    v = gen.pop_expr()
    if v is None:
        gen.emit("_v = S.pop()")
        v = "_v"
    return v


def _branch(gen, depth: int) -> None:
    for stmt in gen.branch_code(depth):
        gen.emit(stmt)


def _e_block(gen, imm):
    gen.labels.append((gen.new_label(), "block"))
    gen.emit("while True:")
    gen.indent += 1


def _e_loop(gen, imm):
    gen.labels.append((gen.new_label(), "loop"))
    gen.emit("while True:")
    gen.indent += 1
    gen.emit("while True:")
    gen.indent += 1


def _e_if(gen, imm):
    gen.labels.append((gen.new_label(), "if"))
    cond = _as_test(gen.pop_or_runtime())
    gen.emit("while True:")
    gen.indent += 1
    gen.emit(f"if {cond}:")
    gen.indent += 1
    gen.emit("pass")


def _e_else(gen, imm):
    gen.indent -= 1
    gen.emit("else:")
    gen.indent += 1
    gen.emit("pass")


def _e_end(gen, imm):
    emit = gen.emit
    label, label_kind = gen.labels.pop()
    if label_kind == "func":  # pragma: no cover - generate() closes the function
        raise Trap("unexpected end at function level")
    if label_kind == "loop":
        emit("_br = None")
        emit("break")
        gen.indent -= 1  # close the body region
        emit(f"if _br == {label}:")
        emit("    _br = None")
        emit("    continue")
        emit("break")
        gen.indent -= 1  # close the driver
        emit("if _br is not None:")
        emit("    break")
        return
    if label_kind == "if":
        gen.indent -= 1  # close the then/else suite
    emit("_br = None")
    emit("break")
    gen.indent -= 1  # close the region while
    emit("if _br is not None:")
    emit(f"    if _br == {label}:")
    emit("        _br = None")
    emit("    else:")
    emit("        break")


def _e_br_if(gen, imm):
    gen.emit(f"if {_as_test(gen.pop_or_runtime())}:")
    gen.branch_stmts(imm)


def _e_br_table(gen, imm):
    targets, default = imm
    ids = [gen.label_id(d) for d in targets]
    gen.emit("_i = S.pop()")
    gen.emit(f"_br = {ids!r}[_i] if _i < {len(ids)} else {gen.label_id(default)}")
    gen.emit("break")


def _e_return(gen, imm):
    n = gen.lowered.nresults
    gen.emit(f"return S[-{n}:]" if n else "return []")


def _call_with(gen, nargs: int, callee) -> None:
    if nargs:
        gen.emit(f"_a = S[-{nargs}:]")
        gen.emit(f"del S[-{nargs}:]")
        gen.emit(f"S.extend(call({callee}, _a))")
    else:
        gen.emit(f"S.extend(call({callee}, []))")


def _e_call_indirect(gen, imm):
    type_index, table_index, nargs = imm
    gen.emit("_i = S.pop()")
    gen.emit(f"_fi = instance.tables[{table_index}].get(_i)")
    gen.emit("if _fi is None:")
    gen.emit("    raise IndirectCallTrap('null funcref in call_indirect')")
    gen.emit(f"if instance.function_type(_fi) != instance.module.types[{type_index}]:")
    gen.emit("    raise IndirectCallTrap('call_indirect signature mismatch')")
    _call_with(gen, nargs, "_fi")


def _e_drop(gen, imm):
    if gen.pop_expr() is None:
        gen.emit("S.pop()")


def _e_store_i(gen, imm):
    v = _stored_value(gen)
    gen.emit(f"M.store_int({gen.addr(imm[0])}, {v}, {imm[1]})")


def _e_store_float(method: str) -> Callable:
    """``store.f32``/``store.f64``: ``M.<method>(address, value)``."""
    def emit(gen, imm):
        v = _stored_value(gen)
        gen.emit(f"M.{method}({gen.addr(imm)}, {v})")
    return emit


def _e_store_v128(gen, imm):
    gen.emit("_v = S.pop()")
    gen.emit(f"M.write({gen.addr(imm)}, bytes(_v))")


def _e_bin(gen, imm):
    a, b = _operands(gen)
    gen.emit(f"S.append({_binexpr(imm, a, b)})")


def _e_get_const_store(gen, imm):
    a, value, offset, nbytes = imm
    base = f"L[{a}] + {offset}" if offset else f"L[{a}]"
    gen.emit(f"M.store_int({base}, {value!r}, {nbytes})")


def _e_cmp_br_if(gen, imm):
    name, depth = imm
    a, b = _operands(gen)
    gen.emit(f"if {_as_test(_binexpr(name, a, b))}:")
    gen.branch_stmts(depth)


def _e_eqz_br_if(gen, imm):
    gen.emit(f"if not ({_as_test(gen.pop_or_runtime())}):")
    gen.branch_stmts(imm)


def _e_get_get_cmp_br_if(gen, imm):
    a, b, name, depth = imm
    gen.emit(f"if {_as_test(_binexpr(name, f'L[{a}]', f'L[{b}]'))}:")
    gen.branch_stmts(depth)


def _e_bin_set(gen, imm):
    name, dest = imm
    a, b = _operands(gen)
    gen.emit(f"L[{dest}] = {_binexpr(name, a, b)}")


def _e_fused_binop(get_get: bool) -> Callable:
    """``(a, b, name[, dest[, depth]])`` of the ``get_get``/``get_const``
    ops: push ``L[a] op b``, or set it to ``L[dest]`` and then branch."""
    def emit(gen, imm):
        a, b, name = imm[:3]
        expr = _binexpr(name, f"L[{a}]", f"L[{b}]" if get_get else repr(b))
        if len(imm) == 3:
            gen.emit(f"S.append({expr})")
            return
        gen.emit(f"L[{imm[3]}] = {expr}")
        if len(imm) == 5:
            _branch(gen, imm[4])
    return emit


def _e_set_br(gen, imm):
    dest, depth = imm
    gen.emit(f"L[{dest}] = {gen.pop_or_runtime()}")
    _branch(gen, depth)


def _e_splat(gen, imm):
    fmt, count, size = imm
    if fmt in ("f", "d"):
        gen.emit(f"S.append(_V128L[{fmt!r}].pack(S.pop()) * {count})")
    else:
        gen.emit(f"S.append((S.pop() & {(1 << (8 * size)) - 1}).to_bytes({size}, 'little')"
                 f" * {count})")


def _e_extract_lane(gen, imm):
    fmt, size, lane, signed = imm
    lo, hi = lane * size, (lane + 1) * size
    if fmt in ("f", "d"):
        gen.emit(f"S.append(_V128L[{fmt!r}].unpack(S.pop()[{lo}:{hi}])[0])")
    elif signed:
        gen.emit(f"S.append(int.from_bytes(S.pop()[{lo}:{hi}], 'little', signed=True)"
                 " & 0xFFFFFFFF)")
    else:
        gen.emit(f"S.append(int.from_bytes(S.pop()[{lo}:{hi}], 'little'))")


def _e_replace_lane(gen, imm):
    fmt, size, lane = imm
    lo, hi = lane * size, (lane + 1) * size
    gen.emit("_v = S.pop(); _vec = bytearray(S.pop())")
    if fmt in ("f", "d"):
        gen.emit(f"_vec[{lo}:{hi}] = _V128L[{fmt!r}].pack(_v)")
    else:
        gen.emit(f"_vec[{lo}:{hi}] = (_v & {(1 << (8 * size)) - 1}).to_bytes({size}, 'little')")
    gen.emit("S.append(bytes(_vec))")


# ------------------------------------------------------------------- the rows

_GET_GET, _GET_CONST = ("local", "local", "binop"), ("local", "number", "binop")

OPS: Dict[str, IROp] = {row.kind: row for row in (
    # kind, handler, linker, check (immediate layout), width, chain effect, emitter
    # ----- control
    IROp("nop", X._h_nop, None, _imm(), 1, (0, 0), _lines("pass")),
    IROp("unreachable", X._h_unreachable, None, _imm(), 1, None,
         _lines("raise UnreachableTrap()")),
    IROp("block", X._h_block, None, _imm("uint", "target"), 1, None, _e_block),
    IROp("loop", X._h_loop, None, _imm(), 1, None, _e_loop),
    IROp("if", X._h_if, None, _imm("uint", "target", "target"), 1, None, _e_if),
    IROp("else", X._h_else, None, _imm("target"), 1, None, _e_else),
    IROp("end", X._h_end, None, _imm(), 1, None, _e_end),
    IROp("br", X._h_br, None, _imm("depth"), 1, None, _branch),
    IROp("br_if", X._h_br_if, None, _imm("depth"), 1, None, _e_br_if),
    IROp("br_table", X._h_br_table, None, _c_br_table, 1, None, _e_br_table),
    IROp("return", X._h_return, None, _imm("target"), 1, None, _e_return),
    IROp("call", X._h_call, None, _imm("uint", "uint"), 1, None,
         lambda gen, imm: _call_with(gen, imm[1], imm[0])),
    IROp("call_indirect", X._h_call_indirect, None, _imm("uint", "uint", "uint"), 1, None,
         _e_call_indirect),
    # ----- parametric, variables, constants
    IROp("drop", X._h_drop, None, _imm(), 1, (1, 0), _e_drop),
    IROp("select", X._h_select, None, _imm(), 1, (3, 1),
         _lines("_c = S.pop(); _b = S.pop(); _a = S.pop()", "S.append(_a if _c else _b)")),
    IROp("local.get", X._h_local_get, None, _imm("local"), 1, (0, 1),
         _lines("S.append(L[{imm}])")),
    IROp("local.set", X._h_local_set, None, _imm("local"), 1, (1, 0),
         lambda gen, imm: gen.emit(f"L[{imm}] = {gen.pop_or_runtime()}")),
    IROp("local.tee", X._h_local_tee, None, _imm("local"), 1, (1, 1),
         _lines("L[{imm}] = S[-1]")),
    IROp("global.get", X._h_global_get, None, _imm("uint"), 1, (0, 1),
         _lines("S.append(G[{imm}].value)")),
    IROp("global.set", X._h_global_set, None, _imm("uint"), 1, (1, 0),
         lambda gen, imm: gen.emit(f"G[{imm}].set({gen.pop_or_runtime()})")),
    IROp("const", X._h_const, None, _c_const, 1, (0, 1), _lines("S.append({imm!r})")),
    # ----- memory
    IROp("load.u", X._h_load_u, None, _imm("uint", "nbytes"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.load_int({gen.addr(imm[0])}, {imm[1]}))")),
    IROp("load.s32", X._h_load_s32, None, _imm("uint", "nbytes"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.load_int({gen.addr(imm[0])}, {imm[1]}, "
                                   "signed=True) & 0xFFFFFFFF)")),
    IROp("load.s64", X._h_load_s64, None, _imm("uint", "nbytes"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.load_int({gen.addr(imm[0])}, {imm[1]}, "
                                   "signed=True) & 0xFFFFFFFFFFFFFFFF)")),
    IROp("load.f32", X._h_load_f32, None, _imm("uint"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.load_f32({gen.addr(imm)}))")),
    IROp("load.f64", X._h_load_f64, None, _imm("uint"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.load_f64({gen.addr(imm)}))")),
    IROp("load.v128", X._h_load_v128, None, _imm("uint"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(M.read({gen.addr(imm)}, 16))")),
    IROp("store.i", X._h_store_i, None, _imm("uint", "nbytes"), 1, (2, 0), _e_store_i),
    IROp("store.f32", X._h_store_f32, None, _imm("uint"), 1, (2, 0),
         _e_store_float("store_f32")),
    IROp("store.f64", X._h_store_f64, None, _imm("uint"), 1, (2, 0),
         _e_store_float("store_f64")),
    IROp("store.v128", X._h_store_v128, None, _imm("uint"), 1, (2, 0), _e_store_v128),
    IROp("memory.size", X._h_memory_size, None, _imm(), 1, (0, 1),
         _lines("S.append(M.pages)")),
    IROp("memory.grow", X._h_memory_grow, None, _imm(), 1, (1, 1),
         _lines("S.append(M.grow(S.pop()) & 0xFFFFFFFF)")),
    IROp("memory.copy", X._h_memory_copy, None, _imm(), 1, (3, 0),
         _lines("_n = S.pop(); _s = S.pop()", "M.copy_within(S.pop(), _s, _n)")),
    IROp("memory.fill", X._h_memory_fill, None, _imm(), 1, (3, 0),
         _lines("_n = S.pop(); _v = S.pop()", "M.fill(S.pop(), _v, _n)")),
    # ----- numeric
    IROp("bin", X._h_bin, _BINOPS.__getitem__, _imm("binop"), 1, (2, 1), _e_bin),
    IROp("un", X._h_un, _UNOPS.__getitem__, _imm("unop"), 1, (1, 1),
         lambda gen, imm: gen.emit(f"S.append(_UN[{imm!r}]({gen.pop_or_runtime()}))")),
    # ----- SIMD
    IROp("splat", X._h_splat, None, _c_splat, 1, (1, 1), _e_splat),
    IROp("extract_lane", X._h_extract_lane, None, _c_lane(4, "reads"), 1, (1, 1),
         _e_extract_lane),
    IROp("replace_lane", X._h_replace_lane, None, _c_lane(3, "writes"), 1, (2, 1),
         _e_replace_lane),
    IROp("v128.not", X._h_v128_not, None, _imm(), 1, (1, 1),
         _lines("S.append((~int.from_bytes(S.pop(), 'little') & ((1 << 128) - 1))"
                ".to_bytes(16, 'little'))")),
    IROp("simd.bin", X._h_simd_bin, None, _imm("simd binop"), 1, (2, 1),
         _lines("_b = S.pop(); _a = S.pop()", "S.append(_SIMD_BIN({imm!r}, _a, _b))")),
    IROp("simd.un", X._h_simd_un, None, _imm("simd unop"), 1, (1, 1),
         _lines("S.append(_SIMD_UN({imm!r}, S.pop()))")),
    # ----- superinstructions of the static fusion pass (lowering._fuse); a
    # pad is the unreachable interior slot of one
    IROp("fused.pad", X._h_pad, None, _imm(), 1, None, _lines()),
    IROp("fused.get_get_bin", X._h_get_get_bin, X.link_binop_at(2), _imm(*_GET_GET), 3,
         None, _e_fused_binop(get_get=True)),
    IROp("fused.get_const_bin", X._h_get_const_bin, X.link_binop_at(2), _imm(*_GET_CONST),
         3, None, _e_fused_binop(get_get=False)),
    IROp("fused.get_const_store", X._h_get_const_store, None,
         _imm("local", "int", "uint", "nbytes"), 3, None, _e_get_const_store),
    IROp("fused.cmp_br_if", X._h_cmp_br_if, X.link_binop_at(0), _imm("binop", "depth"), 2,
         None, _e_cmp_br_if),
    IROp("fused.eqz_br_if", X._h_eqz_br_if, None, _imm("depth"), 2, None, _e_eqz_br_if),
    IROp("fused.get_get_cmp_br_if", X._h_get_get_cmp_br_if, X.link_binop_at(2),
         _imm(*_GET_GET, "depth"), 4, None, _e_get_get_cmp_br_if),
    IROp("fused.get_get_bin_set", X._h_get_get_bin_set, X.link_binop_at(2),
         _imm(*_GET_GET, "local"), 4, None, _e_fused_binop(get_get=True)),
    IROp("fused.get_const_bin_set", X._h_get_const_bin_set, X.link_binop_at(2),
         _imm(*_GET_CONST, "local"), 4, None, _e_fused_binop(get_get=False)),
    IROp("fused.bin_set", X._h_bin_set, X.link_binop_at(0), _imm("binop", "local"), 2, None,
         _e_bin_set),
    IROp("fused.get_get_bin_set_br", X._h_get_get_bin_set_br, X.link_binop_at(2),
         _imm(*_GET_GET, "local", "depth"), 5, None, _e_fused_binop(get_get=True)),
    IROp("fused.get_const_bin_set_br", X._h_get_const_bin_set_br, X.link_binop_at(2),
         _imm(*_GET_CONST, "local", "depth"), 5, None, _e_fused_binop(get_get=False)),
    IROp("fused.set_br", X._h_set_br, None, _imm("local", "depth"), 2, None, _e_set_br),
)}

#: Kinds a mined chain may contain: those with a stack effect.
CHAINABLE = frozenset(kind for kind, row in OPS.items() if row.effect is not None)

#: Handler names of the superinstructions (``fused.mined`` chains aside).
FUSED_HANDLER_NAMES = frozenset(
    row.handler.__name__ for kind, row in OPS.items() if kind.startswith("fused.")
)
