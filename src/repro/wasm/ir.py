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
  generator of ``repro.wasm.compilers.llvm`` (LLVM and Cranelift), popping
  and pushing its operand slots: a chainable kind moves the stack height by
  its ``effect``, a control or fused kind by its own rule.

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
# ``_binexpr`` hands an operand in bare when it is a name or a number, and
# parenthesized otherwise.
_INLINE_EXPR = {
    "i32.add": "({a} + {b}) & 0xFFFFFFFF",
    "i32.sub": "({a} - {b}) & 0xFFFFFFFF",
    "i32.mul": "({a} * {b}) & 0xFFFFFFFF",
    "i32.and": "{a} & {b}",
    "i32.or": "{a} | {b}",
    "i32.xor": "{a} ^ {b}",
    "i32.shl": "({a} << ({b} % 32)) & 0xFFFFFFFF",
    "i32.shr_u": "{a} >> ({b} % 32)",
    "i32.shr_s": "(_S32({a}) >> ({b} % 32)) & 0xFFFFFFFF",
    "i64.add": "({a} + {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.sub": "({a} - {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.mul": "({a} * {b}) & 0xFFFFFFFFFFFFFFFF",
    "i64.and": "{a} & {b}",
    "i64.or": "{a} | {b}",
    "i64.xor": "{a} ^ {b}",
    "i64.shl": "({a} << ({b} % 64)) & 0xFFFFFFFFFFFFFFFF",
    "i64.shr_u": "{a} >> ({b} % 64)",
    "i64.shr_s": "(_S64({a}) >> ({b} % 64)) & 0xFFFFFFFFFFFFFFFF",
    "f32.add": "_F32({a} + {b})",
    "f32.sub": "_F32({a} - {b})",
    "f32.mul": "_F32({a} * {b})",
    "f64.add": "{a} + {b}",
    "f64.sub": "{a} - {b}",
    "f64.mul": "{a} * {b}",
}
# Comparisons push an i32: ``int(a OP b)``.  Signed ones use the xor-bias
# trick: flipping the sign bit maps signed order onto unsigned order, so no
# _S32/_S64 call is needed.
for _cmp, _sym in (("eq", "=="), ("ne", "!="), ("lt", "<"), ("gt", ">"),
                   ("le", "<="), ("ge", ">=")):
    for _type in ("f32", "f64"):
        _INLINE_EXPR[f"{_type}.{_cmp}"] = f"int({{a}} {_sym} {{b}})"
    for _type, _bias in (("i32", "0x80000000"), ("i64", "0x8000000000000000")):
        if _cmp in ("eq", "ne"):
            _INLINE_EXPR[f"{_type}.{_cmp}"] = f"int({{a}} {_sym} {{b}})"
            continue
        _INLINE_EXPR[f"{_type}.{_cmp}_u"] = f"int({{a}} {_sym} {{b}})"
        _INLINE_EXPR[f"{_type}.{_cmp}_s"] = (
            f"int(({{a}} ^ {_bias}) {_sym} ({{b}} ^ {_bias}))")
del _cmp, _sym, _type, _bias


def _binexpr(name: str, a: str, b: str) -> str:
    """Python expression computing binary op ``name`` over operand exprs."""
    template = _INLINE_EXPR.get(name)
    if template is not None:
        return template.format(a=_paren(a), b=_paren(b))
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


def _no_lines(gen, imm):
    """The emitter of an op that generates no code."""


def _paren(expr: str) -> str:
    """``expr``, parenthesized unless it is a name or a number."""
    return expr if expr.isidentifier() or expr.isdigit() else f"({expr})"


def _push(template: str) -> Callable:
    """An op that pushes ``template`` formatted with the immediate."""
    def emit(gen, imm):
        gen.push(template.format(imm=imm))
    return emit


def _unary(template: str) -> Callable:
    """An op that pops ``v`` and pushes ``template`` formatted with it."""
    def emit(gen, imm):
        gen.push(template.format(v=gen.pop(), imm=imm))
    return emit


def _binary(template: str) -> Callable:
    """An op that pops ``b`` then ``a`` and pushes ``template``."""
    def emit(gen, imm):
        b = gen.pop()
        gen.push(template.format(a=gen.pop(), b=b, imm=imm))
    return emit


def _e_unreachable(gen, imm):
    gen.emit("raise UnreachableTrap()")
    gen.dead = 1


def _branch(gen, depth: int) -> None:
    """An unconditional branch, carrying its label's values off the stack."""
    gen.branch(depth, gen.pop_many(gen.label_arity(depth)))
    gen.dead = 1


def _branch_if(gen, test: str, depth: int) -> None:
    """A branch taken when ``test`` holds; the carried values stay put."""
    gen.emit(f"if {test}:")
    gen.branch(depth, gen.top_slots(gen.label_arity(depth)), nested=True)


def _e_block(gen, imm):
    gen.open_label("block", imm[0])


def _e_loop(gen, imm):
    gen.open_label("loop", 0)  # the driver; the body region follows
    gen.emit("while True:")
    gen.indent += 1


def _e_if(gen, imm):
    cond = _as_test(gen.pop())
    gen.open_label("if", imm[0])
    gen.emit(f"if {cond}:")
    gen.indent += 1


def _close_suite(gen) -> None:
    """End the then/else suite of an ``if``, with a ``pass`` if it is empty."""
    if gen.lines[-1].endswith(":"):
        gen.emit("pass")
    gen.indent -= 1


def _e_else(gen, imm):
    gen.height = gen.labels[-1].base
    gen.dead = 0
    _close_suite(gen)
    gen.emit("else:")
    gen.indent += 1


def _e_end(gen, imm):
    # Outside a jump in flight ``_br`` is ``None``: a fallthrough is a bare
    # ``break`` out of its region, and the tests after a construct are only
    # those its label's flags call for.
    emit = gen.emit
    label = gen.labels.pop()
    if label.kind == "func":  # pragma: no cover - generate() closes the function
        raise Trap("unexpected end at function level")
    if label.kind == "loop":
        # Only a fallthrough reaches a loop's end, so after a dead body the
        # code after the loop is dead too.
        if not gen.dead:
            emit("break")
        gen.indent -= 1  # close the body region
        if label.targeted:
            emit(f"if _br == {label.id}:")
            emit("    _br = None")
            emit("    continue")
            emit("break")
            gen.indent -= 1  # close the driver
        else:
            gen.unwrap(label)
    else:
        if label.kind == "if":
            _close_suite(gen)  # the other arm may fall through
        if not (label.exits or label.targeted or label.crossed):
            gen.unwrap(label)
        else:
            if label.kind == "if" or not gen.dead:
                emit("break")
            gen.indent -= 1  # close the region while
        gen.height = label.base + label.arity
        gen.dead = 0
    if label.targeted and label.crossed and label.kind != "loop":
        emit("if _br is not None:")
        emit(f"    if _br == {label.id}:")
        emit("        _br = None")
        emit("    else:")
        emit("        break")
    elif label.crossed:
        emit("if _br is not None:")
        emit("    break")
    elif label.targeted and label.kind != "loop":
        emit("_br = None")


def _e_br_table(gen, imm):
    targets, default = imm
    index = gen.pop()
    values = gen.top_slots(gen.label_arity(default))
    depths = sorted(set(targets) | {default})
    carries = {depth: gen.carry(depth, values) for depth in depths}
    gen.emit(f"_i = {index}")
    if all(carry == carries[default] for carry in carries.values()):
        # One shared copy, then the label-id dispatch every target understands.
        for stmt in carries[default]:
            gen.emit(stmt)
        for depth in depths:
            gen.mark_jump(depth)
        ids = [gen.labels[-1 - d].id for d in targets]
        gen.emit(f"_br = {ids!r}[_i] if _i < {len(ids)} else {gen.labels[-1 - default].id}")
        gen.emit("break")
    else:
        # Targets at different heights: one arm per target, each its own copy.
        keyword = "if"
        for depth in depths:
            if depth == default:
                continue
            cases = [str(k) for k, d in enumerate(targets) if d == depth]
            gen.emit(f"{keyword} _i in ({', '.join(cases)},):")
            gen.branch(depth, values, nested=True)
            keyword = "elif"
        gen.emit("else:")
        gen.branch(default, values, nested=True)
    gen.dead = 1


def _e_return(gen, imm):
    values = gen.pop_many(gen.lowered.nresults)
    gen.emit(f"return [{', '.join(values)}]")
    gen.dead = 1


def _call_with(gen, callee, func_type) -> None:
    args = ", ".join(gen.pop_many(len(func_type.params)))
    results = "".join(f"s{gen.height + i}, " for i in range(len(func_type.results)))
    gen.height += len(func_type.results)
    gen.emit(f"{results}{'= ' if results else ''}call({callee}, [{args}])")


def _e_call(gen, imm):
    callee, _nargs = imm
    _call_with(gen, callee, gen.module.func_type(callee))


def _e_call_indirect(gen, imm):
    type_index, table_index, _nargs = imm
    gen.emit(f"_fi = instance.tables[{table_index}].get({gen.pop()})")
    gen.emit("if _fi is None:")
    gen.emit("    raise IndirectCallTrap('null funcref in call_indirect')")
    gen.emit(f"if instance.function_type(_fi) != instance.module.types[{type_index}]:")
    gen.emit("    raise IndirectCallTrap('call_indirect signature mismatch')")
    _call_with(gen, "_fi", gen.module.types[type_index])


def _e_select(gen, imm):
    # Only one of a and b is evaluated, so neither folds (a trap in the other
    # would be lost).
    cond = _as_test(gen.pop())
    b = gen.pop(fold=False)
    gen.push(f"({gen.pop(fold=False)} if {cond} else {b})")


def _e_local_tee(gen, imm):
    value = gen.pop()
    gen.emit(f"l{imm} = {value}")
    # A folded value is read back from the local, not evaluated twice.
    gen.push(value if value == f"s{gen.height}" else f"l{imm}")


# Scalar memory accesses.  Cranelift calls the LinearMemory method, which
# checks the bound; LLVM inlines the check and the struct codec of the access
# (``_LD_<code>``/``_ST_<code>``, bound in the generated code's namespace).

def _address(gen, offset: int) -> str:
    """Pop a base address: the effective address expression."""
    base = gen.pop()
    return f"{_paren(base)} + {offset}" if offset else base


#: Struct codes of the integer accesses by byte width.
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}


def _access(imm, codes: Dict[int, str]) -> Tuple[int, Optional[int], int]:
    """``(offset, nbytes, width)`` of a scalar access: an integer one's
    immediate is ``(offset, nbytes)``, a float one's is ``offset`` (its
    ``nbytes`` is ``None``, its width the one key of ``codes``)."""
    if isinstance(imm, int):
        return imm, None, next(iter(codes))
    return imm[0], imm[1], imm[1]


def _e_load(method: str, codes: Dict[int, str], mask: str = "") -> Callable:
    """A scalar load: ``M.<method>(address[, nbytes])`` or the inlined
    ``_LD_<code>`` of its width, each followed by ``mask``."""
    def emit(gen, imm):
        offset, nbytes, width = _access(imm, codes)
        address = _address(gen, offset)
        if gen.fold:
            slot = gen.checked(address, width)
            gen.push(f"_LD_{codes[width]}(B, {slot})[0]{mask}")
        elif nbytes is None:
            gen.push(f"M.{method}({address}){mask}")
        else:
            signed = ", signed=True" if codes is _SIGNED else ""
            gen.push(f"M.{method}({address}, {nbytes}{signed}){mask}")
    return emit


def _e_store(method: str, codes: Dict[int, str]) -> Callable:
    """A scalar store: ``M.<method>(address, value[, nbytes])`` or the
    inlined ``_ST_<code>`` of its width.  The inlined form does not fold the
    value, which must be computed (and may trap) before the store's own
    bound test."""
    def emit(gen, imm):
        offset, nbytes, width = _access(imm, codes)
        value = gen.pop(fold=not gen.fold)
        address = _address(gen, offset)
        if gen.fold:
            if nbytes is not None and nbytes < 8:  # an integer stored narrower
                value = f"{_paren(value)} & {(1 << (8 * nbytes)) - 1:#x}"
            slot = gen.checked(address, width)
            gen.emit(f"_ST_{codes[width]}(B, {slot}, {value})")
        elif nbytes is None:
            gen.emit(f"M.{method}({address}, {value})")
        else:
            gen.emit(f"M.{method}({address}, {value}, {nbytes})")
    return emit


def _e_get_const_store(gen, imm):
    a, value, offset, nbytes = imm
    address = f"l{a} + {offset}" if offset else f"l{a}"
    if gen.fold:
        slot = gen.checked(address, nbytes)  # the free slot above the stack
        gen.emit(f"_ST_{_UNSIGNED[nbytes]}(B, {slot}, {value & ((1 << (8 * nbytes)) - 1)!r})")
    else:
        gen.emit(f"M.store_int({address}, {value!r}, {nbytes})")


def _e_store_v128(gen, imm):
    value = gen.pop()
    gen.emit(f"M.write({_address(gen, imm)}, bytes({value}))")


def _e_memory_bulk(method: str) -> Callable:
    """``memory.copy``/``memory.fill``: ``M.<method>(d, s_or_v, n)``."""
    def emit(gen, imm):
        n = gen.pop()
        middle = gen.pop()
        gen.emit(f"M.{method}({gen.pop()}, {middle}, {n})")
    return emit


def _e_bin(gen, imm):
    b = gen.pop()
    gen.push(_binexpr(imm, gen.pop(), b))


def _e_cmp_br_if(gen, imm):
    name, depth = imm
    b = gen.pop()
    _branch_if(gen, _as_test(_binexpr(name, gen.pop(), b)), depth)


def _e_get_get_cmp_br_if(gen, imm):
    a, b, name, depth = imm
    _branch_if(gen, _as_test(_binexpr(name, f"l{a}", f"l{b}")), depth)


def _e_bin_set(gen, imm):
    name, dest = imm
    b = gen.pop()
    gen.emit(f"l{dest} = {_binexpr(name, gen.pop(), b)}")


def _e_fused_binop(get_get: bool) -> Callable:
    """``(a, b, name[, dest[, depth]])`` of the ``get_get``/``get_const``
    ops: push ``l{a} op b``, or set it to ``l{dest}`` and then branch."""
    def emit(gen, imm):
        a, b, name = imm[:3]
        expr = _binexpr(name, f"l{a}", f"l{b}" if get_get else repr(b))
        if len(imm) == 3:
            gen.push(expr)
            return
        gen.emit(f"l{imm[3]} = {expr}")
        if len(imm) == 5:
            _branch(gen, imm[4])
    return emit


def _e_set_br(gen, imm):
    dest, depth = imm
    gen.emit(f"l{dest} = {gen.pop()}")
    _branch(gen, depth)


def _e_splat(gen, imm):
    fmt, count, size = imm
    if fmt in ("f", "d"):
        gen.push(f"_V128L[{fmt!r}].pack({gen.pop()}) * {count}")
    else:
        gen.push(f"({_paren(gen.pop())} & {(1 << (8 * size)) - 1}).to_bytes({size}, 'little')"
                 f" * {count}")


def _e_extract_lane(gen, imm):
    fmt, size, lane, signed = imm
    lanes = f"{_paren(gen.pop())}[{lane * size}:{(lane + 1) * size}]"
    if fmt in ("f", "d"):
        gen.push(f"_V128L[{fmt!r}].unpack({lanes})[0]")
    elif signed:
        gen.push(f"int.from_bytes({lanes}, 'little', signed=True) & 0xFFFFFFFF")
    else:
        gen.push(f"int.from_bytes({lanes}, 'little')")


def _e_replace_lane(gen, imm):
    fmt, size, lane = imm
    lo, hi = lane * size, (lane + 1) * size
    value = gen.pop()
    gen.emit(f"_vec = bytearray({gen.pop()})")
    if fmt in ("f", "d"):
        gen.emit(f"_vec[{lo}:{hi}] = _V128L[{fmt!r}].pack({value})")
    else:
        gen.emit(f"_vec[{lo}:{hi}] = ({_paren(value)} & {(1 << (8 * size)) - 1})"
                 f".to_bytes({size}, 'little')")
    gen.push("bytes(_vec)")


# ------------------------------------------------------------------- the rows

_GET_GET, _GET_CONST = ("local", "local", "binop"), ("local", "number", "binop")

OPS: Dict[str, IROp] = {row.kind: row for row in (
    # kind, handler, linker, check (immediate layout), width, chain effect, emitter
    # ----- control
    IROp("nop", X._h_nop, None, _imm(), 1, (0, 0), _no_lines),
    IROp("unreachable", X._h_unreachable, None, _imm(), 1, None, _e_unreachable),
    IROp("block", X._h_block, None, _imm("uint", "target"), 1, None, _e_block),
    IROp("loop", X._h_loop, None, _imm(), 1, None, _e_loop),
    IROp("if", X._h_if, None, _imm("uint", "target", "target"), 1, None, _e_if),
    IROp("else", X._h_else, None, _imm("target"), 1, None, _e_else),
    IROp("end", X._h_end, None, _imm(), 1, None, _e_end),
    IROp("br", X._h_br, None, _imm("depth"), 1, None, _branch),
    IROp("br_if", X._h_br_if, None, _imm("depth"), 1, None,
         lambda gen, imm: _branch_if(gen, _as_test(gen.pop()), imm)),
    IROp("br_table", X._h_br_table, None, _c_br_table, 1, None, _e_br_table),
    IROp("return", X._h_return, None, _imm("target"), 1, None, _e_return),
    IROp("call", X._h_call, None, _imm("uint", "uint"), 1, None, _e_call),
    IROp("call_indirect", X._h_call_indirect, None, _imm("uint", "uint", "uint"), 1, None,
         _e_call_indirect),
    # ----- parametric, variables, constants
    IROp("drop", X._h_drop, None, _imm(), 1, (1, 0),
         lambda gen, imm: gen.pop(fold=False)),
    IROp("select", X._h_select, None, _imm(), 1, (3, 1), _e_select),
    IROp("local.get", X._h_local_get, None, _imm("local"), 1, (0, 1), _push("l{imm}")),
    IROp("local.set", X._h_local_set, None, _imm("local"), 1, (1, 0),
         lambda gen, imm: gen.emit(f"l{imm} = {gen.pop()}")),
    IROp("local.tee", X._h_local_tee, None, _imm("local"), 1, (1, 1), _e_local_tee),
    IROp("global.get", X._h_global_get, None, _imm("uint"), 1, (0, 1),
         _push("G[{imm}].value")),
    IROp("global.set", X._h_global_set, None, _imm("uint"), 1, (1, 0),
         lambda gen, imm: gen.emit(f"G[{imm}].set({gen.pop()})")),
    IROp("const", X._h_const, None, _c_const, 1, (0, 1), _push("{imm!r}")),
    # ----- memory
    IROp("load.u", X._h_load_u, None, _imm("uint", "nbytes"), 1, (1, 1),
         _e_load("load_int", _UNSIGNED)),
    IROp("load.s32", X._h_load_s32, None, _imm("uint", "nbytes"), 1, (1, 1),
         _e_load("load_int", _SIGNED, " & 0xFFFFFFFF")),
    IROp("load.s64", X._h_load_s64, None, _imm("uint", "nbytes"), 1, (1, 1),
         _e_load("load_int", _SIGNED, " & 0xFFFFFFFFFFFFFFFF")),
    IROp("load.f32", X._h_load_f32, None, _imm("uint"), 1, (1, 1),
         _e_load("load_f32", {4: "f"})),
    IROp("load.f64", X._h_load_f64, None, _imm("uint"), 1, (1, 1),
         _e_load("load_f64", {8: "d"})),
    IROp("load.v128", X._h_load_v128, None, _imm("uint"), 1, (1, 1),
         lambda gen, imm: gen.push(f"M.read({_address(gen, imm)}, 16)")),
    IROp("store.i", X._h_store_i, None, _imm("uint", "nbytes"), 1, (2, 0),
         _e_store("store_int", _UNSIGNED)),
    IROp("store.f32", X._h_store_f32, None, _imm("uint"), 1, (2, 0),
         _e_store("store_f32", {4: "f"})),
    IROp("store.f64", X._h_store_f64, None, _imm("uint"), 1, (2, 0),
         _e_store("store_f64", {8: "d"})),
    IROp("store.v128", X._h_store_v128, None, _imm("uint"), 1, (2, 0), _e_store_v128),
    IROp("memory.size", X._h_memory_size, None, _imm(), 1, (0, 1), _push("M.pages")),
    IROp("memory.grow", X._h_memory_grow, None, _imm(), 1, (1, 1),
         _unary("M.grow({v}) & 0xFFFFFFFF")),
    IROp("memory.copy", X._h_memory_copy, None, _imm(), 1, (3, 0),
         _e_memory_bulk("copy_within")),
    IROp("memory.fill", X._h_memory_fill, None, _imm(), 1, (3, 0), _e_memory_bulk("fill")),
    # ----- numeric
    IROp("bin", X._h_bin, _BINOPS.__getitem__, _imm("binop"), 1, (2, 1), _e_bin),
    IROp("un", X._h_un, _UNOPS.__getitem__, _imm("unop"), 1, (1, 1),
         _unary("_UN[{imm!r}]({v})")),
    # ----- SIMD
    IROp("splat", X._h_splat, None, _c_splat, 1, (1, 1), _e_splat),
    IROp("extract_lane", X._h_extract_lane, None, _c_lane(4, "reads"), 1, (1, 1),
         _e_extract_lane),
    IROp("replace_lane", X._h_replace_lane, None, _c_lane(3, "writes"), 1, (2, 1),
         _e_replace_lane),
    IROp("v128.not", X._h_v128_not, None, _imm(), 1, (1, 1),
         _unary("(~int.from_bytes({v}, 'little') & ((1 << 128) - 1)).to_bytes(16, 'little')")),
    IROp("simd.bin", X._h_simd_bin, None, _imm("simd binop"), 1, (2, 1),
         _binary("_SIMD_BIN({imm!r}, {a}, {b})")),
    IROp("simd.un", X._h_simd_un, None, _imm("simd unop"), 1, (1, 1),
         _unary("_SIMD_UN({imm!r}, {v})")),
    # ----- superinstructions of the static fusion pass (lowering._fuse); a
    # pad is the unreachable interior slot of one
    IROp("fused.pad", X._h_pad, None, _imm(), 1, None, _no_lines),
    IROp("fused.get_get_bin", X._h_get_get_bin, X.link_binop_at(2), _imm(*_GET_GET), 3,
         None, _e_fused_binop(get_get=True)),
    IROp("fused.get_const_bin", X._h_get_const_bin, X.link_binop_at(2), _imm(*_GET_CONST),
         3, None, _e_fused_binop(get_get=False)),
    IROp("fused.get_const_store", X._h_get_const_store, None,
         _imm("local", "int", "uint", "nbytes"), 3, None, _e_get_const_store),
    IROp("fused.cmp_br_if", X._h_cmp_br_if, X.link_binop_at(0), _imm("binop", "depth"), 2,
         None, _e_cmp_br_if),
    IROp("fused.eqz_br_if", X._h_eqz_br_if, None, _imm("depth"), 2, None,
         lambda gen, imm: _branch_if(gen, f"not ({_as_test(gen.pop())})", imm)),
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
