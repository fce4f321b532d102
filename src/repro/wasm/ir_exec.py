"""The interpreter's handler for every lowered-IR kind, and their linkers.

A handler executes one op: it takes the execution state, the op's offset and
its linked immediate, and returns the offset to continue at.  A linker
(:func:`link_binop_at`) turns a serial immediate into the one its handler
destructures: an operator name becomes the operator's function.  :mod:`repro.wasm.ir` puts each handler and
linker in its kind's row; profile histograms key on the handlers'
``__name__``.
"""

from __future__ import annotations

from repro.wasm import values as V
from repro.wasm.errors import IndirectCallTrap, Trap, UnreachableTrap
from repro.wasm.semantics import _BINOPS, _simd_binary, _simd_unary

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

def _h_nop(st, pc, imm):
    return pc + 1


def _h_pad(st, pc, imm):  # pragma: no cover - unreachable by construction
    raise Trap("jump into the middle of a fused superinstruction")


def _h_unreachable(st, pc, imm):
    raise UnreachableTrap()


def _h_block(st, pc, imm):
    # imm = (arity, end_index + 1)
    st.frames.append((False, imm[0], len(st.stack), imm[1]))
    return pc + 1


def _h_loop(st, pc, imm):
    st.frames.append((True, 0, len(st.stack), pc + 1))
    return pc + 1


def _h_if(st, pc, imm):
    # imm = (arity, false_target, end_index + 1)
    cond = st.stack.pop()
    st.frames.append((False, imm[0], len(st.stack), imm[2]))
    return pc + 1 if cond else imm[1]


def _h_else(st, pc, imm):
    # Reached only by falling out of the then-arm: jump to the 'end' op
    # (which pops the frame).
    return imm


def _h_end(st, pc, imm):
    st.frames.pop()
    return pc + 1


def _h_br(st, pc, imm):
    return _branch(st, imm)


def _h_br_if(st, pc, imm):
    if st.stack.pop():
        return _branch(st, imm)
    return pc + 1


def _h_br_table(st, pc, imm):
    targets, default = imm
    idx = st.stack.pop()
    return _branch(st, targets[idx] if idx < len(targets) else default)


def _h_return(st, pc, imm):
    # imm = len(ops): jump past the end of the body; the epilogue collects
    # the top `nresults` values exactly like falling off the end.
    return imm


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


def _h_drop(st, pc, imm):
    st.stack.pop()
    return pc + 1


def _h_select(st, pc, imm):
    stack = st.stack
    cond = stack.pop()
    b = stack.pop()
    if not cond:
        stack[-1] = b
    return pc + 1


def _h_local_get(st, pc, imm):
    st.stack.append(st.locals[imm])
    return pc + 1


def _h_local_set(st, pc, imm):
    st.locals[imm] = st.stack.pop()
    return pc + 1


def _h_local_tee(st, pc, imm):
    st.locals[imm] = st.stack[-1]
    return pc + 1


def _h_global_get(st, pc, imm):
    st.stack.append(st.instance.globals[imm].value)
    return pc + 1


def _h_global_set(st, pc, imm):
    st.instance.globals[imm].set(st.stack.pop())
    return pc + 1


def _h_const(st, pc, imm):
    st.stack.append(imm)
    return pc + 1


def _h_load_u(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], False)
    return pc + 1


def _h_load_s32(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], True) & V.MASK32
    return pc + 1


def _h_load_s64(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_int(stack[-1] + imm[0], imm[1], True) & V.MASK64
    return pc + 1


def _h_load_f32(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_f32(stack[-1] + imm)
    return pc + 1


def _h_load_f64(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.load_f64(stack[-1] + imm)
    return pc + 1


def _h_load_v128(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.read(stack[-1] + imm, 16)
    return pc + 1


def _h_store_i(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_int(stack.pop() + imm[0], value, imm[1])
    return pc + 1


def _h_store_f32(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_f32(stack.pop() + imm, value)
    return pc + 1


def _h_store_f64(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.store_f64(stack.pop() + imm, value)
    return pc + 1


def _h_store_v128(st, pc, imm):
    stack = st.stack
    value = stack.pop()
    st.memory.write(stack.pop() + imm, bytes(value))
    return pc + 1


def _h_memory_size(st, pc, imm):
    st.stack.append(st.memory.pages)
    return pc + 1


def _h_memory_grow(st, pc, imm):
    stack = st.stack
    stack[-1] = st.memory.grow(stack[-1]) & V.MASK32
    return pc + 1


def _h_memory_copy(st, pc, imm):
    stack = st.stack
    n = stack.pop()
    src = stack.pop()
    st.memory.copy_within(stack.pop(), src, n)
    return pc + 1


def _h_memory_fill(st, pc, imm):
    stack = st.stack
    n = stack.pop()
    value = stack.pop()
    st.memory.fill(stack.pop(), value, n)
    return pc + 1


def _h_bin(st, pc, imm):
    stack = st.stack
    b = stack.pop()
    stack[-1] = imm(stack[-1], b)
    return pc + 1


def _h_un(st, pc, imm):
    stack = st.stack
    stack[-1] = imm(stack[-1])
    return pc + 1


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


def _h_v128_not(st, pc, imm):
    stack = st.stack
    stack[-1] = (~int.from_bytes(stack[-1], "little") & (2**128 - 1)).to_bytes(16, "little")
    return pc + 1


def _h_simd_bin(st, pc, imm):
    stack = st.stack
    b = stack.pop()
    stack[-1] = _simd_binary(imm, stack[-1], b)
    return pc + 1


def _h_simd_un(st, pc, imm):
    stack = st.stack
    stack[-1] = _simd_unary(imm, stack[-1])
    return pc + 1


# ---- superinstructions -------------------------------------------------------


def link_binop_at(index: int):
    """The linker of a superinstruction immediate that names a binary
    operator at ``index``: the name becomes the operator's function."""
    def link(imm):
        return (*imm[:index], _BINOPS[imm[index]], *imm[index + 1:])
    return link


def _h_get_get_bin(st, pc, imm):
    a, b, op = imm
    locals_ = st.locals
    st.stack.append(op(locals_[a], locals_[b]))
    return pc + 3


def _h_get_const_bin(st, pc, imm):
    a, c, op = imm
    st.stack.append(op(st.locals[a], c))
    return pc + 3


def _h_get_const_store(st, pc, imm):
    a, value, offset, nbytes = imm
    st.memory.store_int(st.locals[a] + offset, value, nbytes)
    return pc + 3


def _h_cmp_br_if(st, pc, imm):
    op, depth = imm
    stack = st.stack
    b = stack.pop()
    if op(stack.pop(), b):
        return _branch(st, depth)
    return pc + 2


def _h_eqz_br_if(st, pc, imm):
    if not st.stack.pop():
        return _branch(st, imm)
    return pc + 2


def _h_get_get_cmp_br_if(st, pc, imm):
    a, b, op, depth = imm
    locals_ = st.locals
    if op(locals_[a], locals_[b]):
        return _branch(st, depth)
    return pc + 4


def _h_get_get_bin_set(st, pc, imm):
    # local.get a ; local.get b ; binop ; local.set dest -- never touches the
    # value stack at all.
    a, b, op, dest = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], locals_[b])
    return pc + 4


def _h_get_const_bin_set(st, pc, imm):
    a, c, op, dest = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], c)
    return pc + 4


def _h_bin_set(st, pc, imm):
    op, dest = imm
    stack = st.stack
    b = stack.pop()
    st.locals[dest] = op(stack.pop(), b)
    return pc + 2


# Loop back-edge superinstructions: an induction-variable update followed by
# an unconditional ``br`` (the tail of every counted loop) collapses into one
# dispatch that updates the local and takes the branch.


def _h_get_get_bin_set_br(st, pc, imm):
    a, b, op, dest, depth = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], locals_[b])
    return _branch(st, depth)


def _h_get_const_bin_set_br(st, pc, imm):
    a, c, op, dest, depth = imm
    locals_ = st.locals
    locals_[dest] = op(locals_[a], c)
    return _branch(st, depth)


def _h_set_br(st, pc, imm):
    dest, depth = imm
    st.locals[dest] = st.stack.pop()
    return _branch(st, depth)
