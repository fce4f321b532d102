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

What each op kind means -- its handler, linker, immediate check, slot width,
stack effect and generated source -- is one row of :data:`repro.wasm.ir.OPS`;
the numeric semantics every engine shares are :mod:`repro.wasm.semantics`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.wasm import values as V
from repro.wasm.errors import Trap
from repro.wasm.instructions import BlockType, Instruction, MemArg
from repro.wasm.ir import CHAINABLE, MINED, OPS
from repro.wasm.module import Function, Module
from repro.wasm.semantics import _BINOPS, _LOADS, _STORES, _UNOPS, _simd_lanes

#: Version stamp of the lowered representation.  Part of the compilation-cache
#: key: bumping it transparently invalidates every cached artifact.
#: Version 2: bulk memory (``memory.copy``/``memory.fill``), the full SIMD
#: lane-arithmetic set (NumPy-backed), signedness-aware ``extract_lane``
#: immediates, and the mined-superinstruction op kind ``fused.mined`` plus the
#: serialized fusion table.  Version 3: the IR is unchanged, but the LLVM
#: artifact is source generated from it, and its generator now keeps the
#: operand stack and the locals in Python locals (and copies the values a
#: branch carries); this is the only version in the cache key, so the bump is
#: what keeps a disk cache from serving the old source.
IR_VERSION = 3


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



# ---- profile-guided superinstruction mining ---------------------------------

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
        row = OPS[kind]
        pairs.append((row.handler, row.linker(sub) if row.linker is not None else sub))
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
        if ops[i][0] not in CHAINABLE:
            continue
        for width in range(2, max_width + 1):
            end = i + width
            if end > n:
                break
            if ops[end - 1][0] not in CHAINABLE:
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
        for kind in CHAINABLE:
            weights[kind] = float(histogram.get(OPS[kind].handler.__name__, 0))

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
                ops[i] = (MINED, (kinds, tuple(imm for _, imm in ops[i:end])))
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
        if kind == MINED:
            kinds = tuple(imm[0])
            code.append((_chain_handler(kinds), _link_mined((kinds, imm[1]))))
            continue
        row = OPS.get(kind)
        if row is None:
            raise Trap(f"unknown lowered op kind {kind!r} (IR version skew?)")
        linker = row.linker
        code.append((row.handler, linker(imm) if linker is not None else imm))
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
        kind = ops[i][0]
        if kind in _BACK_EDGE_KINDS:
            j = i + OPS[kind].width
            if j < n and j not in targets and ops[j][0] == "br":
                imm, fused_kind = ops[i][1], _BACK_EDGE_KINDS[kind]
                if kind == "local.set":
                    ops[i] = (fused_kind, (imm, ops[j][1]))
                else:
                    ops[i] = (fused_kind, (*imm, ops[j][1]))
                ops[j] = _PAD
                fused += 1
                i = j + 1
                continue
        i += 1
    return fused


#: The set-style kinds a following ``br`` fuses with, read off the rows, each
#: to its fused kind: ``X`` to the ``X_br`` row's key, and a bare
#: ``local.set`` to ``fused.set_br``.  The fused kind is the row's own key
#: string, never a fresh ``kind + "_br"``, so every such op of an artifact
#: shares one string and pickles it once.
_BACK_EDGE_KINDS = {
    kind[:-3]: kind for kind in OPS if kind.endswith("_br") and kind[:-3] in OPS
}
_BACK_EDGE_KINDS["local.set"] = "fused.set_br"


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
