"""Static verifier for lowered-IR artifacts and mined fusion tables.

Lowered functions (``wasm/lowering.py``) travel through the shared on-disk
compilation cache as plain ``(kind, immediate)`` tuples and are re-linked and
executed on load -- in the serve daemon, by a different process than the one
that compiled them.  This module re-establishes, by a linear pass and without
executing anything, the invariants the lowering pass guaranteed at build
time:

* every op ``kind`` resolves to a registered handler (what :func:`link`
  would otherwise discover as a mid-execution ``Trap``);
* every immediate has the exact tuple shape its handler destructures;
* absolute jump targets (``block``/``if`` continuations, ``else`` targets,
  ``return``) are in-bounds and land on instruction boundaries -- never in
  the interior (pad slots) of a fused superinstruction;
* branch *depths* (``br``/``br_if``/``br_table`` and the fused ``*_br_if``/
  ``*_br`` forms) do not exceed the statically-known number of open control
  frames at that offset (plus the implicit function frame);
* control ops balance (no stray ``end``, no unterminated ``block``);
* multi-slot fused ops are followed by exactly ``width - 1`` pads, and pads
  never appear outside a fused interior;
* every ``fused.mined`` chain is re-validated against its constituents:
  kinds chainable and resolvable, constituent immediates well-shaped, and
  the chain's composed stack effect consistent (tracked from the per-kind
  pop/push table -- a chain whose interior would underflow the depth the
  chain itself established is structurally impossible output of the miner).

Entry points return a :class:`~repro.analysis.findings.Report`; nothing here
raises on bad input -- malformed structures become findings, so a corrupt
cache artifact yields a diagnostic, not a crash.  ``deserialize_lowered(...,
verify=True)`` routes through :func:`verify_payload` and converts errors to
:class:`~repro.wasm.errors.ValidationError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Report
from repro.wasm.lowering import (
    _BINOPS,
    _CHAINABLE_KINDS,
    _HANDLERS,
    _UNOPS,
    IR_VERSION,
    LoweredFunction,
)

#: Slot width of every multi-slot fused op (``fused.mined`` is dynamic:
#: ``len(kinds)``); interior slots must hold ``fused.pad``.
_FUSED_WIDTHS: Dict[str, int] = {
    "fused.get_get_bin": 3,
    "fused.get_const_bin": 3,
    "fused.get_const_store": 3,
    "fused.cmp_br_if": 2,
    "fused.eqz_br_if": 2,
    "fused.get_get_cmp_br_if": 4,
    "fused.get_get_bin_set": 4,
    "fused.get_const_bin_set": 4,
    "fused.bin_set": 2,
    "fused.get_get_bin_set_br": 5,
    "fused.get_const_bin_set_br": 5,
    "fused.set_br": 2,
}

#: Static ``(pops, pushes)`` of every chainable kind, used to compose the
#: stack effect of a ``fused.mined`` chain.  Must cover
#: :data:`~repro.wasm.lowering._CHAINABLE_KINDS` exactly (asserted by test).
CHAIN_STACK_EFFECT: Dict[str, Tuple[int, int]] = {
    "nop": (0, 0),
    "drop": (1, 0),
    "select": (3, 1),
    "local.get": (0, 1),
    "local.set": (1, 0),
    "local.tee": (1, 1),
    "global.get": (0, 1),
    "global.set": (1, 0),
    "const": (0, 1),
    "bin": (2, 1),
    "un": (1, 1),
    "load.u": (1, 1),
    "load.s32": (1, 1),
    "load.s64": (1, 1),
    "load.f32": (1, 1),
    "load.f64": (1, 1),
    "load.v128": (1, 1),
    "store.i": (2, 0),
    "store.f32": (2, 0),
    "store.f64": (2, 0),
    "store.v128": (2, 0),
    "memory.size": (0, 1),
    "memory.grow": (1, 1),
    "memory.copy": (3, 0),
    "memory.fill": (3, 0),
    "splat": (1, 1),
    "extract_lane": (1, 1),
    "replace_lane": (2, 1),
    "v128.not": (1, 1),
    "simd.bin": (2, 1),
    "simd.un": (1, 1),
}


def chain_stack_effect(kinds: Sequence[str]) -> Tuple[int, int]:
    """Composed ``(pops, pushes)`` of a chain: the depth of caller stack it
    consumes and what it leaves, by running the per-kind effects in order."""
    depth = 0      # net stack change so far
    needed = 0     # deepest reach below the entry stack level
    for kind in kinds:
        pops, pushes = CHAIN_STACK_EFFECT[kind]
        depth -= pops
        needed = min(needed, depth)
        depth += pushes
    return -needed, depth - needed


def _is_int(value: Any, lo: int = 0) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= lo


class _OpsChecker:
    """One linear verification pass over a function's serial op array."""

    def __init__(self, report: Report, ops: List[Tuple[str, Any]], loc: str):
        self.report = report
        self.ops = ops
        self.loc = loc
        self.n = len(ops)
        self.open_frames = 0       # explicit block/loop/if frames open here
        self.pending_pads = 0      # interior slots owed by the last fused op

    # ------------------------------------------------------------- primitives

    def _err(self, pc: int, rule: str, message: str, **details: Any) -> None:
        self.report.error("ir", rule, message, f"{self.loc} op {pc}", **details)

    def _target(self, pc: int, value: Any, what: str) -> None:
        """An absolute jump target: in-bounds, on an instruction boundary."""
        if not _is_int(value):
            self._err(pc, "bad-immediate", f"{what} must be a non-negative int, "
                      f"got {value!r}")
            return
        if value > self.n:
            self._err(pc, "bad-jump-target",
                      f"{what} {value} out of bounds for {self.n} ops")
        elif value < self.n and self.ops[value][0] == "fused.pad":
            self._err(pc, "bad-jump-target",
                      f"{what} {value} lands inside a fused superinstruction")

    def _depth(self, pc: int, value: Any, what: str) -> None:
        """A branch depth: within the open frames (incl. the implicit one)."""
        if not _is_int(value):
            self._err(pc, "bad-immediate", f"{what} must be a non-negative int, "
                      f"got {value!r}")
        elif value > self.open_frames:
            self._err(pc, "bad-branch-depth",
                      f"{what} {value} exceeds the {self.open_frames} control "
                      "frame(s) open at this offset")

    def _shape(self, pc: int, imm: Any, kind: str, length: int) -> bool:
        if not isinstance(imm, (tuple, list)) or len(imm) != length:
            self._err(pc, "bad-immediate",
                      f"{kind} immediate must be a {length}-tuple, got {imm!r}")
            return False
        return True

    def _binop_name(self, pc: int, value: Any, kind: str) -> None:
        if value not in _BINOPS:
            self._err(pc, "bad-immediate",
                      f"{kind} names unknown binary op {value!r}")

    def _locals(self, pc: int, imm: Any, kind: str, *slots: int) -> None:
        """Local indices of a fused op (generated code splices them as ints)."""
        for slot in slots:
            if not _is_int(imm[slot]):
                self._err(pc, "bad-immediate",
                          f"{kind} local index {imm[slot]!r} invalid")

    def _fused_operands(self, pc: int, imm: Any, kind: str) -> None:
        """``(a, b, ...)`` of a ``get_get``/``get_const`` op: locals or a number."""
        if kind.startswith("fused.get_get"):
            self._locals(pc, imm, kind, 0, 1)
            return
        self._locals(pc, imm, kind, 0)
        if isinstance(imm[1], bool) or not isinstance(imm[1], (int, float)):
            self._err(pc, "bad-immediate",
                      f"{kind} constant must be int/float, got {type(imm[1]).__name__}")

    # ------------------------------------------------------------ per-kind imm

    def _check_imm(self, pc: int, kind: str, imm: Any) -> None:
        if kind in ("nop", "unreachable", "loop", "end", "drop", "select",
                    "memory.size", "memory.grow", "memory.copy", "memory.fill",
                    "v128.not", "fused.pad"):
            return  # no immediate (handlers ignore it)
        if kind == "block":
            if self._shape(pc, imm, kind, 2):
                if not _is_int(imm[0]):
                    self._err(pc, "bad-immediate", f"block arity {imm[0]!r} invalid")
                self._target(pc, imm[1], "block continuation")
        elif kind == "if":
            if self._shape(pc, imm, kind, 3):
                if not _is_int(imm[0]):
                    self._err(pc, "bad-immediate", f"if arity {imm[0]!r} invalid")
                self._target(pc, imm[1], "if false-target")
                self._target(pc, imm[2], "if continuation")
        elif kind == "else":
            self._target(pc, imm, "else target")
        elif kind in ("br", "br_if"):
            self._depth(pc, imm, f"{kind} depth")
        elif kind == "br_table":
            if self._shape(pc, imm, kind, 2):
                targets, default = imm
                if not isinstance(targets, (tuple, list)):
                    self._err(pc, "bad-immediate",
                              f"br_table targets must be a sequence, got {targets!r}")
                else:
                    for k, depth in enumerate(targets):
                        self._depth(pc, depth, f"br_table target {k}")
                self._depth(pc, default, "br_table default")
        elif kind == "return":
            self._target(pc, imm, "return target")
        elif kind == "call":
            if self._shape(pc, imm, kind, 2) and not (
                _is_int(imm[0]) and _is_int(imm[1])
            ):
                self._err(pc, "bad-immediate", f"call immediate {imm!r} invalid")
        elif kind == "call_indirect":
            if self._shape(pc, imm, kind, 3) and not all(_is_int(v) for v in imm):
                self._err(pc, "bad-immediate", f"call_indirect immediate {imm!r} invalid")
        elif kind in ("local.get", "local.set", "local.tee",
                      "global.get", "global.set"):
            if not _is_int(imm):
                self._err(pc, "bad-immediate", f"{kind} index {imm!r} invalid")
        elif kind == "const":
            if not isinstance(imm, (int, float, bytes)):
                self._err(pc, "bad-immediate",
                          f"const value must be int/float/bytes, got {type(imm).__name__}")
            elif isinstance(imm, bytes) and len(imm) != 16:
                self._err(pc, "bad-immediate",
                          f"v128 const must be 16 bytes, got {len(imm)}")
        elif kind in ("load.u", "load.s32", "load.s64", "store.i"):
            if self._shape(pc, imm, kind, 2) and not (
                _is_int(imm[0]) and _is_int(imm[1], lo=1) and imm[1] <= 8
            ):
                self._err(pc, "bad-immediate",
                          f"{kind} (offset, nbytes) {imm!r} invalid")
        elif kind in ("load.f32", "load.f64", "load.v128",
                      "store.f32", "store.f64", "store.v128"):
            if not _is_int(imm):
                self._err(pc, "bad-immediate", f"{kind} offset {imm!r} invalid")
        elif kind == "bin":
            self._binop_name(pc, imm, kind)
        elif kind == "un":
            if imm not in _UNOPS:
                self._err(pc, "bad-immediate", f"un names unknown unary op {imm!r}")
        elif kind == "splat":
            if self._shape(pc, imm, kind, 3) and not (
                _is_int(imm[1], lo=1) and _is_int(imm[2], lo=1)
                and imm[1] * imm[2] == 16
            ):
                self._err(pc, "bad-immediate",
                          f"splat (fmt, count, size) {imm!r} does not form 16 lanes")
        elif kind == "extract_lane":
            if self._shape(pc, imm, kind, 4) and not (
                _is_int(imm[1], lo=1) and _is_int(imm[2])
                and (imm[2] + 1) * imm[1] <= 16
            ):
                self._err(pc, "bad-immediate",
                          f"extract_lane {imm!r} reads outside the 16-byte vector")
        elif kind == "replace_lane":
            if self._shape(pc, imm, kind, 3) and not (
                _is_int(imm[1], lo=1) and _is_int(imm[2])
                and (imm[2] + 1) * imm[1] <= 16
            ):
                self._err(pc, "bad-immediate",
                          f"replace_lane {imm!r} writes outside the 16-byte vector")
        elif kind in ("simd.bin", "simd.un"):
            if not isinstance(imm, str):
                self._err(pc, "bad-immediate", f"{kind} op name {imm!r} invalid")
        elif kind in ("fused.get_get_bin", "fused.get_const_bin"):
            if self._shape(pc, imm, kind, 3):
                self._fused_operands(pc, imm, kind)
                self._binop_name(pc, imm[2], kind)
        elif kind == "fused.get_const_store":
            if self._shape(pc, imm, kind, 4) and not (
                _is_int(imm[0]) and isinstance(imm[1], int) and not isinstance(imm[1], bool)
                and _is_int(imm[2]) and _is_int(imm[3], lo=1)
            ):
                self._err(pc, "bad-immediate", f"{kind} immediate {imm!r} invalid")
        elif kind == "fused.cmp_br_if":
            if self._shape(pc, imm, kind, 2):
                self._binop_name(pc, imm[0], kind)
                self._depth(pc, imm[1], f"{kind} depth")
        elif kind == "fused.eqz_br_if":
            self._depth(pc, imm, f"{kind} depth")
        elif kind == "fused.get_get_cmp_br_if":
            if self._shape(pc, imm, kind, 4):
                self._locals(pc, imm, kind, 0, 1)
                self._binop_name(pc, imm[2], kind)
                self._depth(pc, imm[3], f"{kind} depth")
        elif kind in ("fused.get_get_bin_set", "fused.get_const_bin_set"):
            if self._shape(pc, imm, kind, 4):
                self._fused_operands(pc, imm, kind)
                self._binop_name(pc, imm[2], kind)
                if not _is_int(imm[3]):
                    self._err(pc, "bad-immediate", f"{kind} dest {imm[3]!r} invalid")
        elif kind == "fused.bin_set":
            if self._shape(pc, imm, kind, 2):
                self._binop_name(pc, imm[0], kind)
                self._locals(pc, imm, kind, 1)
        elif kind in ("fused.get_get_bin_set_br", "fused.get_const_bin_set_br"):
            if self._shape(pc, imm, kind, 5):
                self._fused_operands(pc, imm, kind)
                self._binop_name(pc, imm[2], kind)
                self._locals(pc, imm, kind, 3)
                self._depth(pc, imm[4], f"{kind} depth")
        elif kind == "fused.set_br":
            if self._shape(pc, imm, kind, 2):
                self._locals(pc, imm, kind, 0)
                self._depth(pc, imm[1], f"{kind} depth")
        elif kind == "fused.mined":
            self._check_mined(pc, imm)

    def _check_mined(self, pc: int, imm: Any) -> int:
        """Validate one mined chain; returns its slot width (1 on malformed
        input, so the pass resynchronizes at the next op)."""
        if not self._shape(pc, imm, "fused.mined", 2):
            return 1
        kinds, imms = imm
        if not isinstance(kinds, (tuple, list)) or not isinstance(imms, (tuple, list)):
            self._err(pc, "bad-immediate",
                      "fused.mined immediate must be (kinds, imms) sequences")
            return 1
        if len(kinds) != len(imms) or len(kinds) < 2:
            self._err(pc, "bad-chain",
                      f"fused.mined has {len(kinds)} kind(s) but {len(imms)} "
                      "immediate(s) (need matching lengths >= 2)")
            return max(2, len(kinds))
        ok = True
        for k, kind in enumerate(kinds):
            if kind not in _CHAINABLE_KINDS:
                self._err(pc, "unchainable-kind",
                          f"fused.mined constituent {k} ({kind!r}) is not a "
                          "chainable op kind", chain=list(kinds))
                ok = False
            elif kind not in _HANDLERS:
                self._err(pc, "unknown-kind",
                          f"fused.mined constituent {k} ({kind!r}) has no handler")
                ok = False
            else:
                self._check_imm(pc, kind, imms[k])
        if ok:
            # Composed stack effect must be self-consistent: every constituent
            # effect known, and width equals the chain length (the pads that
            # follow are checked by the main walk).
            missing = [k for k in kinds if k not in CHAIN_STACK_EFFECT]
            if missing:
                self._err(pc, "bad-chain",
                          f"no stack-effect entry for chained kind(s) {missing}")
            else:
                pops, pushes = chain_stack_effect(kinds)
                if pops > 64 or pushes > 64:  # sanity bound: miner caps width at ~8
                    self._err(pc, "bad-chain",
                              f"chain stack effect ({pops} pops, {pushes} pushes) "
                              "implausible for a mined superinstruction")
        return len(kinds)

    # ------------------------------------------------------------------- walk

    def run(self) -> None:
        for pc, op in enumerate(self.ops):
            if not isinstance(op, (tuple, list)) or len(op) != 2 or not isinstance(op[0], str):
                self._err(pc, "bad-op", f"op must be a (kind, immediate) pair, got {op!r}")
                continue
            kind, imm = op
            if kind != "fused.mined" and kind not in _HANDLERS:
                self._err(pc, "unknown-kind",
                          f"op kind {kind!r} resolves to no handler "
                          "(IR version skew or corruption)")
                continue
            if self.pending_pads > 0:
                if kind != "fused.pad":
                    self._err(pc, "missing-pad",
                              f"expected a fused.pad interior slot, found {kind!r}")
                self.pending_pads -= 1
                if kind == "fused.pad":
                    continue
            elif kind == "fused.pad":
                self._err(pc, "stray-pad",
                          "fused.pad outside any fused superinstruction "
                          "(executing it traps)")
                continue
            width = _FUSED_WIDTHS.get(kind)
            if kind == "fused.mined":
                width = self._check_mined(pc, imm)
            else:
                self._check_imm(pc, kind, imm)
            if width is not None and width > 1:
                if pc + width > self.n:
                    self._err(pc, "bad-chain",
                              f"{kind} needs {width} slots but only "
                              f"{self.n - pc} remain")
                    self.pending_pads = self.n - pc - 1
                else:
                    self.pending_pads = width - 1
            # Control balance bookkeeping.
            if kind in ("block", "loop", "if"):
                self.open_frames += 1
            elif kind == "end":
                if self.open_frames == 0:
                    self._err(pc, "unbalanced-control",
                              "end with no open block/loop/if frame")
                else:
                    self.open_frames -= 1
        if self.pending_pads:
            self.report.error("ir", "bad-chain",
                              f"function ends inside a fused superinstruction "
                              f"({self.pending_pads} pad slot(s) missing)", self.loc)
        if self.open_frames:
            self.report.error("ir", "unbalanced-control",
                              f"{self.open_frames} control frame(s) never closed",
                              self.loc)


def verify_function(fn: LoweredFunction, index: int = 0,
                    report: Optional[Report] = None, loc: str = "") -> Report:
    """Verify one lowered function; findings carry ``func i (name) op pc``."""
    report = report if report is not None else Report()
    name = f" ({fn.name})" if getattr(fn, "name", "") else ""
    floc = f"{loc} func {index}{name}" if loc else f"func {index}{name}"
    if not isinstance(fn.ops, list):
        report.error("ir", "bad-op", f"ops must be a list, got {type(fn.ops).__name__}", floc)
        return report
    if not _is_int(fn.nresults):
        report.error("ir", "bad-function", f"nresults {fn.nresults!r} invalid", floc)
    _OpsChecker(report, fn.ops, floc).run()
    return report


def verify_fusion_table(table: Any, report: Optional[Report] = None,
                        loc: str = "fusion_table") -> Report:
    """Validate a mined fusion table (the ``fusion_table`` payload entry)."""
    report = report if report is not None else Report()
    if not isinstance(table, (list, tuple)):
        report.error("ir", "bad-fusion-table",
                     f"fusion table must be a list, got {type(table).__name__}", loc)
        return report
    for i, rec in enumerate(table):
        rloc = f"{loc}[{i}]"
        if not isinstance(rec, dict):
            report.error("ir", "bad-fusion-table",
                         f"record must be a dict, got {type(rec).__name__}", rloc)
            continue
        kinds = rec.get("kinds")
        if not isinstance(kinds, (list, tuple)) or len(kinds) < 2:
            report.error("ir", "bad-fusion-table",
                         f"record kinds {kinds!r} must list >= 2 op kinds", rloc)
            continue
        for kind in kinds:
            if kind not in _CHAINABLE_KINDS:
                report.error("ir", "unchainable-kind",
                             f"fusion-table kind {kind!r} is not chainable", rloc,
                             chain=list(kinds))
        width = rec.get("width")
        if width is not None and width != len(kinds):
            report.error("ir", "bad-fusion-table",
                         f"record width {width} != len(kinds) {len(kinds)}", rloc)
    return report


def verify_payload(payload: Any, report: Optional[Report] = None,
                   loc: str = "") -> Report:
    """Verify a full serialized lowered-IR payload (``serialize_lowered``).

    Non-lowered-IR payloads get a single NOTE (the deserializer falls back to
    re-lowering those, so they are not errors); structurally-broken lowered-IR
    payloads produce ERROR findings rather than exceptions.
    """
    report = report if report is not None else Report()
    prefix = f"{loc} " if loc else ""
    if not isinstance(payload, dict) or payload.get("kind") != "lowered-ir":
        report.note("ir", "not-lowered-ir",
                    "payload is not a lowered-IR artifact (nothing to verify)",
                    loc)
        return report
    if payload.get("ir_version") != IR_VERSION:
        report.note("ir", "ir-version-mismatch",
                    f"artifact IR version {payload.get('ir_version')!r} != "
                    f"current {IR_VERSION} (loader re-lowers from source)", loc)
        return report
    functions = payload.get("functions")
    if not isinstance(functions, list):
        report.error("ir", "bad-payload",
                     f"'functions' must be a list, got {type(functions).__name__}",
                     loc)
        return report
    for index, fpayload in enumerate(functions):
        try:
            fn = LoweredFunction.from_payload(fpayload)
        except Exception as exc:
            report.error("ir", "bad-function",
                         f"function payload does not deserialize: {exc}",
                         f"{prefix}func {index}")
            continue
        verify_function(fn, index, report, loc)
    if "fusion_table" in payload:
        verify_fusion_table(payload["fusion_table"], report,
                            f"{prefix}fusion_table")
    return report


def verify_artifact(artifact: Any, loc: str = "") -> Report:
    """Verify a compiled artifact of any backend.

    Only lowered-IR payloads carry statically-checkable structure; anything
    else (e.g. a plain module artifact) returns an empty, passing report.
    """
    report = Report()
    if isinstance(artifact, dict) and artifact.get("kind") == "lowered-ir":
        verify_payload(artifact, report, loc)
    return report


#: Name exported on the flat ``repro.api`` surface, where ``verify_artifact``
#: alone would not say what it verifies.
verify_lowered_artifact = verify_artifact


def _self_version_guard() -> None:  # pragma: no cover - import-time assert
    """Fail fast if lowering grew chainable kinds this table does not know."""
    missing = _CHAINABLE_KINDS - set(CHAIN_STACK_EFFECT)
    if missing:
        raise AssertionError(
            f"CHAIN_STACK_EFFECT is missing chainable kinds {sorted(missing)}; "
            "update repro/analysis/ir_verify.py alongside wasm/lowering.py"
        )


_self_version_guard()
