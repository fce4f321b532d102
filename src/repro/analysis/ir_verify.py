"""Static verifier for lowered-IR artifacts and mined fusion tables.

Lowered functions (``wasm/lowering.py``) travel through the shared on-disk
compilation cache as plain ``(kind, immediate)`` tuples and are re-linked and
executed on load -- in the serve daemon, by a different process than the one
that compiled them.  This module re-establishes, by a linear pass and without
executing anything, the invariants the lowering pass guaranteed at build
time:

* every op ``kind`` has a row, so it resolves to a handler (what :func:`link`
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
  kinds chainable, constituent immediates well-shaped, and the chain's
  composed stack effect plausible (composed from the rows' ``(pops,
  pushes)`` -- a chain whose interior would underflow the depth the chain
  itself established is structurally impossible output of the miner).

What each kind's immediate, width and stack effect must be is read from its
row of :data:`repro.wasm.ir.OPS`.

Entry points return a :class:`~repro.analysis.findings.Report`; nothing here
raises on bad input -- malformed structures become findings, so a corrupt
cache artifact yields a diagnostic, not a crash.  ``deserialize_lowered(...,
verify=True)`` routes through :func:`verify_payload` and converts errors to
:class:`~repro.wasm.errors.ValidationError`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.findings import Report
from repro.wasm.ir import CHAINABLE, MINED, OPS, _is_int
from repro.wasm.lowering import IR_VERSION, LoweredFunction


def chain_stack_effect(kinds: Sequence[str]) -> Tuple[int, int]:
    """Composed ``(pops, pushes)`` of a chain: the depth of caller stack it
    consumes and what it leaves, by running the per-kind effects in order."""
    depth = 0      # net stack change so far
    needed = 0     # deepest reach below the entry stack level
    for kind in kinds:
        pops, pushes = OPS[kind].effect
        depth -= pops
        needed = min(needed, depth)
        depth += pushes
    return -needed, depth - needed


class _OpsChecker:
    """One linear verification pass over a function's serial op array."""

    def __init__(self, report: Report, ops: List[Tuple[str, Any]], loc: str):
        self.report = report
        self.ops = ops
        self.loc = loc
        self.n = len(ops)
        self.open_frames = 0       # explicit block/loop/if frames open here
        self.pending_pads = 0      # interior slots owed by the last fused op
        self.kind = ""             # the kind whose immediate is being checked

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

    # ------------------------------------------------------------ per-kind imm

    def _check_imm(self, pc: int, kind: str, imm: Any) -> None:
        self.kind = kind
        OPS[kind].check(self, pc, imm)

    def _check_mined(self, pc: int, imm: Any) -> int:
        """Validate one mined chain; returns its slot width (1 on malformed
        input, so the pass resynchronizes at the next op)."""
        if not isinstance(imm, (tuple, list)) or len(imm) != 2:
            self._err(pc, "bad-immediate",
                      f"{MINED} immediate must be a 2-tuple, got {imm!r}")
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
            if not isinstance(kind, str) or kind not in CHAINABLE:
                self._err(pc, "unchainable-kind",
                          f"fused.mined constituent {k} ({kind!r}) is not a "
                          "chainable op kind", chain=list(kinds))
                ok = False
            else:
                self._check_imm(pc, kind, imms[k])
        if ok:
            # The width is the chain length (the main walk checks the pads
            # that follow); the composed stack effect must be plausible.
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
            if kind != MINED and kind not in OPS:
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
            if kind == MINED:
                width = self._check_mined(pc, imm)
            else:
                width = OPS[kind].width
                self._check_imm(pc, kind, imm)
            if width > 1:
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
            if not isinstance(kind, str) or kind not in CHAINABLE:
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
