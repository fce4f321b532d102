"""Lowered-IR/fusion-table verifier: clean round-trips + mutation corpus."""

from __future__ import annotations

import copy

import pytest

from repro.analysis.ir_verify import (
    chain_stack_effect,
    verify_artifact,
    verify_function,
    verify_fusion_table,
    verify_payload,
)
from repro.wasm import ModuleBuilder, validate_module
from repro.wasm.errors import ValidationError
from repro.wasm.ir import CHAINABLE, OPS
from repro.wasm.lowering import (
    IR_VERSION,
    LoweredFunction,
    apply_fusion_table,
    deserialize_lowered,
    lower_module,
    mine_superinstructions,
    serialize_lowered,
)


def _sum_module():
    mb = ModuleBuilder(name="ir-verify-tests")
    mb.add_memory(1)
    f = mb.function("sum_to", params=[("n", "i32")], results=["i32"], export=True)
    f.add_local("i", "i32")
    f.add_local("acc", "i32")
    with f.for_range("i", end_local="n"):
        f.get("acc").get("i").emit("i32.add").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return module


def _clean_payload():
    return serialize_lowered(lower_module(_sum_module()))


def _mined_payload():
    lowered = lower_module(_sum_module())
    table = mine_superinstructions(lowered, min_occurrences=1)
    assert table, "miner found no chains in the fixture module"
    assert apply_fusion_table(lowered, table) >= 1
    return serialize_lowered(lowered, fusion_table=table)


def _find_op(payload, kind):
    for fi, fn in enumerate(payload["functions"]):
        for pc, op in enumerate(fn["ops"]):
            if op[0] == kind:
                return fi, pc
    raise AssertionError(f"no {kind!r} op in fixture payload")


# ------------------------------------------------------------- clean artifacts


def test_clean_payload_verifies_and_loads_under_verify():
    payload = _clean_payload()
    report = verify_payload(payload)
    assert report.ok and not report.findings, report.format_text(verbose=True)
    rebuilt = deserialize_lowered(payload, verify=True)
    assert rebuilt is not None and len(rebuilt) == 1


def test_mined_payload_verifies_chain_and_table():
    payload = _mined_payload()
    _find_op(payload, "fused.mined")  # the chain really is in the artifact
    report = verify_payload(payload)
    assert report.ok and not report.findings, report.format_text(verbose=True)
    assert deserialize_lowered(payload, verify=True) is not None


def test_non_lowered_artifacts_are_notes_not_errors():
    assert verify_payload({"kind": "module"}).ok
    assert verify_payload(b"not even a dict").ok
    stale = _clean_payload()
    stale["ir_version"] = IR_VERSION + 1
    report = verify_payload(stale)
    assert report.ok
    assert [f.rule for f in report.notes] == ["ir-version-mismatch"]
    # verify_artifact ignores non-lowered artifacts entirely.
    assert len(verify_artifact({"kind": "module", "blob": b"x"})) == 0


# ------------------------------------------------------------ mutation corpus


def _expect_rejection(payload, *rules):
    report = verify_payload(payload)
    assert not report.ok, "mutation was not detected"
    found = {f.rule for f in report.errors}
    assert set(rules) & found, f"expected one of {rules}, got {sorted(found)}"
    with pytest.raises(ValidationError, match="lowered-IR artifact rejected"):
        deserialize_lowered(payload, verify=True)
    return report


def test_out_of_bounds_block_target_is_rejected():
    payload = _clean_payload()
    fi, pc = _find_op(payload, "block")
    payload["functions"][fi]["ops"][pc][1] = [payload["functions"][fi]["ops"][pc][1][0], 99999]
    report = _expect_rejection(payload, "bad-jump-target")
    [finding] = report.errors
    assert f"op {pc}" in finding.location


def test_unknown_simd_op_name_is_rejected():
    # Executing ("simd.bin", "zz.add") raises a bare KeyError from the lane
    # table, not a Trap; the verifier must stop such an artifact first.
    from repro.wasm.ir import SIMD_BINARY_OPS, SIMD_UNARY_OPS

    for kind, name in (("simd.bin", "zz.add"), ("simd.un", "i32x4.bogus"),
                       ("simd.bin", "i32x4.neg"), ("simd.un", "i32x4.add")):
        payload = _clean_payload()
        fi, pc = _find_op(payload, "local.get")
        payload["functions"][fi]["ops"][pc] = [kind, name]
        _expect_rejection(payload, "bad-immediate")
    assert "i32x4.add" in SIMD_BINARY_OPS and "f64x2.sqrt" in SIMD_UNARY_OPS


def test_unknown_op_kind_is_rejected():
    # "f64x2.sqrt" is a bare kind no lowering of this IR version emits
    # (it lowers to ("simd.un", "f64x2.sqrt")).
    for kind in ("i32.frobnicate", "f64x2.sqrt"):
        payload = _clean_payload()
        payload["functions"][0]["ops"][0][0] = kind
        _expect_rejection(payload, "unknown-kind")


def test_bad_branch_depth_is_rejected():
    payload = _clean_payload()
    fi, pc = _find_op(payload, "fused.get_get_cmp_br_if")
    imm = list(payload["functions"][fi]["ops"][pc][1])
    imm[3] = 40  # far deeper than any open control frame
    payload["functions"][fi]["ops"][pc][1] = imm
    _expect_rejection(payload, "bad-branch-depth")


def test_fused_local_index_must_be_an_int():
    # Generated code splices local indices into source text (``L[{a}]``).
    payload = _clean_payload()
    fi, pc = _find_op(payload, "fused.get_get_cmp_br_if")
    imm = list(payload["functions"][fi]["ops"][pc][1])
    imm[1] = "0] + L[0"
    payload["functions"][fi]["ops"][pc][1] = imm
    _expect_rejection(payload, "bad-immediate")


def test_cranelift_verifies_disk_ir_before_generating_source(monkeypatch):
    import builtins

    from repro.wasm import ImportObject, Instance
    from repro.wasm.compilers import llvm
    from repro.wasm.compilers.base import CompiledModule

    module = _sum_module()   # fresh: no in-process lowered IR stashed on it
    payload = _clean_payload()
    fi, pc = _find_op(payload, "local.get")
    injected = "0]); __import__('builtins').__dict__.__setitem__('_wasm_ir_injected', 1); (L[0"
    payload["functions"][fi]["ops"][pc][1] = injected
    generated = []
    generate = llvm._FunctionCodeGen.generate
    monkeypatch.setattr(llvm._FunctionCodeGen, "generate",
                        lambda self: generated.append(self.func_name) or generate(self))
    compiled = CompiledModule(backend_name="cranelift", module=module,
                              compile_seconds=0.0, artifact=payload)
    try:
        with pytest.raises(ValidationError, match="lowered-IR artifact rejected"):
            executor = compiled.make_executor()
            Instance(module, ImportObject(), executor=executor).invoke("sum_to", 3)
        assert generated == []
        assert not hasattr(builtins, "_wasm_ir_injected")
    finally:
        monkeypatch.delattr(builtins, "_wasm_ir_injected", raising=False)


def test_unchainable_kind_in_mined_chain_is_rejected():
    payload = _mined_payload()
    fi, pc = _find_op(payload, "fused.mined")
    kinds, imms = payload["functions"][fi]["ops"][pc][1]
    payload["functions"][fi]["ops"][pc][1] = (["br", *list(kinds)[1:]], list(imms))
    _expect_rejection(payload, "unchainable-kind")


def test_chain_length_mismatch_is_rejected():
    payload = _mined_payload()
    fi, pc = _find_op(payload, "fused.mined")
    kinds, imms = payload["functions"][fi]["ops"][pc][1]
    payload["functions"][fi]["ops"][pc][1] = (list(kinds), list(imms)[:-1])
    _expect_rejection(payload, "bad-chain")


def test_corrupt_fusion_table_is_rejected():
    payload = _mined_payload()
    payload["fusion_table"][0]["kinds"] = ["br", "end"]
    _expect_rejection(payload, "unchainable-kind")
    payload = _mined_payload()
    payload["fusion_table"] = [{"kinds": ["const", "local.set"], "width": 7}]
    _expect_rejection(payload, "bad-fusion-table")
    payload = _mined_payload()
    payload["fusion_table"] = "not-a-table"
    _expect_rejection(payload, "bad-fusion-table")


def test_pad_accounting_catches_stray_and_missing_pads():
    payload = _clean_payload()
    fi, pc = _find_op(payload, "fused.get_get_cmp_br_if")
    # Overwrite the first interior pad with a real op: missing-pad.
    mutated = copy.deepcopy(payload)
    mutated["functions"][fi]["ops"][pc + 1] = ["nop", None]
    _expect_rejection(mutated, "missing-pad")
    # Turn a standalone op into a pad: stray-pad (executing it traps).
    mutated = copy.deepcopy(payload)
    mutated["functions"][fi]["ops"][0] = ["fused.pad", None]
    _expect_rejection(mutated, "stray-pad")


def test_unbalanced_control_is_rejected():
    payload = _clean_payload()
    fi, pc = _find_op(payload, "end")
    ops = payload["functions"][fi]["ops"]
    payload["functions"][fi]["ops"] = ops[:pc] + ops[pc + 1:]
    report = verify_payload(payload)
    assert not report.ok
    assert "unbalanced-control" in {f.rule for f in report.errors}


def test_garbage_structures_become_findings_not_crashes():
    for broken in (
        {"kind": "lowered-ir", "ir_version": IR_VERSION, "functions": "nope"},
        {"kind": "lowered-ir", "ir_version": IR_VERSION, "functions": [{"ops": 3}]},
        {"kind": "lowered-ir", "ir_version": IR_VERSION,
         "functions": [{"ops": [["const"]], "nresults": 1, "local_defaults": []}]},
        {"kind": "lowered-ir", "ir_version": IR_VERSION,
         "functions": [{"ops": [[b"x", 0]], "nresults": "one", "local_defaults": []}]},
    ):
        report = verify_payload(broken)
        assert not report.ok, broken


def test_verify_on_load_default_off_still_loads_corrupt_payloads():
    # Verification is opt-in per call: trusted in-process artifacts load
    # unverified (benchmark fast path); cranelift's disk loads pass verify=True.
    payload = _clean_payload()
    payload["functions"][0]["ops"][0][0] = "i32.frobnicate"
    assert deserialize_lowered(payload) is not None


# -------------------------------------------------------------- chain algebra


#: The ``(pops, pushes)`` of every kind a mined chain may contain.
_CHAIN_EFFECTS = {
    "nop": (0, 0), "drop": (1, 0), "select": (3, 1),
    "local.get": (0, 1), "local.set": (1, 0), "local.tee": (1, 1),
    "global.get": (0, 1), "global.set": (1, 0), "const": (0, 1),
    "bin": (2, 1), "un": (1, 1),
    "load.u": (1, 1), "load.s32": (1, 1), "load.s64": (1, 1),
    "load.f32": (1, 1), "load.f64": (1, 1), "load.v128": (1, 1),
    "store.i": (2, 0), "store.f32": (2, 0), "store.f64": (2, 0), "store.v128": (2, 0),
    "memory.size": (0, 1), "memory.grow": (1, 1), "memory.copy": (3, 0),
    "memory.fill": (3, 0),
    "splat": (1, 1), "extract_lane": (1, 1), "replace_lane": (2, 1),
    "v128.not": (1, 1), "simd.bin": (2, 1), "simd.un": (1, 1),
}


def test_chain_stack_effect_covers_all_chainable_kinds():
    # Chainable is derived from the rows: exactly the kinds with an effect,
    # each a one-slot op; the set and every effect are pinned here.
    assert CHAINABLE == {kind for kind, row in OPS.items() if row.effect is not None}
    assert {kind: OPS[kind].effect for kind in CHAINABLE} == _CHAIN_EFFECTS
    assert all(OPS[kind].width == 1 for kind in CHAINABLE)


def test_chain_stack_effect_composition():
    assert chain_stack_effect(["const", "local.set"]) == (0, 0)
    assert chain_stack_effect(["local.get", "local.get", "bin"]) == (0, 1)
    assert chain_stack_effect(["bin", "local.set"]) == (2, 0)
    assert chain_stack_effect(["drop", "drop"]) == (2, 0)
    assert chain_stack_effect(["local.get", "store.i"]) == (1, 0)


def test_verify_function_flags_bad_nresults():
    fn = LoweredFunction(ops=[("const", 1), ("return", 2)], nresults="x",
                         local_defaults=())
    report = verify_function(fn)
    assert "bad-function" in {f.rule for f in report.errors}


def test_verify_fusion_table_accepts_miner_output():
    lowered = lower_module(_sum_module())
    table = mine_superinstructions(lowered, min_occurrences=1)
    assert verify_fusion_table(table).ok
