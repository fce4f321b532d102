"""Differential fuzzing: the three back-ends agree bit-for-bit on the new IR.

Generates small random (seeded, fully deterministic) arithmetic/control-flow
modules through :mod:`repro.wasm.builder`, runs them under Singlepass,
Cranelift and LLVM, and asserts identical results.  The generator emits by
construction-valid, trap-free code (no division/truncation), so any
divergence is a genuine lowering or code-generation bug.

Two extra corpora cover the PR-7 surface: v128 lane modules (splat, lane
arithmetic/comparisons, extract/replace lane) and bulk-memory modules
(``memory.copy``/``memory.fill``, including overlapping ranges).  Those are
additionally executed under the plain interpreter with a *mined* fusion
table applied, so profile-guided superinstructions are in the bit-for-bit
contract too.
"""

from __future__ import annotations

import random

import pytest

from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module
from repro.wasm.compilers import get_backend
from repro.wasm.interpreter import Interpreter
from repro.wasm.lowering import (
    apply_fusion_table,
    lower_module,
    mine_superinstructions,
)

BACKENDS = ("singlepass", "cranelift", "llvm")

#: Trap-free i32 binary operators the generator draws from.
_BINARY = (
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor",
    "i32.shl", "i32.shr_u", "i32.shr_s", "i32.rotl", "i32.rotr",
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
    "i32.le_s", "i32.ge_u",
)

#: Trap-free i32 unary operators.
_UNARY = ("i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz", "i32.extend8_s", "i32.extend16_s")

_LOCALS = ("v0", "v1", "v2", "v3")


class _ModuleFuzzer:
    """Emits one random function body through a FunctionBuilder."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.mb = ModuleBuilder(name=f"fuzz-{seed}")
        self.mb.add_memory(1)
        self.f = self.mb.function(
            "fuzz", params=[("a", "i32"), ("b", "i32")], results=["i32"], export=True
        )
        for name in _LOCALS:
            self.f.add_local(name, "i32")
        self.f.add_local("loop_i", "i32")
        self.f.add_local("loop_end", "i32")

    # ---------------------------------------------------------- expressions

    def expr(self, depth: int) -> None:
        """Emit instructions leaving exactly one i32 on the stack."""
        rng = self.rng
        if depth <= 0:
            kind = rng.randrange(3)
        else:
            kind = rng.randrange(5)
        if kind == 0:
            self.f.i32_const(rng.randrange(-(2**31), 2**31))
        elif kind == 1:
            self.f.get(rng.choice(("a", "b")))
        elif kind == 2:
            self.f.get(rng.choice(_LOCALS))
        elif kind == 3:
            self.expr(depth - 1)
            self.f.emit(rng.choice(_UNARY))
        else:
            self.expr(depth - 1)
            self.expr(depth - 1)
            self.f.emit(rng.choice(_BINARY))

    # ----------------------------------------------------------- statements

    def stmt(self, allow_loop: bool = True) -> None:
        rng = self.rng
        kind = rng.randrange(5 if allow_loop else 4)
        if kind == 0:
            self.expr(2)
            self.f.set(rng.choice(_LOCALS))
        elif kind == 1:
            # if/else assigning different locals in each arm.
            self.expr(2)
            with self.f.if_():
                self.expr(1)
                self.f.set(rng.choice(_LOCALS))
                if rng.random() < 0.7:
                    self.f.else_()
                    self.expr(1)
                    self.f.set(rng.choice(_LOCALS))
        elif kind == 2:
            # Store to a fixed in-page address, load back into a local.
            addr = rng.randrange(0, 1024) * 4
            self.f.i32_const(addr)
            self.expr(1)
            self.f.store("i32.store")
            self.f.i32_const(addr)
            self.f.load("i32.load")
            self.f.set(rng.choice(_LOCALS))
        elif kind == 3:
            # block with a conditional early exit.
            with self.f.block():
                self.expr(1)
                self.f.br_if(0)
                self.expr(1)
                self.f.set(rng.choice(_LOCALS))
        else:
            # Bounded counted loop mutating a local each iteration.
            self.f.i32_const(rng.randrange(2, 6)).set("loop_end")
            with self.f.for_range("loop_i", end_local="loop_end"):
                for _ in range(rng.randrange(1, 3)):
                    self.stmt(allow_loop=False)

    def build(self):
        for _ in range(self.rng.randrange(4, 9)):
            self.stmt()
        # Fold everything observable into the result.
        self.f.get("a")
        for name in _LOCALS:
            self.f.get(name).emit("i32.xor")
        module = self.mb.build()
        validate_module(module)
        return module


@pytest.mark.parametrize("seed", range(12))
def test_backends_bit_for_bit_identical(seed):
    module = _ModuleFuzzer(seed).build()
    inputs = [(0, 0), (1, 2), (0xFFFFFFFF, 7), (123456789, 0x80000000), (2**31 - 1, 2**31)]
    results = {}
    for name in BACKENDS:
        backend = get_backend(name)
        compiled = backend.compile(module)
        instance = Instance(module, ImportObject(), executor=backend.executor_for(compiled))
        results[name] = [instance.invoke("fuzz", a, b) for a, b in inputs]
    assert results["singlepass"] == results["cranelift"] == results["llvm"], (
        f"seed {seed}: back-ends diverge: {results}"
    )


@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), -0.0, 1.5e308, 6.25]
)
def test_non_finite_float_constants_agree(value):
    """repr() of inf/-inf/nan in generated code must still evaluate (LLVM)."""
    mb = ModuleBuilder(name="float-consts")
    f = mb.function("k", params=[("x", "f64")], results=["f64"], export=True)
    f.f64_const(value).get("x").emit("f64.add")
    module = mb.build()
    validate_module(module)
    results = []
    for name in BACKENDS:
        backend = get_backend(name)
        instance = Instance(module, ImportObject(),
                            executor=backend.executor_for(backend.compile(module)))
        [r] = instance.invoke("k", 1.0)
        results.append(r)
    # Compare by bit pattern so NaN results also count as equal.
    import struct as _struct

    bits = {_struct.pack("<d", r) for r in results}
    assert len(bits) == 1, f"backends diverge on f64.const {value!r}: {results}"


def _all_executor_results(module, export, inputs):
    """Results per executor: interpreter, interpreter+mined fusion, back-ends."""
    results = {}
    plain = lower_module(module)
    instance = Instance(module, ImportObject(), executor=Interpreter(lowered=plain))
    results["interpreter"] = [instance.invoke(export, *args) for args in inputs]

    fused = lower_module(module)
    table = mine_superinstructions(fused, min_occurrences=1)
    formed = apply_fusion_table(fused, table)
    instance = Instance(module, ImportObject(), executor=Interpreter(lowered=fused))
    results["interpreter+mined"] = [instance.invoke(export, *args) for args in inputs]

    for name in BACKENDS:
        backend = get_backend(name)
        compiled = backend.compile(module)
        instance = Instance(module, ImportObject(),
                            executor=backend.executor_for(compiled))
        results[name] = [instance.invoke(export, *args) for args in inputs]
    return results, formed


def _assert_all_agree(results, label):
    reference = results["interpreter"]
    for name, rows in results.items():
        assert rows == reference, (
            f"{label}: {name} diverges from the interpreter:\n"
            f"  {name}: {rows}\n  interpreter: {reference}"
        )


_V128_BIN = (
    "i32x4.add", "i32x4.sub", "i32x4.mul",
    "i32x4.eq", "i32x4.ne", "i32x4.lt_s", "i32x4.gt_u",
    "i32x4.le_s", "i32x4.ge_u",
    "v128.and", "v128.or", "v128.xor",
)

_V128_UN = ("i32x4.neg", "i32x4.abs", "v128.not")


def _v128_module(seed: int):
    """A seeded module mixing splats, lane ops and extract/replace lanes."""
    rng = random.Random(seed ^ 0x5E1F)
    mb = ModuleBuilder(name=f"v128-fuzz-{seed}")
    mb.add_memory(1)
    f = mb.function("vfuzz", params=[("a", "i32"), ("b", "i32")],
                    results=["i32"], export=True)
    f.add_local("x", "v128")
    f.add_local("y", "v128")
    f.get("a").emit("i32x4.splat").set("x")
    f.get("b").emit("i32x4.splat").set("y")
    for _ in range(rng.randrange(4, 9)):
        kind = rng.randrange(4)
        if kind == 0:
            f.get("x").get("y").emit(rng.choice(_V128_BIN)).set("x")
        elif kind == 1:
            f.get(rng.choice(("x", "y"))).emit(rng.choice(_V128_UN)).set("y")
        elif kind == 2:
            # Replace one lane of x with a scalar derived from a lane of y.
            f.get("x")
            f.get("y").emit("i32x4.extract_lane", rng.randrange(4))
            f.i32_const(rng.randrange(-(2**31), 2**31)).emit("i32.xor")
            f.emit("i32x4.replace_lane", rng.randrange(4))
            f.set("x")
        else:
            # Round-trip through linear memory (v128.store / v128.load).
            addr = rng.randrange(0, 256) * 16
            f.i32_const(addr).get("x").store("v128.store")
            f.i32_const(addr).load("v128.load").set("y")
    # Fold all four lanes of x into the scalar result.
    f.get("x").emit("i32x4.extract_lane", 0)
    for lane in (1, 2, 3):
        f.get("x").emit("i32x4.extract_lane", lane).emit("i32.xor")
    module = mb.build()
    validate_module(module)
    return module


@pytest.mark.parametrize("seed", range(8))
def test_v128_lane_modules_bit_for_bit(seed):
    module = _v128_module(seed)
    inputs = [(0, 0), (1, -1), (0x7FFFFFFF, 0x80000000), (123456789, 42)]
    results, _formed = _all_executor_results(module, "vfuzz", inputs)
    _assert_all_agree(results, f"v128 seed {seed}")


def _bulk_memory_module(seed: int):
    """A seeded module of fills, (overlapping) copies, and a checksum loop."""
    rng = random.Random(seed ^ 0xB17C)
    mb = ModuleBuilder(name=f"bulk-fuzz-{seed}")
    mb.add_memory(1)
    f = mb.function("blk", params=[("a", "i32"), ("b", "i32")],
                    results=["i32"], export=True)
    f.add_local("acc", "i32")
    f.add_local("i", "i32")
    f.add_local("end", "i32")
    for _ in range(rng.randrange(4, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            # memory.fill: value comes from a parameter (low byte is used).
            dst = rng.randrange(0, 1024) * 4
            f.i32_const(dst).get(rng.choice(("a", "b")))
            f.i32_const(rng.randrange(0, 512)).emit("memory.fill")
        elif kind == 1:
            # memory.copy with ranges that may overlap in either direction.
            dst = rng.randrange(0, 1024) * 4
            src = rng.randrange(max(0, dst // 4 - 64), 1024) * 4
            f.i32_const(dst).i32_const(src)
            f.i32_const(rng.randrange(0, 512)).emit("memory.copy")
        else:
            # Seed some non-uniform bytes so copies move real data around.
            addr = rng.randrange(0, 1024) * 4
            f.i32_const(addr).get("a").get("b").emit("i32.xor")
            f.i32_const(rng.randrange(-(2**31), 2**31)).emit("i32.add")
            f.store("i32.store")
    # Order-sensitive checksum of the first 4 KiB: acc = rotl(acc, 1) ^ word.
    f.i32_const(1024).set("end")
    with f.for_range("i", end_local="end"):
        f.get("acc").i32_const(1).emit("i32.rotl")
        f.get("i").i32_const(2).emit("i32.shl").load("i32.load")
        f.emit("i32.xor").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return module


@pytest.mark.parametrize("seed", range(8))
def test_bulk_memory_modules_bit_for_bit(seed):
    module = _bulk_memory_module(seed)
    inputs = [(0, 0), (0xAB, 0xCD), (0xFFFFFFFF, 1), (77, 0x12345678)]
    results, _formed = _all_executor_results(module, "blk", inputs)
    _assert_all_agree(results, f"bulk-memory seed {seed}")


def _carrying_branch_module(seed: int):
    """A seeded module of blocks left by value-carrying ``br``, ``br_if``,
    ``br_table`` and ``return`` over operands the branch must drop, with
    dead code (a nested block included) after every unconditional branch;
    also a loop re-entered from a block inside it, and a ``br_table`` whose
    targets include the function's own label."""
    rng = random.Random(seed ^ 0xCA77)
    mb = ModuleBuilder(name=f"carry-fuzz-{seed}")
    mb.add_global("g", "i32", 0)
    side = mb.function("side", params=[("x", "i32")], results=[])
    with side.block():
        with side.block():
            side.get("x").i32_const(3).emit("i32.and")
            side.emit("br_table", (0, 1, 2), 0)
        side.emit("global.get", "g").i32_const(1).emit("i32.add").emit("global.set", "g")
    side.emit("global.get", "g").i32_const(10).emit("i32.add").emit("global.set", "g")
    f = mb.function("carry", params=[("a", "i32"), ("b", "i32")],
                    results=["i32"], export=True)
    f.add_local("acc", "i32")
    f.add_local("n", "i32")
    for name in _LOCALS:
        f.add_local(name, "i32")
    fuzzer = _ModuleFuzzer(seed)              # its expressions, into this function
    fuzzer.f = f

    def dead_code():
        with f.block():
            f.i32_const(rng.randrange(2**31)).br_if(0)
        f.i32_const(rng.randrange(2**31)).get("b").emit(rng.choice(_BINARY))

    for _ in range(rng.randrange(3, 7)):
        kind = rng.randrange(6)
        f.get("acc")                          # an operand beneath every block
        if kind == 0:                         # br over an extra operand
            with f.block("i32"):
                f.get("a")
                fuzzer.expr(1)
                f.br(0)
                dead_code()
        elif kind == 1:                       # br_if: carried if taken, kept if not
            with f.block("i32"):
                f.get("b")
                fuzzer.expr(1)
                fuzzer.expr(1)
                f.br_if(0)
                f.emit(rng.choice(_BINARY))
        elif kind == 2:                       # br_table to two heights
            with f.block("i32"):
                f.get("b")
                with f.block("i32"):
                    f.get("a")
                    fuzzer.expr(1)
                    fuzzer.expr(1)
                    f.i32_const(3).emit("i32.and")
                    f.emit("br_table", (0, 1, 0), 1)
                    dead_code()
                f.emit(rng.choice(_BINARY))
        elif kind == 3:                       # a return from inside an if
            fuzzer.expr(1)
            with f.if_():
                f.get("b")
                fuzzer.expr(1)
                f.ret()
                dead_code()
                f.drop()
            f.get("a")
        elif kind == 4:                       # a loop re-entered from a block in it
            f.get("b").i32_const(7).emit("i32.and").set("n")
            with f.loop():
                with f.block():
                    f.get("n").emit("i32.eqz").br_if(0)
                    f.get("n").i32_const(1).emit("i32.sub").set("n")
                    f.get("a").get("n").emit(rng.choice(_BINARY)).set("v0")
                    f.br(1)
                    dead_code()
                    f.drop()
            f.get("v0")
        else:                                 # br_table to two blocks and the function
            f.get("a").get("acc").emit("i32.add").call("side")
            f.emit("global.get", "g")
        f.emit("i32.xor").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return module


@pytest.mark.parametrize("seed", range(12))
def test_value_carrying_branches_bit_for_bit(seed):
    module = _carrying_branch_module(seed)
    inputs = [(0, 0), (1, 2), (0xFFFFFFFF, 7), (123456789, 0x80000000), (3, 0)]
    results, _formed = _all_executor_results(module, "carry", inputs)
    _assert_all_agree(results, f"carry seed {seed}")


def test_carrying_corpus_covers_every_branch_shape():
    kinds = set()
    for seed in range(12):
        for lowered in lower_module(_carrying_branch_module(seed)):
            kinds.update(kind for kind, _imm in lowered.ops)
    assert {"br", "br_table", "return", "loop", "call"} <= kinds
    assert kinds & {"br_if", "fused.cmp_br_if", "fused.eqz_br_if"}


def test_extended_corpus_forms_mined_chains():
    """The mined-fusion leg must actually fuse something across the corpus."""
    total = 0
    for seed in range(8):
        for module, export in ((_v128_module(seed), "vfuzz"),
                               (_bulk_memory_module(seed), "blk")):
            lowered = lower_module(module)
            table = mine_superinstructions(lowered, min_occurrences=1)
            total += apply_fusion_table(lowered, table)
    assert total > 0, "no mined superinstruction ever applied to the corpus"


def test_fuzz_corpus_exercises_superinstructions():
    """The corpus must actually cover the fused fast paths, not skirt them."""
    fused_kinds = set()
    for seed in range(12):
        module = _ModuleFuzzer(seed).build()
        for lowered in lower_module(module):
            fused_kinds.update(
                kind for kind, _imm in lowered.ops if kind.startswith("fused.")
            )
            fused_kinds.discard("fused.pad")
    assert "fused.get_get_cmp_br_if" in fused_kinds  # for_range exit checks
    assert any(k in fused_kinds for k in ("fused.get_get_bin", "fused.get_const_bin"))
