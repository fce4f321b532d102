"""Counted call budget of the decoder and the validator (deterministic, untimed).

Wall time on a shared host does not resolve a decoder regression; the number of
Python and C calls per decoded or validated instruction does, exactly and
repeatably.  The module is built here in the shape of the end-to-end
``compile-big`` module: straight-line i32 ALU runs through locals, an
``if``/``else`` and a counted store loop per block.
"""

from __future__ import annotations

import random
import sys

from repro.wasm import ModuleBuilder, decode_module, encode_module, validate_module

_ALU = ("i32.add", "i32.sub", "i32.xor", "i32.or", "i32.and")


def _budget_module(seed: int = 5, functions: int = 4, blocks: int = 6):
    rng = random.Random(seed)
    mb = ModuleBuilder(name="budget")
    mb.add_memory(min_pages=1, max_pages=1)
    for k in range(functions):
        f = mb.function(f"f{k}", params=[("x", "i32"), ("n", "i32")], results=["i32"])
        f.add_local("a", "i32")
        f.add_local("b", "i32")
        f.add_local("i", "i32")
        f.get("x").set("a")
        f.i32_const(rng.randrange(128, 8192)).set("b")
        for _ in range(blocks):
            for _ in range(6):
                dst, src = rng.choice((("a", "b"), ("b", "a")))
                f.get(dst).get(src).emit(rng.choice(_ALU))
                f.i32_const(rng.randrange(128, 8192)).emit(rng.choice(_ALU)).set(dst)
            f.get("a").i32_const(1).emit("i32.and")
            with f.if_():
                f.get("b").i32_const(rng.randrange(128, 8192)).emit(rng.choice(_ALU)).set("b")
                f.else_()
                f.get("a").i32_const(rng.randrange(128, 8192)).emit(rng.choice(_ALU)).set("a")
            with f.for_range("i", end_local="n"):
                f.get("i").i32_const(4).emit("i32.mul")
                f.get("a").get("i").emit(rng.choice(_ALU))
                f.store("i32.store", offset=rng.randrange(128, 8192))
                f.get("a").get("b").emit(rng.choice(_ALU)).set("a")
        f.get("a").get("b").emit("i32.xor")
    return mb.build()


def _calls(fn) -> int:
    """Python and C calls made while running ``fn()`` on this thread."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_decode_and_validate_stay_within_half_the_table_less_call_count():
    """Calls per instruction: decode at most 5.815 and validate at most 3.81.

    Before the per-opcode tables (one if-chain per instruction in each), this
    module cost 11.63 calls per instruction to decode and 7.62 to validate
    (the 66 740-byte ``compile-big`` module: 11.49 and 7.60).  Each bound is
    half of that: a regression that brings back per-instruction dispatch
    through helpers fails here without a wall-clock floor.
    """
    data = encode_module(_budget_module())
    module = decode_module(data)
    n_instr = sum(len(f.body) for f in module.functions)
    assert n_instr > 1000

    decode_per_instr = _calls(lambda: decode_module(data)) / n_instr
    validate_per_instr = _calls(lambda: validate_module(module)) / n_instr
    assert decode_per_instr <= 11.63 / 2, decode_per_instr
    assert validate_per_instr <= 7.62 / 2, validate_per_instr
