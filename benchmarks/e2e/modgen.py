"""Seeded generator of the large Wasm module the compile pipeline is timed on.

The bundled guests are ~1.3 KB of Wasm, so decode/validate/lower take about a
millisecond on them; this module is big enough for those layers to dominate.

The *shape* is fixed (same functions, same instruction sequence per function)
and only the choice among equal-cost ALU opcodes and among constants of one
LEB128 width is drawn from the seed.  Every seed therefore yields a module of
the same byte size and the same pipeline cost, so run-to-run spread across
seeds measures the program, not the generator.
"""

from __future__ import annotations

import random

from repro.wasm import Module, ModuleBuilder

#: Opcodes the lowering/codegen layers treat alike (plain i32 binary ops).
_ALU = ("i32.add", "i32.sub", "i32.xor", "i32.or", "i32.and")

#: ``f0`` is exported and calls into every ``_CALL_STRIDE``-th function.
_CALL_STRIDE = 4


def build_big_module(seed: int, functions: int = 20, blocks: int = 24) -> Module:
    """Module of ``functions`` bodies, each ``blocks`` x (ALU run, if/else, store loop).

    ``f0(x, n)`` is exported; it chains through ``f4, f8, ...`` so executing it
    covers several bodies.  ``n`` bounds every store loop (keep it small).
    """
    rng = random.Random(seed)
    mb = ModuleBuilder(name="e2e-compile-big")
    mb.add_memory(min_pages=1, max_pages=1)

    def const() -> int:
        return rng.randrange(128, 8192)        # always a 2-byte signed LEB128

    for k in range(functions):
        f = mb.function(f"f{k}", params=[("x", "i32"), ("n", "i32")],
                        results=["i32"], export=(k == 0))
        f.add_local("a", "i32")
        f.add_local("b", "i32")
        f.add_local("i", "i32")
        f.get("x").set("a")
        f.i32_const(const()).set("b")
        for _ in range(blocks):
            for _ in range(6):                                  # straight-line ALU
                dst, src = rng.choice((("a", "b"), ("b", "a")))
                f.get(dst).get(src).emit(rng.choice(_ALU))
                f.i32_const(const()).emit(rng.choice(_ALU)).set(dst)
            f.get("a").i32_const(1).emit("i32.and")             # data-dependent if/else
            with f.if_():
                f.get("b").i32_const(const()).emit(rng.choice(_ALU)).set("b")
                f.else_()
                f.get("a").i32_const(const()).emit(rng.choice(_ALU)).set("a")
            with f.for_range("i", end_local="n"):               # counted store loop
                f.get("i").i32_const(4).emit("i32.mul")
                f.get("a").get("i").emit(rng.choice(_ALU))
                f.store("i32.store", offset=const())
                f.get("a").get("b").emit(rng.choice(_ALU)).set("a")
        if k % _CALL_STRIDE == 0 and k + _CALL_STRIDE < functions:
            f.get("a").get("n").call(f"f{k + _CALL_STRIDE}").set("a")
        f.get("a").get("b").emit("i32.xor")
    return mb.build()
