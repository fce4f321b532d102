"""Microbenchmark: bulk-memory and SIMD v128 vs their scalar-loop equivalents.

``memory.copy``/``memory.fill`` execute as single bytearray slice operations
in the interpreter, so one dispatch replaces an n-iteration per-byte guest
loop; this benchmark pits them against that exact loop and asserts the
acceptance bar of the vectorization work: **>= 10x** the scalar per-byte
path.  The SIMD half runs an ``i32x4.add`` kernel against the per-word
scalar loop -- one v128 dispatch does four lanes of work (but costs more
than a scalar dispatch), so the floor there is **>= 1.8x**.

Results land in ``BENCH_bulk_simd.json`` at the repository root when
``REPRO_BENCH_WRITE=1`` is set; a plain run only asserts the floors.  Set
``REPRO_BENCH_SMOKE=1`` for the reduced CI sizes.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import record_trajectory, report
from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module
from repro.wasm.interpreter import Interpreter

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
COPY_BYTES = 4_096 if SMOKE else 65_536
SIMD_WORDS = 1_024 if SMOKE else 16_384      # i32 lanes; /4 = vector count
# Same noise posture as test_interpreter_throughput: best-of over interleaved
# rounds, stopping early once the asserted ratios hold (extra rounds can
# rescue a loaded host, never mask a genuinely slow implementation).
BEST_OF = 3
MAX_ROUNDS = 15
MIN_BULK_SPEEDUP = 10.0
MIN_SIMD_SPEEDUP = 1.8


def build_bulk_simd_module():
    mb = ModuleBuilder(name="bulk-simd-bench")
    mb.add_memory(4)

    f = mb.function("copy_bulk", params=[("dst", "i32"), ("src", "i32"), ("n", "i32")],
                    results=[], export=True)
    f.get("dst").get("src").get("n").emit("memory.copy")

    f = mb.function("fill_bulk", params=[("dst", "i32"), ("v", "i32"), ("n", "i32")],
                    results=[], export=True)
    f.get("dst").get("v").get("n").emit("memory.fill")

    f = mb.function("copy_scalar", params=[("dst", "i32"), ("src", "i32"), ("n", "i32")],
                    results=[], export=True)
    f.add_local("i", "i32")
    with f.for_range("i", end_local="n"):
        f.get("dst").get("i").emit("i32.add")
        f.get("src").get("i").emit("i32.add").load("i32.load8_u")
        f.store("i32.store8")

    f = mb.function("add_simd", params=[("a", "i32"), ("b", "i32"),
                                        ("out", "i32"), ("nvec", "i32")],
                    results=[], export=True)
    f.add_local("i", "i32")
    f.add_local("off", "i32")
    with f.for_range("i", end_local="nvec"):
        f.get("i").i32_const(4).emit("i32.shl").set("off")
        f.get("out").get("off").emit("i32.add")
        f.get("a").get("off").emit("i32.add").load("v128.load")
        f.get("b").get("off").emit("i32.add").load("v128.load")
        f.emit("i32x4.add")
        f.store("v128.store")

    f = mb.function("add_scalar", params=[("a", "i32"), ("b", "i32"),
                                          ("out", "i32"), ("n", "i32")],
                    results=[], export=True)
    f.add_local("i", "i32")
    f.add_local("off", "i32")
    with f.for_range("i", end_local="n"):
        f.get("i").i32_const(2).emit("i32.shl").set("off")
        f.get("out").get("off").emit("i32.add")
        f.get("a").get("off").emit("i32.add").load("i32.load")
        f.get("b").get("off").emit("i32.add").load("i32.load")
        f.emit("i32.add")
        f.store("i32.store")

    module = mb.build()
    validate_module(module)
    return module


#: (name, export, args) per timed kernel.  Region layout inside the 4-page
#: memory: src bytes at 0, dst at 80 KiB; SIMD operands a/b at 0/COPY_BYTES,
#: output at 160 KiB.  All regions are disjoint.
def _kernels():
    return {
        "copy_bulk": ("copy_bulk", (81_920, 0, COPY_BYTES)),
        "copy_scalar": ("copy_scalar", (81_920, 0, COPY_BYTES)),
        "fill_bulk": ("fill_bulk", (81_920, 0xA5, COPY_BYTES)),
        "add_simd": ("add_simd", (0, COPY_BYTES, 163_840, SIMD_WORDS // 4)),
        "add_scalar": ("add_scalar", (0, COPY_BYTES, 163_840, SIMD_WORDS)),
    }


def _ratios_met(best):
    return (
        best["copy_scalar"] >= MIN_BULK_SPEEDUP * best["copy_bulk"]
        and best["copy_scalar"] >= MIN_BULK_SPEEDUP * best["fill_bulk"]
        and best["add_scalar"] >= MIN_SIMD_SPEEDUP * best["add_simd"]
    )


@pytest.fixture(scope="module")
def bulk_simd_times():
    module = build_bulk_simd_module()
    instance = Instance(module, ImportObject(), executor=Interpreter())
    memory = instance.memory
    memory.write(0, bytes(i & 0xFF for i in range(COPY_BYTES)))
    kernels = _kernels()
    best = {name: float("inf") for name in kernels}
    for name, (export, args) in kernels.items():   # warm-up (lazy lowering)
        instance.invoke(export, *args)
    for round_no in range(MAX_ROUNDS):
        for name, (export, args) in kernels.items():
            start = time.perf_counter()
            instance.invoke(export, *args)
            elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed)
        if round_no + 1 >= BEST_OF and _ratios_met(best):
            break
    # Correctness cross-check: the bulk copy really moved the source bytes.
    instance.invoke("copy_bulk", 81_920, 0, COPY_BYTES)
    assert memory.read(81_920, 64) == memory.read(0, 64)
    return best


def test_bulk_memory_beats_scalar_loop_10x(bulk_simd_times):
    t = bulk_simd_times
    copy_speedup = t["copy_scalar"] / t["copy_bulk"]
    fill_speedup = t["copy_scalar"] / t["fill_bulk"]
    simd_speedup = t["add_scalar"] / t["add_simd"]

    payload = {
        "copy_bytes": COPY_BYTES,
        "simd_words": SIMD_WORDS,
        "smoke": SMOKE,
        "seconds": dict(t),
        "memory_copy_speedup_over_scalar": copy_speedup,
        "memory_fill_speedup_over_scalar": fill_speedup,
        "simd_i32x4_speedup_over_scalar": simd_speedup,
    }
    record_trajectory("BENCH_bulk_simd.json", payload)

    report(
        "Bulk memory + SIMD vs scalar loops (interpreter)",
        [f"{name:<12s} {seconds * 1e6:>10.1f} us" for name, seconds in t.items()]
        + [f"memory.copy speedup: {copy_speedup:.1f}x",
           f"memory.fill speedup: {fill_speedup:.1f}x",
           f"i32x4.add   speedup: {simd_speedup:.1f}x"],
    )

    assert copy_speedup >= MIN_BULK_SPEEDUP, (
        f"memory.copy only {copy_speedup:.1f}x over the per-byte loop "
        f"(need >= {MIN_BULK_SPEEDUP}x)"
    )
    assert fill_speedup >= MIN_BULK_SPEEDUP, (
        f"memory.fill only {fill_speedup:.1f}x over the per-byte loop "
        f"(need >= {MIN_BULK_SPEEDUP}x)"
    )
    assert simd_speedup >= MIN_SIMD_SPEEDUP, (
        f"i32x4.add only {simd_speedup:.1f}x over the per-word loop "
        f"(need >= {MIN_SIMD_SPEEDUP}x)"
    )
