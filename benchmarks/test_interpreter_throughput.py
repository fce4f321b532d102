"""Dispatch microbenchmark: interpreter instructions/sec per back-end.

Runs a hot arithmetic loop with a statically known dynamic instruction count
under every back-end *and* under the pre-refactor string-dispatch interpreter
(:mod:`benchmarks._baseline_interpreter`).  Under ``REPRO_BENCH_WRITE=1`` the
achieved instructions/sec are written to ``BENCH_interpreter.json`` at the
repository root -- the perf-trajectory record for the execution core; a plain
run only asserts the floors and leaves the committed file untouched.

The acceptance bar of the lowering refactor is asserted here: the
interpreter (Singlepass: threaded dispatch over the lowered IR) must retire
at least 2x the instructions/sec of the pre-refactor interpreter.  Cranelift
and LLVM run generated code and are recorded beside it.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced iteration count (the CI smoke
mode).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._baseline_interpreter import BaselineInterpreter
from benchmarks.conftest import record_trajectory, report
from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module
from repro.wasm.compilers import get_backend

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
LOOP_ITERATIONS = 2_000 if SMOKE else 20_000
# Best-of-N is robust to scheduler noise (contention only ever slows a run).
# Rounds stop early once every asserted floor is met, so MAX_ROUNDS only
# bounds a loaded host -- extra rounds can rescue a noisy run, never mask a
# genuinely slow build.
BEST_OF = 3
MAX_ROUNDS = 20

#: Absolute instructions/sec floors for the perf trajectory.  The baseline
#: floor rose with the PR-7 dispatch-hygiene pass on the string-dispatch
#: interpreter; the LLVM floor with the stack-to-expression peephole, inline
#: signed comparisons and loop back-edge fusion.
BASELINE_FLOOR = 2_500_000
LLVM_FLOOR = 30_000_000
MIN_SINGLEPASS_SPEEDUP = 2.0

#: Dynamic instructions per loop iteration of the ``hot`` function below:
#: 4 for the exit check (get i, get n, ge_s, br_if), 8 for the body
#: (get acc, get i, add, get i, const, shl, xor, set acc) and 5 for the
#: increment-and-repeat (get i, const, add, set i, br).
INSTRS_PER_ITERATION = 17


def build_hot_loop_module():
    """A module whose ``hot(n)`` runs n iterations of a pure-ALU loop body."""
    mb = ModuleBuilder(name="dispatch-throughput")
    f = mb.function("hot", params=[("n", "i32")], results=["i32"], export=True)
    f.add_local("i", "i32")
    f.add_local("acc", "i32")
    with f.for_range("i", end_local="n"):
        # acc = (acc + i) ^ (i << 1)
        f.get("acc").get("i").emit("i32.add")
        f.get("i").i32_const(1).emit("i32.shl")
        f.emit("i32.xor").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return module


def _floors_met(rows) -> bool:
    baseline = rows["baseline"]["instructions_per_second"]
    return (
        baseline >= BASELINE_FLOOR
        and rows["llvm"]["instructions_per_second"] >= LLVM_FLOOR
        and rows["singlepass"]["instructions_per_second"]
        >= MIN_SINGLEPASS_SPEEDUP * baseline
    )


@pytest.fixture(scope="module")
def throughput_rows():
    module = build_hot_loop_module()
    instances = {"baseline": Instance(module, ImportObject(),
                                      executor=BaselineInterpreter())}
    for name in ("singlepass", "cranelift", "llvm"):
        compiled = get_backend(name).compile(module)
        instances[name] = Instance(module, ImportObject(),
                                   executor=compiled.make_executor())
    rows = {}
    for name, instance in instances.items():
        [expected] = instance.invoke("hot", 64)  # warm up (lazy lowering, caches)
        rows[name] = {"seconds": float("inf"), "warmup_result": expected}
    dynamic_instructions = LOOP_ITERATIONS * INSTRS_PER_ITERATION
    # Interleave the executors round by round so scheduler interference hits
    # all of them roughly equally, and keep the best round per executor.
    for round_no in range(MAX_ROUNDS):
        for name, instance in instances.items():
            row = rows[name]
            start = time.perf_counter()
            [result] = instance.invoke("hot", LOOP_ITERATIONS)
            elapsed = time.perf_counter() - start
            if elapsed < row["seconds"]:
                row["seconds"] = elapsed
                row["instructions_per_second"] = dynamic_instructions / elapsed
            row["result"] = result
        if round_no + 1 >= BEST_OF and _floors_met(rows):
            break
    return rows


def test_all_backends_agree_on_hot_loop(throughput_rows):
    results = {name: row["result"] for name, row in throughput_rows.items()}
    assert len(set(results.values())) == 1, f"hot-loop results diverge: {results}"


def test_dispatch_throughput_and_write_trajectory(throughput_rows):
    """The interpreter must retire >= 2x the baseline's instructions/sec."""
    payload = {
        "loop_iterations": LOOP_ITERATIONS,
        "instructions_per_iteration": INSTRS_PER_ITERATION,
        "dynamic_instructions": LOOP_ITERATIONS * INSTRS_PER_ITERATION,
        "smoke": SMOKE,
        "backends": {
            name: {
                "seconds": row["seconds"],
                "instructions_per_second": row["instructions_per_second"],
            }
            for name, row in throughput_rows.items()
        },
    }
    baseline_ips = throughput_rows["baseline"]["instructions_per_second"]
    singlepass_ips = throughput_rows["singlepass"]["instructions_per_second"]
    payload["singlepass_speedup_over_baseline"] = singlepass_ips / baseline_ips

    record_trajectory("BENCH_interpreter.json", payload)

    report(
        "Interpreter dispatch throughput (instructions/sec)",
        [
            f"{name:<11s} {row['instructions_per_second']:>12.0f} instr/s"
            f"   ({row['seconds'] * 1e3:.2f} ms)"
            for name, row in throughput_rows.items()
        ]
        + [f"singlepass speedup over pre-refactor baseline: "
           f"{payload['singlepass_speedup_over_baseline']:.2f}x"],
    )

    assert singlepass_ips >= MIN_SINGLEPASS_SPEEDUP * baseline_ips, (
        f"threaded dispatch must be >= {MIN_SINGLEPASS_SPEEDUP}x the "
        f"pre-refactor interpreter (got {singlepass_ips / baseline_ips:.2f}x)"
    )
    # Absolute perf-trajectory floors (PR 7): the optimised baseline and the
    # peephole-folded LLVM backend must not regress below these marks.
    assert baseline_ips >= BASELINE_FLOOR, (
        f"baseline interpreter fell below its floor: "
        f"{baseline_ips:.0f} < {BASELINE_FLOOR} instr/s"
    )
    assert throughput_rows["llvm"]["instructions_per_second"] >= LLVM_FLOOR, (
        f"llvm backend fell below its floor: "
        f"{throughput_rows['llvm']['instructions_per_second']:.0f} "
        f"< {LLVM_FLOOR} instr/s"
    )
    # Table 1 ordering within the refactored core: generated code (Cranelift,
    # LLVM) beats the interpreting Singlepass on the same hot loop.
    for name in ("cranelift", "llvm"):
        assert throughput_rows[name]["instructions_per_second"] > singlepass_ips, name
