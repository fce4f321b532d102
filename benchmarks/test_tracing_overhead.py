"""Overhead gate for the observability subsystem (repro.obs).

The tracing and profiling hooks are designed to be near-zero-cost when
disabled: call sites check a module-level flag *before* building event
arguments, and the interpreter's dispatch loop pays one ``_profile.ACTIVE``
load per function call, not per instruction.  This benchmark enforces that
claim against the recorded perf trajectory: with tracing disabled (the
default), the interpreter (the Singlepass executor; Cranelift and LLVM run
generated code with no dispatch loop) must retire at least 97% of the
instructions/sec floor recorded in ``BENCH_interpreter.json``.

Raw instructions/sec depends on the host, so the floor is machine-
normalised: both runs also measure the pre-refactor baseline interpreter,
and the comparison is made on the singlepass/baseline *ratio* -- a pure
dispatch-efficiency number that cancels host speed (and smoke-mode
iteration counts) out.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced CI iteration count.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

import pytest

from benchmarks._baseline_interpreter import BaselineInterpreter
from benchmarks.conftest import report
from benchmarks.test_interpreter_throughput import (
    INSTRS_PER_ITERATION,
    build_hot_loop_module,
)
from repro.obs import profile as profile_mod
from repro.obs import trace as trace_mod
from repro.obs import profiling
from repro.wasm import ImportObject, Instance
from repro.wasm.compilers import get_backend

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
LOOP_ITERATIONS = 2_000 if SMOKE else 20_000
#: Paired measurement rounds; the gate takes the best round's ratio, so a
#: noisy host only ever *hides* a regression round, never fakes one.  A
#: single clean round settles the gate, so rounds stop early once the
#: target ratio is beaten and MAX_ROUNDS only bounds a loaded host.
ROUNDS = 5
MAX_ROUNDS = 25
#: Tracing-disabled throughput must stay within 3% of the recorded floor.
MAX_REGRESSION = 0.03

FLOORS_PATH = Path(__file__).resolve().parents[1] / "BENCH_interpreter.json"


def _time_once(instance) -> float:
    start = time.perf_counter()
    instance.invoke("hot", LOOP_ITERATIONS)
    return time.perf_counter() - start


def _interpreter_instance(module):
    """An instance on the interpreter: the Singlepass back-end's executor."""
    compiled = get_backend("singlepass").compile(module)
    return Instance(module, ImportObject(), executor=compiled.make_executor())


def _paired_ratio(module, target=None):
    """Best singlepass/baseline throughput ratio over paired rounds.

    Each round times both executors back to back, so host frequency drift
    and scheduler interference hit both sides of the ratio roughly equally
    (timing them in separate phases was measured to swing the ratio by
    >20% on a loaded host).  When ``target`` is given, rounds stop as soon
    as one beats it -- a genuine regression fails every round, so extra
    rounds can only rescue a noisy host, never mask a slow build.
    """
    baseline = Instance(module, ImportObject(), executor=BaselineInterpreter())
    interpreter = _interpreter_instance(module)
    baseline.invoke("hot", 64)                       # warm up both
    interpreter.invoke("hot", 64)
    best_ratio, best_ips = 0.0, 0.0
    rounds = ROUNDS if target is None else MAX_ROUNDS
    for i in range(rounds):
        gc.collect()                                 # keep GC pauses out of the window
        base_s = _time_once(baseline)
        interp_s = _time_once(interpreter)
        if base_s / interp_s > best_ratio:
            best_ratio = base_s / interp_s
            best_ips = LOOP_ITERATIONS * INSTRS_PER_ITERATION / interp_s
        if target is not None and best_ratio >= target and i + 1 >= ROUNDS:
            break
    return best_ratio, best_ips


def test_observability_hooks_are_disabled_by_default():
    assert trace_mod.ENABLED is False
    assert trace_mod.RECORDER is None
    assert profile_mod.ACTIVE is None


def test_tracing_disabled_throughput_within_3pct_of_floor():
    if not FLOORS_PATH.exists():
        pytest.skip("no BENCH_interpreter.json floors recorded yet")
    floors = json.loads(FLOORS_PATH.read_text())
    stored_baseline = floors["backends"]["baseline"]["instructions_per_second"]
    stored_singlepass = floors["backends"]["singlepass"]["instructions_per_second"]
    stored_ratio = stored_singlepass / stored_baseline

    assert trace_mod.ENABLED is False                # the gated configuration
    module = build_hot_loop_module()
    floor_ratio = stored_ratio * (1 - MAX_REGRESSION)
    ratio, singlepass_ips = _paired_ratio(module, target=floor_ratio)

    report(
        "Tracing-disabled dispatch overhead gate",
        [
            f"stored  singlepass/baseline ratio: {stored_ratio:.3f}",
            f"current singlepass/baseline ratio: {ratio:.3f}"
            f"  ({singlepass_ips:.0f} instr/s)",
            f"floor (97% of stored):             {stored_ratio * (1 - MAX_REGRESSION):.3f}",
        ],
    )
    assert ratio >= stored_ratio * (1 - MAX_REGRESSION), (
        f"tracing hooks regressed dispatch throughput: singlepass/baseline "
        f"ratio {ratio:.3f} fell below 97% of the recorded {stored_ratio:.3f}"
    )


def test_profiled_execution_stays_correct():
    """The instrumented twin of the dispatch loop computes the same result."""
    instance = _interpreter_instance(build_hot_loop_module())
    [plain] = instance.invoke("hot", 500)
    with profiling() as profiler:
        [profiled] = instance.invoke("hot", 500)
    assert profiled == plain
    assert profiler.dispatches > 0
    assert sum(profiler.handler_hits.values()) == profiler.dispatches
