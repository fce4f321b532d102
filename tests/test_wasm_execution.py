"""Execution tests: interpreter and the three compiler back-ends agree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import FuncType, ImportObject, Instance, ModuleBuilder, validate_module
from repro.wasm.compilers import backend_names, get_backend
from repro.wasm.errors import (
    IntegerDivideByZeroTrap,
    MemoryOutOfBoundsTrap,
    StackExhaustionTrap,
    Trap,
    UnreachableTrap,
)

BACKENDS = ("singlepass", "cranelift", "llvm")


def build_test_module():
    """A module exercising arithmetic, control flow, memory, calls and SIMD."""
    mb = ModuleBuilder(name="exec-tests")
    mb.add_memory(1)
    mb.add_global("counter", "i32", 0)

    fib = mb.function("fib", params=[("n", "i32")], results=["i32"], export=True)
    fib.get("n").i32_const(2).emit("i32.lt_s")
    with fib.if_("i32"):
        fib.get("n")
        fib.else_()
        fib.get("n").i32_const(1).emit("i32.sub").call("fib")
        fib.get("n").i32_const(2).emit("i32.sub").call("fib")
        fib.emit("i32.add")

    gcd = mb.function("gcd", params=[("a", "i32"), ("b", "i32")], results=["i32"], export=True)
    with gcd.block():
        with gcd.loop():
            gcd.get("b").emit("i32.eqz").br_if(1)
            gcd.get("a").get("b").emit("i32.rem_u")
            gcd.get("b").set("a")
            gcd.set("b")
            gcd.br(0)
    gcd.get("a")

    sumn = mb.function("sum_to", params=[("n", "i32")], results=["i32"], export=True)
    sumn.add_local("i", "i32")
    sumn.add_local("acc", "i32")
    with sumn.for_range("i", end_local="n"):
        sumn.get("acc").get("i").emit("i32.add").set("acc")
    sumn.get("acc")

    divs = mb.function("div_s", params=[("a", "i32"), ("b", "i32")], results=["i32"], export=True)
    divs.get("a").get("b").emit("i32.div_s")

    boom = mb.function("boom", params=[], results=[], export=True)
    boom.emit("unreachable")

    poke = mb.function("poke", params=[("addr", "i32"), ("v", "f64")], results=["f64"], export=True)
    poke.get("addr").get("v").store("f64.store")
    poke.get("addr").load("f64.load")

    oob = mb.function("read_oob", params=[], results=["i32"], export=True)
    oob.i32_const(10 * 65536).load("i32.load")

    bump = mb.function("bump", params=[], results=["i32"], export=True)
    bump.emit("global.get", "counter").i32_const(1).emit("i32.add")
    bump.emit("global.set", "counter")
    bump.emit("global.get", "counter")

    f64ops = mb.function("mix_f64", params=[("x", "f64")], results=["f64"], export=True)
    f64ops.get("x").emit("f64.sqrt").f64_const(1.0).emit("f64.add").emit("f64.floor")

    conv = mb.function("to_i64", params=[("x", "i32")], results=["i64"], export=True)
    conv.get("x").emit("i64.extend_i32_s").i64_const(1000).emit("i64.mul")

    select_fn = mb.function("pick", params=[("c", "i32")], results=["i32"], export=True)
    select_fn.i32_const(111).i32_const(222).get("c").emit("select")

    simd = mb.function("v_add4", params=[("a", "i32"), ("b", "i32"), ("out", "i32")],
                       results=[], export=True)
    simd.get("out")
    simd.get("a").load("v128.load")
    simd.get("b").load("v128.load")
    simd.emit("i32x4.add")
    simd.store("v128.store")

    br_table = mb.function("classify", params=[("x", "i32")], results=["i32"], export=True)
    with br_table.block():        # depth 2 from inside the inner block
        with br_table.block():    # depth 1
            with br_table.block():  # depth 0
                br_table.get("x")
                br_table.emit("br_table", (0, 1), 2)
            br_table.i32_const(100).ret()
        br_table.i32_const(200).ret()
    br_table.i32_const(300)

    module = mb.build()
    validate_module(module)
    return module


@pytest.fixture(scope="module")
def compiled_instances():
    module = build_test_module()
    instances = {}
    for name in BACKENDS:
        backend = get_backend(name)
        compiled = backend.compile(module)
        instances[name] = Instance(module, ImportObject(), executor=backend.executor_for(compiled))
    return instances


def test_all_backends_registered():
    assert set(backend_names()) >= set(BACKENDS)
    with pytest.raises(KeyError):
        get_backend("gcc")


@pytest.mark.parametrize("backend", BACKENDS)
def test_fibonacci_and_gcd(compiled_instances, backend):
    inst = compiled_instances[backend]
    assert inst.invoke("fib", 12) == [144]
    assert inst.invoke("gcd", 48, 36) == [12]
    assert inst.invoke("gcd", 17, 5) == [1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_loop_and_branching(compiled_instances, backend):
    inst = compiled_instances[backend]
    assert inst.invoke("sum_to", 100) == [4950]
    assert inst.invoke("classify", 0) == [100]
    assert inst.invoke("classify", 1) == [200]
    assert inst.invoke("classify", 7) == [300]
    assert inst.invoke("pick", 1) == [111]
    assert inst.invoke("pick", 0) == [222]


@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_and_globals(compiled_instances, backend):
    inst = compiled_instances[backend]
    assert inst.invoke("poke", 256, 6.25) == [6.25]
    first = inst.invoke("bump")[0]
    second = inst.invoke("bump")[0]
    assert second == first + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_float_and_conversion_ops(compiled_instances, backend):
    inst = compiled_instances[backend]
    assert inst.invoke("mix_f64", 9.0) == [4.0]
    assert inst.invoke("to_i64", -3) == [(-3000) & 0xFFFFFFFFFFFFFFFF]


@pytest.mark.parametrize("backend", BACKENDS)
def test_simd_lane_addition(compiled_instances, backend):
    inst = compiled_instances[backend]
    mem = inst.exported_memory()
    import numpy as np

    a = mem.ndarray(512, 4, "int32")
    b = mem.ndarray(528, 4, "int32")
    a[:] = [1, 2, 3, 4]
    b[:] = [10, 20, 30, 40]
    inst.invoke("v_add4", 512, 528, 544)
    assert mem.ndarray(544, 4, "int32").tolist() == [11, 22, 33, 44]


@pytest.mark.parametrize("backend", BACKENDS)
def test_traps(compiled_instances, backend):
    inst = compiled_instances[backend]
    with pytest.raises(UnreachableTrap):
        inst.invoke("boom")
    with pytest.raises(IntegerDivideByZeroTrap):
        inst.invoke("div_s", 5, 0)
    with pytest.raises(MemoryOutOfBoundsTrap):
        inst.invoke("read_oob")


def _value_carrying_branches_module():
    """Branches that carry a value out of a block over operands beneath it:
    the branch must drop those operands (they are not the block's result)."""
    mb = ModuleBuilder(name="carry")
    f = mb.function("f", params=[("x", "i32")], results=["i32"], export=True)
    f.get("x")
    with f.block("i32"):
        f.i32_const(5).i32_const(7).br(0)
    f.emit("i32.add")
    g = mb.function("g", params=[("x", "i32")], results=["i32"], export=True)
    g.i32_const(100)
    with g.block("i32"):
        g.i32_const(1)
        with g.if_("i32"):
            g.i32_const(3).i32_const(4).br(1)
            g.else_()
            g.i32_const(9)
    g.emit("i32.add")
    module = mb.build()
    validate_module(module)
    return module


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_branch_carries_its_value_over_the_operands_beneath(backend):
    module = _value_carrying_branches_module()
    compiled = get_backend(backend).compile(module)
    inst = Instance(module, ImportObject(), executor=compiled.make_executor())
    assert inst.invoke("f", 10) == [17]
    assert inst.invoke("g", 10) == [104]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_folded_expression_keeps_its_precedence_and_its_trap(backend):
    mb = ModuleBuilder(name="folding")
    mb.add_memory(1)
    # (a & b) + 8, not a & (b + 8): the load must read address 8.
    f = mb.function("masked", params=[("a", "i32"), ("b", "i32")], results=["i32"],
                    export=True)
    f.get("a").get("b").emit("i32.and").load("i32.load", offset=8)
    # A dropped division still traps.
    g = mb.function("div_drop", params=[("a", "i32")], results=[], export=True)
    g.get("a").i32_const(0).emit("i32.div_s").drop()
    # So does a division select does not pick.
    h = mb.function("div_select", params=[("a", "i32")], results=["i32"], export=True)
    h.get("a").i32_const(0).emit("i32.div_s").i32_const(1).i32_const(0).emit("select")
    module = mb.build()
    validate_module(module)
    inst = Instance(module, ImportObject(),
                    executor=get_backend(backend).compile(module).make_executor())
    inst.memory.store_int(0, 5, 4)
    inst.memory.store_int(8, 7, 4)
    assert inst.invoke("masked", 0, 0xFF00) == [7]
    with pytest.raises(IntegerDivideByZeroTrap):
        inst.invoke("div_drop", 5)
    with pytest.raises(IntegerDivideByZeroTrap):
        inst.invoke("div_select", 5)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stack_exhaustion_guard(backend):
    mb = ModuleBuilder()
    f = mb.function("loop_forever", params=[("n", "i32")], results=["i32"], export=True)
    f.get("n").i32_const(1).emit("i32.add").call("loop_forever")
    module = mb.build()
    compiled = get_backend(backend)
    inst = Instance(module, ImportObject(), executor=compiled.executor_for(compiled.compile(module)))
    with pytest.raises(StackExhaustionTrap):
        inst.invoke("loop_forever", 0)
    assert inst.call_depth == 0          # the guard unwinds with the trap


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_host_import_reentering_the_guest_is_depth_guarded(backend):
    # guest f -> host import -> instance.invoke("f") -> ...: every guest level
    # passes the one guard in Instance.call_function, so the recursion ends
    # in the Wasm trap, not in CPython's RecursionError.
    mb = ModuleBuilder()
    mb.import_function("env", "reenter", ["i32"], ["i32"])
    f = mb.function("f", params=[("n", "i32")], results=["i32"], export=True)
    f.get("n").call("reenter")
    module = mb.build()
    imports = ImportObject()
    imports.register("env", "reenter", FuncType.of(["i32"], ["i32"]),
                     lambda inst, n: inst.invoke("f", n + 1)[0])
    compiled = get_backend(backend)
    inst = Instance(module, imports, executor=compiled.executor_for(compiled.compile(module)))
    with pytest.raises(StackExhaustionTrap):
        inst.invoke("f", 0)
    assert inst.call_depth == 0


_DEEP_RECURSION_SCRIPT = """
import sys
from repro.wasm import ImportObject, Instance, ModuleBuilder
from repro.wasm.compilers import get_backend
from repro.wasm.errors import StackExhaustionTrap

mb = ModuleBuilder()
f = mb.function("loop_forever", params=[("n", "i32")], results=["i32"], export=True)
f.get("n").i32_const(1).emit("i32.add").call("loop_forever")
module = mb.build()
backend = get_backend(sys.argv[1])
executor = backend.executor_for(backend.compile(module))
executor.configure(max_call_depth=1000)
try:
    Instance(module, ImportObject(), executor=executor).invoke("loop_forever", 0)
except StackExhaustionTrap:
    print("trap")
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_call_depth_trap_fires_before_recursion_error_in_fresh_process(backend):
    # A fresh process keeps CPython's default recursion limit (1000), which
    # 1000 Wasm call levels exceed unless the executor raises it on entry.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", _DEEP_RECURSION_SCRIPT, backend],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "trap"


@given(n=st.integers(min_value=0, max_value=15), a=st.integers(min_value=1, max_value=500),
       b=st.integers(min_value=1, max_value=500))
@settings(max_examples=25, deadline=None)
def test_backends_agree_on_random_inputs(compiled_instances, n, a, b):
    expected_fib = compiled_instances["cranelift"].invoke("fib", n)
    expected_gcd = compiled_instances["cranelift"].invoke("gcd", a, b)
    for backend in BACKENDS:
        inst = compiled_instances[backend]
        assert inst.invoke("fib", n) == expected_fib
        assert inst.invoke("gcd", a, b) == expected_gcd


def test_compile_time_ordering_matches_table1():
    module = build_test_module()
    times = {name: get_backend(name).compile(module).compile_seconds for name in BACKENDS}
    # LLVM (code generation) must be the most expensive compile, as in Table 1.
    assert times["llvm"] > times["singlepass"]
    assert times["llvm"] > times["cranelift"]


def test_host_function_call_and_link_errors():
    mb = ModuleBuilder()
    mb.add_memory(1)
    mb.import_function("env", "add_host", ["i32", "i32"], ["i32"])
    f = mb.function("call_host", params=[("x", "i32")], results=["i32"], export=True)
    f.get("x").i32_const(5).call("add_host")
    module = mb.build()

    imports = ImportObject()
    imports.register("env", "add_host", FuncType.of(["i32", "i32"], ["i32"]),
                     lambda inst, a, b: a + b)
    inst = Instance(module, imports)
    assert inst.invoke("call_host", 7) == [12]

    from repro.wasm.errors import LinkError

    with pytest.raises(LinkError):
        Instance(module, ImportObject())  # missing import
    bad = ImportObject()
    bad.register("env", "add_host", FuncType.of(["i32"], ["i32"]), lambda inst, a: a)
    with pytest.raises(LinkError):
        Instance(module, bad)  # signature mismatch
