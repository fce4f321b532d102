"""Counted call budget of generated code (deterministic, untimed).

One ``hpcg_ddot`` element is one multiply-add over two f64 loads.  Generated
code keeps the operand stack and the Wasm locals in Python locals, so what
is left to call per element is the memory access: Cranelift's code calls
``LinearMemory.load_f64`` (one Python call, whose ``unpack_from`` is one C
call), LLVM's inlines the bound test and the ``unpack_from``.  Before, with
the operand stack a Python list, an element cost 6.00 Python + 22.01 C calls
under Cranelift and 6.00 + 10.00 under LLVM (n = 2048: 12 297 + 45 067 and
12 297 + 20 489 per invocation).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.benchmarks_suite.hpcg import build_hpcg_kernels
from repro.wasm import ImportObject, Instance, ModuleBuilder
from repro.wasm.compilers import get_backend

N = 2048

#: Calls an invocation makes whatever its length: the embedding path
#: (``Instance.invoke``, the executor, the counted lambda) and the
#: function's entry (10 Python + 7 C calls when measured).
PER_INVOCATION = 16


def _counts(fn):
    """``(python_calls, c_calls)`` made while running ``fn()`` on this thread."""
    counts = {"call": 0, "c_call": 0}

    def profile(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("backend, python_per_element, c_per_element",
                         [("cranelift", 2, 2), ("llvm", 0, 2)])
def test_generated_ddot_stays_within_its_counted_call_budget(
        backend, python_per_element, c_per_element):
    mb = ModuleBuilder(name="ddot-budget")
    mb.add_memory(min_pages=1)
    build_hpcg_kernels(mb)
    module = mb.build()
    instance = Instance(module, ImportObject(),
                        executor=get_backend(backend).compile(module).make_executor())
    instance.memory.ndarray(0, 2 * N, np.float64)[:] = 1.5
    ddot = lambda: instance.invoke("hpcg_ddot", 0, 8 * N, N)  # noqa: E731
    assert ddot() == [1.5 * 1.5 * N]   # Cranelift generates the function here
    first, second = _counts(ddot), _counts(ddot)
    assert first == second
    python_calls, c_calls = first
    assert python_calls <= python_per_element * N + PER_INVOCATION, first
    assert c_calls <= c_per_element * N + PER_INVOCATION, first
