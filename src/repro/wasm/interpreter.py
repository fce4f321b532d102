"""Threaded-dispatch interpreter over the pre-resolved lowered IR.

This is the execution core of the Singlepass back-end
(:mod:`repro.wasm.compilers`) and the one interpreting tier.  Function
bodies are lowered once by :mod:`repro.wasm.lowering` into a flat array of
``(handler, immediate)`` pairs -- handlers resolved to direct function
references, branch targets pre-computed into jump offsets, adjacent
instruction pairs fused into superinstructions -- and the one dispatch loop,
:meth:`Interpreter._exec`, simply indexes the array and calls, with no
per-step string comparisons or forward scans.  When the instance carries a
sampled profiler (:mod:`repro.obs.profile`) the same loop runs the
profiler's copy of the array, whose handler slots count their dispatches.

Singlepass executors lower lazily, on a function's first call (near-zero
compile time); an executor can also be seeded with an eagerly lowered
module.  Cranelift and LLVM run Python code generated from the same lowered
IR instead (:mod:`repro.wasm.compilers.llvm`).  Numeric semantics are
delegated to :mod:`repro.wasm.values` through the tables in
:mod:`repro.wasm.lowering`, which the generated code reuses, so all three
back-ends agree bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.wasm.ir_exec import _State
from repro.wasm.lowering import (
    LoweredFunction,
    build_control_map,
    link,
    lower_function,
    lower_module,
)
from repro.wasm.module import Module
from repro.wasm.runtime import MAX_CALL_DEPTH, Executor, Instance, WasmFunction

__all__ = ["Interpreter", "MAX_CALL_DEPTH", "build_control_map"]


class Interpreter(Executor):
    """The threaded-dispatch executor over lowered function bodies.

    ``lowered`` seeds the executor with pre-lowered functions (eager
    compilation).  ``lazy`` selects Singlepass-style behaviour: nothing is
    lowered until a function's first call.  The default (neither) lowers the
    whole module in :meth:`prepare`.
    """

    name = "interpreter"

    def __init__(self, lowered: Optional[Sequence[LoweredFunction]] = None, lazy: bool = False):
        self._functions: Dict[int, LoweredFunction] = (
            dict(enumerate(lowered)) if lowered is not None else {}
        )
        self.lazy = lazy

    # ------------------------------------------------------------------ prepare

    def prepare(self, module: Module) -> None:
        """Lower every function ahead of time (eager mode only)."""
        if self.lazy or self._functions:
            return
        self._functions = dict(enumerate(lower_module(module)))

    def _lowered(self, module: Module, local_index: int) -> LoweredFunction:
        lowered = self._functions.get(local_index)
        if lowered is None:
            func = module.functions[local_index]
            lowered = lower_function(module, func, module.types[func.type_index])
            self._functions[local_index] = lowered
        return lowered

    # --------------------------------------------------------------------- call

    def call(self, instance: Instance, func_index: int, args: List) -> List:
        return self._exec(instance, instance.functions[func_index], args)

    # --------------------------------------------------------------------- exec

    def _exec(self, instance: Instance, target: WasmFunction, args: List) -> List:
        module = instance.module
        local_index = target.func_index - len(instance.host_calls)
        lowered = self._lowered(module, local_index)
        code = lowered.code
        if code is None:
            code = link(lowered)
        profiler = instance.profiler
        if profiler is not None:
            name = lowered.name or f"func[{local_index}]"
            code = profiler.counted_code(lowered, name, code)
            profiler.enter(name)

        st = _State()
        st.instance = instance
        st.memory = instance.memory
        args.extend(lowered.local_defaults)
        st.locals = args
        stack: List = []
        st.stack = stack
        n = len(code)
        # Implicit function frame: branching to it jumps past the end.
        st.frames = [(False, lowered.nresults, 0, n)]

        pc = 0
        try:
            while pc < n:
                op = code[pc]
                pc = op[0](st, pc, op[1])
        finally:
            if profiler is not None:
                profiler.exit(name)

        if lowered.nresults:
            return stack[len(stack) - lowered.nresults:]
        return []
