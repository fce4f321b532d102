"""Opt-in sampled profiling hooks for the threaded-dispatch interpreter.

The interpreter's one dispatch loop (:meth:`repro.wasm.interpreter.Interpreter._exec`)
reads its instance's ``profiler`` (the job's hooks, :mod:`repro.obs.hooks`)
once per function call; when it is ``None`` (the default) it runs the
function's linked code and profiling costs one attribute read per *call*,
not per instruction.  With a profiler the loop runs
:meth:`InterpreterProfiler.counted_code` instead: the same array with every
handler slot a counting wrapper.  Each wrapper bumps the profiler's one
``dispatches`` counter, so the sampling keeps its phase across calls, and
counts every ``sample_every``-th dispatch under its handler's name.
Handler function names are the histogram keys, so fused superinstructions
(``_h_get_get_bin``, ``_h_get_const_bin``, ...) show up as first-class rows,
proving which fusions actually fire.  Per-function call counts and
self/total wall time come from an enter/exit stack.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.hooks import installed

__all__ = [
    "InterpreterProfiler",
    "format_profile_report",
    "profiling",
]

#: ``__name__`` prefix of a mined chain's executor (``lowering._chain_handler``).
_MINED_PREFIX = "_h_fused_mined__"


class InterpreterProfiler:
    """Handler-hit histogram plus per-function call/self-time accounting.

    ``sample_every=1`` counts every dispatched handler (exact); larger
    strides count one in N and the report scales the estimate back up.
    """

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        # Exact dispatch count, bumped by every counting wrapper, so the
        # modulo sampling keeps its phase across function calls.
        self.dispatches = 0
        self.handler_hits: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_seconds: Dict[str, float] = {}
        self.total_seconds: Dict[str, float] = {}
        # Enter/exit stack entries: [function name, start wall, child time].
        self._stack: List[List] = []
        # Serial IR op lists per executed function, recorded once on first
        # profiled entry -- the input (together with the handler histogram)
        # for lowering.mine_superinstructions().
        self.ir_traces: Dict[str, List] = {}
        # id(lowered function) -> (that function, its counted code).
        self._counted: Dict[int, Tuple[object, List]] = {}

    # -------------------------------------------------- interpreter callbacks

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def record_ir(self, name: str, ops) -> None:
        """Record a function's serial lowered ops (first profiled entry wins)."""
        if name not in self.ir_traces:
            self.ir_traces[name] = list(ops)

    def counted_code(self, lowered, name: str, code: List) -> List:
        """``code`` (``lowered``'s linked array) with counting handler slots.

        Built on a function's first profiled call and kept on the profiler,
        never in ``lowered.code``, so a shared or cached artifact never holds
        a wrapper.
        """
        entry = self._counted.get(id(lowered))
        if entry is None:
            self.record_ir(name, lowered.ops)
            entry = self._counted[id(lowered)] = (
                lowered, [(self._counter(handler), imm) for handler, imm in code])
        return entry[1]

    def _counter(self, handler: Callable) -> Callable:
        hits, stride, name = self.handler_hits, self.sample_every, handler.__name__

        # Unlocked read-modify-write: the engine runs one rank at a time.
        def counter(st, pc, imm):
            self.dispatches = tick = self.dispatches + 1
            if tick % stride == 0:
                hits[name] += 1
            return handler(st, pc, imm)

        return counter

    def exit(self, name: str) -> None:
        frame = self._stack.pop()
        total = time.perf_counter() - frame[1]
        self.self_seconds[name] = self.self_seconds.get(name, 0.0) + total - frame[2]
        self.total_seconds[name] = self.total_seconds.get(name, 0.0) + total
        if self._stack:
            self._stack[-1][2] += total

    # ------------------------------------------------------------------ query

    def handler_histogram(self) -> Dict[str, int]:
        """Estimated dispatch counts per handler, scaled by the stride."""
        return {name: hits * self.sample_every
                for name, hits in sorted(self.handler_hits.items(),
                                         key=lambda kv: (-kv[1], kv[0]))}

    def fused_hits(self) -> int:
        """Estimated dispatches that went through a fused superinstruction:
        the handlers of the ``fused.*`` rows and every mined chain."""
        from repro.wasm.ir import FUSED_HANDLER_NAMES

        return sum(hits * self.sample_every
                   for name, hits in self.handler_hits.items()
                   if name in FUSED_HANDLER_NAMES or name.startswith(_MINED_PREFIX))

    def mined_hits(self) -> Dict[str, int]:
        """Estimated dispatches per *mined* superinstruction, by chain name.

        Mined chain executors carry ``__name__ = "_h_fused_mined__<kinds>"``
        (see ``lowering._chain_handler``), so their histogram rows attribute
        each learned fusion individually.
        """
        return {name: hits * self.sample_every
                for name, hits in sorted(self.handler_hits.items(),
                                         key=lambda kv: (-kv[1], kv[0]))
                if name.startswith(_MINED_PREFIX)}

    def report(self) -> dict:
        """Plain-data profile report (the ``--json`` CLI output)."""
        functions = []
        for name in sorted(self.total_seconds,
                           key=lambda n: -self.self_seconds.get(n, 0.0)):
            functions.append({
                "name": name,
                "calls": self.calls.get(name, 0),
                "self_seconds": self.self_seconds.get(name, 0.0),
                "total_seconds": self.total_seconds.get(name, 0.0),
            })
        return {
            "sample_every": self.sample_every,
            "dispatches": self.dispatches,
            "sampled_dispatches": sum(self.handler_hits.values()),
            "estimated_dispatches": sum(self.handler_hits.values()) * self.sample_every,
            "fused_dispatches": self.fused_hits(),
            "mined_superinstructions": self.mined_hits(),
            "handlers": self.handler_histogram(),
            "functions": functions,
        }

    def clear(self) -> None:
        self.dispatches = 0
        self.handler_hits.clear()
        self.calls.clear()
        self.self_seconds.clear()
        self.total_seconds.clear()
        self._stack.clear()
        self.ir_traces.clear()
        self._counted.clear()


def format_profile_report(profiler: InterpreterProfiler, top: int = 15) -> str:
    """Human-readable report: handler histogram then hot functions."""
    report = profiler.report()
    lines = ["interpreter profile "
             f"(stride {report['sample_every']}, "
             f"{report['estimated_dispatches']} dispatches, "
             f"{report['fused_dispatches']} via fused superinstructions)", ""]
    lines.append(f"{'handler':<28} {'hits':>12} {'share':>8}")
    total = max(report["estimated_dispatches"], 1)
    for name, hits in list(report["handlers"].items())[:top]:
        lines.append(f"{name:<28} {hits:>12} {hits / total:>7.1%}")
    mined = report.get("mined_superinstructions", {})
    if mined:
        lines.append("")
        lines.append(f"{'mined superinstruction':<48} {'hits':>12}")
        for name, hits in list(mined.items())[:top]:
            chain = " + ".join(name[len(_MINED_PREFIX):].split("__"))
            lines.append(f"{chain:<48} {hits:>12}")
    lines.append("")
    lines.append(f"{'function':<28} {'calls':>10} {'self s':>10} {'total s':>10}")
    for row in report["functions"][:top]:
        lines.append(f"{row['name']:<28} {row['calls']:>10} "
                     f"{row['self_seconds']:>10.6f} {row['total_seconds']:>10.6f}")
    return "\n".join(lines)


@contextmanager
def profiling(sample_every: int = 1,
              profiler: Optional[InterpreterProfiler] = None) -> Iterator[InterpreterProfiler]:
    """Profile the Wasm instances this thread creates in the block (those of
    the jobs it starts included)."""
    active = profiler if profiler is not None else InterpreterProfiler(sample_every)
    with installed(profiler=active):
        yield active
