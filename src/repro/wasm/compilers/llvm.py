"""LLVM back-end: translate lowered function bodies to generated Python source.

Wasmer's LLVM back-end lowers Wasm through LLVM-IR into an optimised shared
object that is later ``dlopen``-ed.  The analogue here consumes the
pre-resolved IR of :mod:`repro.wasm.lowering` -- the same lowered form the
interpreter executes, including fused superinstructions -- and
translates it into Python source code (the module's "shared object"), compiles
it with ``compile``/``exec`` once, and thereafter executes plain Python
functions with no per-instruction dispatch: the slowest back-end to compile
and the fastest to run, reproducing the LLVM row of Table 1.  The generated
source travels inside a serializable artifact dict, which is exactly what the
compilation cache stores and reloads (§3.3 of the paper).

The generator is shared with the Cranelift back-end, which runs it per
function on first call and without the stack-to-expression fold
(:class:`FirstCallTable`); :class:`GeneratedCodeExecutor` runs the callables
of both.

Structured Wasm control flow is lowered with the label-id scheme: every
``block``/``loop``/``if`` gets a unique integer label, branches set ``_br`` to
the target label and break out of nested Python ``while`` regions until the
epilogue of the target construct consumes the branch.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence

from repro.wasm import values as V
from repro.wasm.compilers.base import CompiledModule, CompilerBackend, register_backend
from repro.wasm.errors import IndirectCallTrap, StackExhaustionTrap, Trap, UnreachableTrap
from repro.wasm.ir import MINED, OPS
from repro.wasm.lowering import IR_VERSION, LoweredFunction, lower_module
from repro.wasm.module import Module
from repro.wasm.runtime import Executor, HostFunction, Instance, reserve_recursion_headroom
from repro.wasm.semantics import _BINOPS, _UNOPS, _simd_binary, _simd_unary

MAX_CALL_DEPTH = 256

# An expression is foldable when deferring its evaluation to the consuming
# statement cannot change behaviour: no stack traffic, no memory/global/call
# effects, and no lower-case scratch temporaries (those are reassigned by
# later statements).  Locals (``L[i]``) are safe because folding only ever
# spans the immediately preceding push -- nothing can mutate ``L`` in between.
_IMPURE = re.compile(r"S\.|call\(|M\.|G\[|instance|\b_[a-z][a-z0-9]*\b")


class _FunctionCodeGen:
    """Generates the Python source for one lowered Wasm function.

    ``fold`` is the optimisation level: with it the stack-to-expression
    peephole (:meth:`pop_expr`) turns pushes and pops into nested
    expressions (LLVM); without it every op is translated on its own, local
    lowering and the IR's fused superinstructions only (Cranelift).  Each
    op's source comes from its row's emitter (:data:`repro.wasm.ir.OPS`),
    which writes through the public methods here.
    """

    def __init__(self, lowered: LoweredFunction, func_name: str, fold: bool = True):
        self.lowered = lowered
        self.func_name = func_name
        self.fold = fold
        self.lines: List[str] = []
        self.indent = 0
        self.label_counter = 0
        # Stack of (label_id, kind); index -1 is the innermost label.
        self.labels: List[tuple] = []

    # ------------------------------------------------------------------- utils

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def new_label(self) -> int:
        self.label_counter += 1
        return self.label_counter

    def label_id(self, depth: int) -> int:
        return self.labels[-1 - depth][0]

    def pop_expr(self) -> Optional[str]:
        """Stack-to-expression peephole: reclaim the last pushed pure value.

        When the immediately preceding emitted line is ``S.append(<expr>)``
        at the current indent and ``<expr>`` is side-effect free, delete the
        push and hand the expression to the consumer, eliding the stack
        round trip entirely.  The one-line lookback means a fold can never
        cross another statement, a control-flow join (those dedent), or a
        mutation of anything the expression reads.
        """
        if self.fold and self.lines:
            prefix = "    " * self.indent + "S.append("
            line = self.lines[-1]
            if line.startswith(prefix) and line.endswith(")"):
                expr = line[len(prefix):-1]
                if _IMPURE.search(expr) is None:
                    self.lines.pop()
                    return expr
        return None

    def pop_or_runtime(self) -> str:
        expr = self.pop_expr()
        return expr if expr is not None else "S.pop()"

    def addr(self, offset: int) -> str:
        base = self.pop_or_runtime()
        return f"{base} + {offset}" if offset else base

    def bin_operands(self) -> tuple:
        """Operand expressions for a two-operand consumer, fold-aware.

        ``b`` (top of stack) can only fold if it was the last push, and ``a``
        only if ``b`` folded too, so stack pop order is preserved; when
        neither folds the caller must spill through temporaries because every
        inline template evaluates ``a`` textually first.
        """
        b = self.pop_expr()
        if b is None:
            return None, None
        return self.pop_or_runtime(), b

    # ---------------------------------------------------------------- generate

    def generate(self) -> str:
        nresults = self.lowered.nresults
        self.emit(f"def {self.func_name}(instance, args):")
        self.indent += 1
        self.emit("L = list(args)")
        if self.lowered.local_defaults:
            self.emit(f"L.extend({list(self.lowered.local_defaults)!r})")
        self.emit("S = []")
        self.emit("M = instance.memory")
        self.emit("G = instance.globals")
        self.emit("call = instance.call_function")
        self.emit("_br = None")
        func_label = self.new_label()
        self.labels.append((func_label, "func"))
        self.emit("while True:")
        self.indent += 1
        for kind, imm in self.lowered.ops:
            self.op(kind, imm)
        self.emit("break")
        self.indent -= 1
        self.labels.pop()
        if nresults:
            self.emit(f"return S[-{nresults}:]")
        else:
            self.emit("return []")
        self.indent -= 1
        return "\n".join(self.lines)

    # --------------------------------------------------------------------- ops

    def branch_stmts(self, depth: int) -> None:
        for stmt in self.branch_code(depth):
            self.emit("    " + stmt)

    def branch_code(self, depth: int) -> List[str]:
        """Statements realising a branch to relative ``depth``.

        A depth-0 branch needs no label plumbing: the innermost region is
        the target, so a bare ``continue`` (loop back-edge) or ``break``
        (block/if/function exit, with ``_br`` still ``None``) lands exactly
        on the target's fallthrough path.
        """
        label, kind = self.labels[-1 - depth]
        if depth == 0:
            return ["continue" if kind == "loop" else "break"]
        return [f"_br = {label}", "break"]

    def op(self, kind: str, imm) -> None:
        """Emit one lowered op: its row's emitter, or a mined chain's
        constituents back-to-back (generated code has no dispatch loop)."""
        if kind == MINED:
            for sub_kind, sub_imm in zip(*imm):
                self.op(sub_kind, sub_imm)
            return
        row = OPS.get(kind)
        if row is None:
            raise Trap(f"LLVM backend cannot translate lowered op {kind!r}")
        row.emit(self, imm)


class PythonCodeGenerator:
    """Generates one Python module of source text for a whole Wasm module.

    Consumes the lowered IR (lowering the module itself when none is
    supplied), so code generation starts from pre-resolved jump targets,
    pre-validated constants and fused superinstructions.
    """

    def __init__(self, module: Module, lowered: Optional[Sequence[LoweredFunction]] = None):
        self.module = module
        self.lowered = list(lowered) if lowered is not None else lower_module(module)

    @staticmethod
    def function_symbol(local_index: int) -> str:
        """Python name of the generated function for a module-local index."""
        return f"__wasm_func_{local_index}"

    def generate(self) -> str:
        """Generate the full source ("shared object") for the module."""
        header = [
            "# Generated by the repro LLVM backend -- lowered Wasm IR to Python.",
            "# This text is the cacheable compilation artifact (cf. MPIWasm §3.3).",
        ]
        chunks: List[str] = ["\n".join(header)]
        for i, lowered in enumerate(self.lowered):
            gen = _FunctionCodeGen(lowered, self.function_symbol(i))
            chunks.append(gen.generate())
        return "\n\n\n".join(chunks) + "\n"


def _exec_namespace() -> Dict[str, object]:
    """Globals injected into the generated code's namespace."""
    return {
        # repr() of non-finite floats emits the bare names inf/-inf/nan in
        # generated constants; bind them so those literals evaluate.
        "inf": math.inf,
        "nan": math.nan,
        "_BIN": _BINOPS,
        "_UN": _UNOPS,
        "_SIMD_BIN": _simd_binary,
        "_SIMD_UN": _simd_unary,
        "_V128L": V.V128_LANE,
        "_S32": V.signed32,
        "_S64": V.signed64,
        "_F32": V.round_f32,
        "UnreachableTrap": UnreachableTrap,
        "IndirectCallTrap": IndirectCallTrap,
    }


def load_artifact(source: str, function_count: int) -> List:
    """Execute generated source and return the compiled callables in order."""
    namespace = _exec_namespace()
    code = compile(source, "<wasm-llvm-artifact>", "exec")
    exec(code, namespace)  # noqa: S102 - the artifact is generated by this backend
    return [namespace[PythonCodeGenerator.function_symbol(i)] for i in range(function_count)]


class FirstCallTable(list):
    """Generated callables by module-local index, each built on its first call.

    Entry ``i`` starts as a stub that generates function ``i``'s source from
    its lowered IR (at optimisation level ``fold``), compiles it, replaces
    itself with the result and runs it -- the code-generating counterpart of
    Singlepass lowering a function on first call.  Functions a run never
    calls are never generated.
    """

    def __init__(self, lowered: Sequence[LoweredFunction], fold: bool):
        namespace = _exec_namespace()
        super().__init__(
            self._stub(i, fn, namespace, fold) for i, fn in enumerate(lowered)
        )

    def _stub(self, index: int, lowered: LoweredFunction, namespace: dict, fold: bool):
        def generate_then_call(instance, args):
            symbol = PythonCodeGenerator.function_symbol(index)
            source = _FunctionCodeGen(lowered, symbol, fold=fold).generate()
            exec(compile(source, "<wasm-generated-function>", "exec"), namespace)  # noqa: S102
            self[index] = function = namespace[symbol]
            return function(instance, args)

        return generate_then_call


class GeneratedCodeExecutor(Executor):
    """Executes generated Python callables: LLVM's and Cranelift's tier.

    ``functions`` is indexed by module-local function index: the callables
    of LLVM's artifact, compiled up front, or Cranelift's
    :class:`FirstCallTable`, filled in as functions are first called.
    """

    name = "generated"

    def __init__(self, functions: List, max_call_depth: int = MAX_CALL_DEPTH):
        self._functions = functions
        self.max_call_depth = max_call_depth

    def prepare(self, module: Module) -> None:
        """No per-instance work: compilation already happened."""

    def configure(self, max_call_depth: Optional[int] = None) -> None:
        """Apply embedder-level execution limits (see :class:`Executor`)."""
        if max_call_depth is not None:
            self.max_call_depth = max_call_depth

    def call(self, instance: Instance, func_index: int, args: Sequence) -> List:
        target = instance.functions[func_index]
        if isinstance(target, HostFunction):
            result = target(instance, *args)
            if result is None:
                return []
            return list(result) if isinstance(result, (list, tuple)) else [result]
        local_index = func_index - instance.module.num_imported_functions()
        depth = instance.host_state.get("_call_depth", 0)
        if depth >= self.max_call_depth:
            raise StackExhaustionTrap(depth)
        if depth == 0:
            reserve_recursion_headroom(self.max_call_depth)
        instance.host_state["_call_depth"] = depth + 1
        try:
            return self._functions[local_index](instance, list(args))
        finally:
            instance.host_state["_call_depth"] = depth


class LLVMBackend(CompilerBackend):
    """Code-generating back-end (slowest compile, fastest execution)."""

    name = "llvm"

    def _compile(self, module: Module) -> dict:
        lowered = lower_module(module)
        source = PythonCodeGenerator(module, lowered).generate()
        # Force the bytecode compilation now so the cost is attributed to
        # compile time, as with LLVM's optimisation pipeline.
        compile(source, "<wasm-llvm-artifact>", "exec")
        return {"kind": "python-source", "ir_version": IR_VERSION, "source": source}

    def executor_for(self, compiled: CompiledModule) -> Executor:
        # Cache loads hand every rank a *fresh* CompiledModule, but all of
        # them share the Module object -- stash the exec()'d callables there
        # so loading the artifact is a once-per-process cost.
        module = compiled.module
        functions = getattr(module, "_llvm_runtime", None)
        if functions is None:
            artifact = compiled.artifact
            source = artifact["source"] if isinstance(artifact, dict) else str(artifact)
            functions = load_artifact(source, len(module.functions))
            module._llvm_runtime = functions
        return GeneratedCodeExecutor(functions)


register_backend(LLVMBackend())
