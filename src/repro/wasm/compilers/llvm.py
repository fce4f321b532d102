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

The generated code has no operand stack: validated Wasm has one stack height
at every instruction, so each stack slot is a Python local ``s{h}`` and each
Wasm local a Python local ``l{i}``.  LLVM's optimisation level folds a slot
assignment into the statement that consumes it (``s3 = l0 + 8`` and
``l4 = s3 * 2`` become ``l4 = (l0 + 8) * 2``) and inlines scalar loads and
stores: an inline bound test raising the memory's own trap, then
``struct.unpack_from``/``pack_into`` on the memory's buffer.

The generator is shared with the Cranelift back-end, which runs it per
function on first call, without the fold and calling the memory's methods
(:class:`FirstCallTable`); :class:`GeneratedCodeExecutor` runs the callables
of both.

Structured Wasm control flow is lowered with the label-id scheme: every
``block``/``loop``/``if`` gets a unique integer label, branches set ``_br`` to
the target label and break out of nested Python ``while`` regions until the
epilogue of the target construct consumes the branch.  A branch first copies
the values it carries down to its target's base height, dropping the operands
between (a branch to the function's label returns them).
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.wasm import values as V
from repro.wasm.compilers.base import CompiledModule, CompilerBackend, register_backend
from repro.wasm.errors import (
    IndirectCallTrap,
    MemoryOutOfBoundsTrap,
    Trap,
    UnreachableTrap,
)
from repro.wasm.ir import MINED, OPS
from repro.wasm.lowering import IR_VERSION, LoweredFunction, lower_module
from repro.wasm.module import Module
from repro.wasm.runtime import Executor, Instance
from repro.wasm.semantics import _BINOPS, _UNOPS, _simd_binary, _simd_unary

# An expression is foldable when deferring its evaluation to the consuming
# statement cannot change behaviour: no memory/global/call effects through
# ``M``/``G``/``call``, and no lower-case scratch temporaries (those are
# reassigned by later statements).  Slots (``s3``) and locals (``l2``) are
# safe because folding only ever spans the immediately preceding line --
# nothing can assign them in between.  An inlined load (``_LD_d(B, s3)[0]``)
# is foldable too: its bounds check stays on its own earlier line.
_IMPURE = re.compile(r"call\(|M\.|G\[|instance|\b_[a-z][a-z0-9]*\b")


class _FunctionCodeGen:
    """Generates the Python source for one lowered Wasm function.

    Validated Wasm has one operand-stack height at every instruction, so the
    operand stack lives in Python locals: a push at height ``h`` assigns
    ``s{h}`` and a pop reads ``s{h-1}``.  Wasm locals are Python locals
    ``l{i}``; the parameters are unpacked from ``args``.  Each label records
    the height its construct started at and its arity, so a branch copies the
    values it carries down to its target's base height before it leaves;
    code after an unconditional branch is not generated, up to its frame's
    ``else``/``end``.  A construct's ``while`` region (a loop's driver) and
    the ``_br`` tests after it are kept only when a branch needs them
    (:class:`_Label`), and the prologue binds only the names the body reads.

    ``fold`` is the optimisation level: with it the one-line
    stack-to-expression peephole (:meth:`pop`) turns slot assignments into
    nested expressions and scalar loads and stores are inlined, bounds check
    and all (LLVM); without it every op is translated on its own, local
    lowering and the IR's fused superinstructions only, and memory is
    accessed through the :class:`~repro.wasm.memory.LinearMemory` methods
    (Cranelift).  Each op's source comes from its row's emitter
    (:data:`repro.wasm.ir.OPS`), which writes through the public methods
    here; an emitter that emits several lines evaluates its folded operands
    in stack order and before any effect of its own.

    ``module`` gives the function's parameter count and the result counts
    of ``call``/``call_indirect``; ``index`` is the function's module-local
    index.
    """

    def __init__(self, module: Module, index: int, lowered: LoweredFunction,
                 fold: bool = True):
        self.module = module
        self.lowered = lowered
        self.func_name = PythonCodeGenerator.function_symbol(index)
        self.nparams = len(module.types[module.functions[index].type_index].params)
        self.fold = fold
        # The function body, from indent 1; generate() adds the header.
        self.lines: List[str] = []
        self.indent = 1
        # Open constructs, the innermost last.
        self.labels: List[_Label] = []
        self.label_counter = 0
        self.height = 0
        # Nesting depth inside unreachable code (0: the code is live).
        self.dead = 0
        # Whether an inlined access reads the memory's buffer ``B``.
        self.uses_buffer = False

    # ------------------------------------------------------------------- utils

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def open_label(self, kind: str, arity: int) -> None:
        """Open a construct's label and its ``while True:`` region."""
        self.label_counter += 1
        self.labels.append(_Label(self.label_counter, kind, self.height, arity,
                                  len(self.lines)))
        self.emit("while True:")
        self.indent += 1

    def unwrap(self, label: _Label) -> None:
        """Drop ``label``'s region: delete its ``while True:`` line and
        dedent what it held (everything emitted since)."""
        lines = self.lines
        del lines[label.header]
        for i in range(label.header, len(lines)):
            lines[i] = lines[i][4:]
        self.indent -= 1

    def push(self, expr: str) -> None:
        """Push ``expr``: assign it to the slot at the current height."""
        slot = f"s{self.height}"
        self.height += 1
        if expr != slot:
            self.emit(f"{slot} = {expr}")

    def pop(self, fold: bool = True) -> str:
        """Pop the top operand: its slot, or its folded expression.

        With folding on, when the immediately preceding emitted line is
        ``s{h-1} = <expr>`` at the current indent and ``<expr>`` is side-effect
        free, delete the line and hand the expression to the consumer.  The
        one-line lookback means a fold can never cross another statement, a
        control-flow join (a kept region ends in a dedent or a ``_br`` test;
        an unwrapped block is straight-line code), or an assignment of
        anything the expression reads.
        """
        self.height -= 1
        slot = f"s{self.height}"
        if fold and self.fold and self.lines:
            prefix = "    " * self.indent + slot + " = "
            line = self.lines[-1]
            if line.startswith(prefix):
                expr = line[len(prefix):]
                if _IMPURE.search(expr) is None:
                    self.lines.pop()
                    return expr
        return slot

    def pop_many(self, n: int) -> List[str]:
        """The top ``n`` operands, deepest first (only the top ones fold)."""
        values = [self.pop() for _ in range(n)]
        values.reverse()
        return values

    def top_slots(self, n: int) -> List[str]:
        """The slots of the top ``n`` operands, deepest first, left in place."""
        return [f"s{h}" for h in range(self.height - n, self.height)]

    def checked(self, address: str, nbytes: int) -> str:
        """Inline the bound test of an ``nbytes`` access at ``address``.

        The address goes to the slot at the current height (the popped base's
        slot, or the free one above the stack), then comes the test that
        raises the memory methods' own trap.  Returns the slot.
        """
        slot = f"s{self.height}"
        if address != slot:
            self.emit(f"{slot} = {address}")
        self.emit(f"if {slot} < 0 or {slot} + {nbytes} > M._size: "
                  f"raise MemoryOutOfBoundsTrap({slot}, {nbytes}, M.size)")
        self.uses_buffer = True
        return slot

    # ---------------------------------------------------------------- generate

    def generate(self) -> str:
        lowered = self.lowered
        nresults = lowered.nresults
        self.open_label("func", nresults)
        op = self.op
        for kind, imm in lowered.ops:
            if not self.dead or (self.dead == 1 and kind in _CLOSERS):
                op(kind, imm)  # the dead frame's own else/end revives the code
            elif kind in _OPENERS:
                self.dead += 1
            elif kind == "end":
                self.dead -= 1
        func = self.labels.pop()
        if func.targeted:  # by a br_table's label-id dispatch
            if not self.dead:
                self.emit("break")
            self.indent -= 1
        else:
            self.unwrap(func)
        self.emit(f"return [{', '.join(f's{h}' for h in range(nresults))}]")
        body = "\n".join(self.lines)
        head = [f"def {self.func_name}(instance, args):"]
        if self.nparams:
            params = ", ".join(f"l{i}" for i in range(self.nparams))
            head.append(f"    {params}{',' if self.nparams == 1 else ''} = args")
        if lowered.local_defaults:
            first = self.nparams
            head.append("    " + ", ".join(f"l{first + i}"
                                          for i in range(len(lowered.local_defaults)))
                        + " = " + ", ".join(repr(v) for v in lowered.local_defaults))
        # Bind only what the body reads (a name inside a constant's repr only
        # costs an unused binding); ``B`` follows ``M``, which its test reads.
        for token, line in _PROLOGUE:
            if token in body:
                head.append(f"    {line}")
                if token == "M." and self.uses_buffer:
                    head.append("    B = M._buffer")
        return "\n".join(head) + "\n" + body

    # --------------------------------------------------------------------- ops

    def branch(self, depth: int, values: Sequence[str], nested: bool = False) -> None:
        """Emit a branch to relative ``depth`` carrying ``values`` (the
        target label's arity of them, deepest first): one more indent level
        when ``nested`` (the body of an ``if``)."""
        pad = "    " if nested else ""
        for stmt in self.branch_code(depth, values):
            self.emit(pad + stmt)

    def branch_code(self, depth: int, values: Sequence[str]) -> List[str]:
        """Statements realising a branch to relative ``depth``.

        The carried values are copied down to the target's base height.  A
        branch to the function label returns.  A depth-0 branch needs no
        label plumbing: the innermost region is the target, so a bare
        ``continue`` (loop back-edge) or ``break`` (block/if exit, with
        ``_br`` still ``None``) lands exactly on the target's fallthrough
        path.
        """
        target = self.labels[-1 - depth]
        if target.kind == "func":
            return [f"return [{', '.join(values)}]"]
        code = self.carry(depth, values)
        if depth == 0 and target.kind == "loop":
            code.append("continue")
        elif depth == 0:
            target.exits = True
            code.append("break")
        else:
            self.mark_jump(depth)
            code += [f"_br = {target.id}", "break"]
        return code

    def mark_jump(self, depth: int) -> None:
        """Record a ``_br`` jump to relative ``depth``: its target consumes
        it, and every construct it leaves on the way passes it on."""
        self.labels[-1 - depth].targeted = True
        for label in self.labels[len(self.labels) - depth:]:
            label.crossed = True

    def carry(self, depth: int, values: Sequence[str]) -> List[str]:
        """Copies of ``values`` to the base height of the label at ``depth``
        (ascending, so no copy overwrites a value it has yet to read)."""
        base = self.labels[-1 - depth].base
        return [f"s{base + i} = {value}" for i, value in enumerate(values)
                if value != f"s{base + i}"]

    def label_arity(self, depth: int) -> int:
        """Values a branch to relative ``depth`` carries."""
        return self.labels[-1 - depth].arity

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


#: Kinds that open a construct (and a label), and that close or split one.
_OPENERS = frozenset(("block", "loop", "if"))
_CLOSERS = frozenset(("else", "end"))

#: The prologue: (a token of the body that reads the name, its binding).
_PROLOGUE = (
    ("M.", "M = instance.memory"),
    ("G[", "G = instance.globals"),
    ("call(", "call = instance.call_function"),
    ("_br", "_br = None"),
)


@dataclass(slots=True)
class _Label:
    """One open construct of the function being generated.

    ``header`` is the index of its ``while True:`` line (a loop's driver).
    A construct keeps that region only when something leaves it: a bare
    ``break`` (``exits``), a ``_br`` jump to it (``targeted``) or one
    passing through it to an outer label (``crossed``); those two also
    decide the ``_br`` tests after it.  A loop's body region is always kept
    (its back-edge is ``continue``); its driver only re-enters the body for
    a ``_br`` jump to the loop.
    """

    id: int
    kind: str
    base: int
    arity: int
    header: int
    exits: bool = False
    targeted: bool = False
    crossed: bool = False


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
            chunks.append(_FunctionCodeGen(self.module, i, lowered).generate())
        return "\n\n\n".join(chunks) + "\n"


def _exec_namespace() -> Dict[str, object]:
    """Globals injected into the generated code's namespace."""
    namespace = {
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
        "MemoryOutOfBoundsTrap": MemoryOutOfBoundsTrap,
    }
    # LLVM's inlined scalar accesses: ``_LD_<code>``/``_ST_<code>`` unpack
    # from / pack into the memory's buffer with struct code ``<code>``.
    for code in "BHIQbhiqfd":
        layout = struct.Struct("<" + code)
        namespace["_LD_" + code] = layout.unpack_from
        namespace["_ST_" + code] = layout.pack_into
    return namespace


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

    def __init__(self, module: Module, lowered: Sequence[LoweredFunction], fold: bool):
        namespace = _exec_namespace()
        super().__init__(
            self._stub(module, i, fn, namespace, fold) for i, fn in enumerate(lowered)
        )

    def _stub(self, module: Module, index: int, lowered: LoweredFunction, namespace: dict,
              fold: bool):
        def generate_then_call(instance, args):
            gen = _FunctionCodeGen(module, index, lowered, fold=fold)
            exec(compile(gen.generate(), "<wasm-generated-function>", "exec"), namespace)  # noqa: S102
            self[index] = function = namespace[gen.func_name]
            return function(instance, args)

        return generate_then_call


class GeneratedCodeExecutor(Executor):
    """Executes generated Python callables: LLVM's and Cranelift's tier.

    ``functions`` is indexed by module-local function index: the callables
    of LLVM's artifact, compiled up front, or Cranelift's
    :class:`FirstCallTable`, filled in as functions are first called.
    """

    name = "generated"

    def __init__(self, functions: List):
        self._functions = functions

    def call(self, instance: Instance, func_index: int, args: List) -> List:
        local_index = func_index - len(instance.host_calls)
        return self._functions[local_index](instance, args)


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
