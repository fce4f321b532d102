"""AST-based project-invariant linter (stdlib ``ast`` only).

Each rule encodes an invariant this repo has already paid for in bugfixes --
the linter exists so those regressions stay fixed:

* ``no-wallclock-in-lock-code`` -- ``time.time()`` inside a function that
  deals in locks/deadlines/timeouts.  PR 8 replaced wall-clock deadline
  arithmetic with ``time.monotonic()`` after wall-clock adjustments produced
  spurious lock expiries; new timing code must not reintroduce it.
* ``env-reads-via-envvars`` -- ``os.environ`` / ``os.getenv`` anywhere but
  ``core/envvars.py``.  PR 5 consolidated every knob behind typed accessors
  so ``repro-harness campaign`` can enumerate and pin them; a stray read is
  an invisible knob.
* ``env-resolved-once`` -- a call into a ``core/envvars.py`` reader anywhere
  but the configuration resolver (``api/config.py``) and
  ``api/session.py::default_session``, or any write to ``os.environ``.  PR 14
  deleted the run path that re-read ``REPRO_*`` below the session (and the
  campaign runner's ``os.environ`` export that fed it): a job's settings come
  from its ``Session``'s resolved configuration, whose provenance
  ``config.explain()`` reports, and a process-global mutable channel is not
  safe under the serve daemon's worker threads.
* ``no-mutable-default-args`` -- the classic shared-state trap.
* ``no-bare-except`` -- swallows ``KeyboardInterrupt``/``SystemExit``; name
  an exception type (``Exception`` at the broadest).
* ``obs-fastpath-discipline`` -- a call on a job hook (``tracer``,
  ``faults``, ``capture``, ``profiler``; ``_``-prefixed too) outside a
  ``hook is not None`` or truthiness guard on that hook, unless the function
  holds it (``with ... as hook``, a non-``Optional`` parameter): a hook that
  is off is ``None``, and the disabled path must build no event arguments
  (BENCH gates assume a sub-1% disabled-path cost).
* ``no-module-hooks`` -- a ``global`` statement under ``repro/`` but in the
  two process-wide warm sessions (``_GLOBAL_SITES``).  Tracing, profiling,
  fault plans and checkpoint capture were module globals, so one job's hook
  applied to every job in the process; job state travels with the job.
* ``no-direct-pt2pt-in-algorithms`` -- a ``.send(``/``.recv(`` call inside
  ``mpi/algorithms/`` anywhere but ``schedule.py``.  PR 13 made the schedule
  the only implementation of a collective; an algorithm that talks to the
  ``CollectiveContext`` itself is invisible to the schedule analyzer, the NBC
  path, round-boundary checkpoints and at-round fault plans.
* ``one-block-site-in-mpi`` -- a ``.block(`` call under ``mpi/`` anywhere
  but ``MatchingEngine.block_for_any``.  Every blocking MPI call waits in
  the runtime's one wait, which blocks there; a second block site is a wait
  that registers no patterns and runs no progress -- which is how a
  rendezvous ``MPI_Send`` once deadlocked beside an outstanding
  ``MPI_Ibcast``.
* ``one-dispatch-loop`` -- a ``while`` loop under ``wasm/`` that sets ``pc``
  from a call of an indexed handler (``pc = code[pc][0](...)``, or a name
  bound from a subscript) anywhere but ``Interpreter._exec``.  The profiler
  once had a hand-copied twin of the dispatch loop whose stale local counter
  overwrote a callee's dispatches; profiling now swaps the code array the one
  loop runs, and a second loop would drift from it again.
* ``one-guest-binding`` -- a call of an ``MPIRuntime`` MPI entry point
  (point-to-point, completion, communicator and lifecycle calls, every
  collective and its ``i`` form) on a ``runtime`` outside ``mpi/`` and
  ``core/mpi_imports.py``.  Native mode once had a guest binding of its own
  that called the runtime directly, and wherever its translation differed
  from the embedder's -- a negative count killed the job instead of
  returning ``MPI_ERR_COUNT`` -- the wasm-vs-native gap measured that
  difference instead of the embedder.  Both modes now call the
  ``env.MPI_*`` host functions; a second binding would drift from them
  again.
* ``ir-kinds-in-one-table`` -- outside ``wasm/ir.py``, a function comparing
  a ``*kind`` variable against more than :data:`IR_KINDS_LIMIT` lowered-IR
  kinds, or a module-level dict/set literal keyed by more than that many,
  one of them a kind of the IR's own (``bin``, ``fused.*``; not only Wasm
  instruction names such as ``block``).  Eight such tables and if-chains
  once had to agree on each kind, and a dead kind outlived an IR version in
  two; each kind is now one row of ``repro.wasm.ir.OPS``.
* ``no-unused-import`` -- a top-level import in a module under ``repro/``
  (not a package ``__init__``) whose name the module never reads, does not
  list in ``__all__``, and no other linted file imports from it.  The
  sweep that came with the rule deleted 47 such names in 24 modules, left
  behind as code moved; an unread import is a dependency nobody can see is
  dead.
* ``no-unraised-error`` -- an exception class in a module under ``repro/``
  that no linted file raises, constructs or hands to a call (a class a
  helper raises, such as ``report.raise_if_error(CheckpointError)``), and
  that is not a base of a class that is.  An error nothing raises is a
  branch of every ``except`` clause naming it that cannot run, and a
  promise in the error taxonomy the code does not keep.
* ``host-calls-bound-once`` -- an ``isinstance(..., HostFunction)`` test
  outside ``wasm/runtime.py``, or any ``host_state`` attribute.  A host
  import was once dispatched in three places, and every MPI import looked
  its ``Env`` and translator up in an instance's ``host_state`` dict per
  call; instantiation now binds each import to its instance and ``Env``.

Findings are baseline-gated: :func:`apply_baseline` demotes violations whose
stable key (``rule::relpath::qualname`` -- line numbers excluded, so pure
code motion never churns the baseline) appears in the checked-in
``.codelint-baseline.json`` to notes; anything new stays an error.  CI runs
``repro-harness analyze lint --self`` and fails on new violations only.
"""

from __future__ import annotations

import ast
import builtins
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Report, Severity
from repro.wasm.ir import MINED, OPS
from repro.wasm.opcodes import BY_NAME

#: Identifier fragments that mark a function as lock/deadline code for the
#: wall-clock rule.
_TIMING_HINTS = ("lock", "deadline", "timeout", "expire", "expiry", "stale")

#: Default baseline file name, resolved against the lint root.
BASELINE_NAME = ".codelint-baseline.json"

#: Files exempt from ``env-reads-via-envvars`` (the accessor module itself).
_ENV_EXEMPT_SUFFIX = ("core/envvars.py",)

#: ``env-resolved-once``: the ``core/envvars.py`` functions that read the
#: process environment, and the (file suffix, enclosing function or ``None``
#: for the whole file) pairs allowed to call them.
_ENV_READERS = ("read_env", "env_flag", "snapshot", "config_file")
_ENV_READER_CALLERS = (
    ("core/envvars.py", None),
    ("api/config.py", None),
    ("api/session.py", "default_session"),
)
#: ``os.environ`` methods that mutate the process environment.
_ENVIRON_MUTATORS = ("pop", "setdefault", "update")

#: Where ``no-direct-pt2pt-in-algorithms`` applies, and the one file there
#: (the schedule executor) that talks to the ``CollectiveContext``.
_ALGORITHMS_DIR = "mpi/algorithms/"
_ALGORITHMS_EXECUTOR = "mpi/algorithms/schedule.py"

#: ``one-block-site-in-mpi``: the package it covers, and its one block site
#: (file suffix, qualified name).
_MPI_DIR = "/mpi/"
_MPI_BLOCK_SITE = ("mpi/pt2pt.py", "MatchingEngine.block_for_any")

#: ``one-dispatch-loop``: the package it covers, and its one dispatch loop
#: (file suffix, qualified name).
_WASM_DIR = "/wasm/"
_DISPATCH_LOOP = ("wasm/interpreter.py", "Interpreter._exec")

#: ``one-guest-binding``: the ``MPIRuntime`` entry points a guest binding
#: would call (the clock queries ``wtime``/``wtick`` are not bindings), the
#: receivers that name a runtime, and the one binding outside ``mpi/``.
_COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
                "allgather", "alltoall")
_RUNTIME_ENTRY_POINTS = frozenset((
    "init", "finalize", "abort", "send", "recv", "sendrecv", "isend", "irecv",
    "wait", "waitall", "waitany", "test", "testall", "iprobe",
    "comm_rank", "comm_size", "comm_split", "comm_dup", "comm_free",
    *_COLLECTIVES, *("i" + name for name in _COLLECTIVES),
))
_RUNTIME_RECEIVERS = ("runtime", "MPIRuntime")
_GUEST_BINDING = "core/mpi_imports.py"

#: ``host-calls-bound-once``: the one module that may test for a host
#: function, and the instance side dict that is gone.
_HOST_FUNCTION = "HostFunction"
_HOST_FUNCTION_MODULE = "wasm/runtime.py"
_HOST_STATE = "host_state"

#: ``obs-fastpath-discipline``: the receiver names of a job's hooks.
_HOOK_NAMES = ("tracer", "faults", "capture", "profiler")

#: ``ir-kinds-in-one-table``: the lowered-IR kinds, the one module that may
#: list them, and how many one function's comparisons or one module-level
#: literal may name (the fusion pass compares 4, the verifier's walk 5).
_IR_KINDS = frozenset(OPS) | {MINED}
_IR_OWN_KINDS = _IR_KINDS - set(BY_NAME)
_IR_ROWS_MODULE = "wasm/ir.py"
IR_KINDS_LIMIT = 8

#: ``no-module-hooks``: the package it covers, and the (file suffix,
#: function) pairs that may hold a ``global`` statement.
_REPRO_DIR = "/repro/"
_GLOBAL_SITES = (
    ("api/session.py", "default_session"),
    ("harness/campaign.py", "_init_worker_session"),
)


def _qualname_stack(stack: Sequence[ast.AST]) -> str:
    names = [
        node.name
        for node in stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return ".".join(names) or "<module>"


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target, best effort (``time.time``, ``getenv``)."""
    parts: List[str] = []
    cur = node.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    return ".".join(reversed(parts))


def _receiver_name(node: ast.AST) -> str:
    """Last identifier of a call's receiver (``runtime`` for
    ``self.env.runtime``), or ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_hook(node: ast.AST) -> bool:
    """Whether ``node`` names a job hook (``tracer``, ``self._faults``, ...)."""
    name = node.arg if isinstance(node, ast.arg) else _receiver_name(node)
    return name.lstrip("_") in _HOOK_NAMES


def _hook_guards(test: ast.AST) -> List[str]:
    """The hooks a condition proves present: ``hook is not None`` or a bare
    ``hook``, alone or as operands of ``and``."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return [guard for value in test.values for guard in _hook_guards(value)]
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot) and ast.unparse(test.comparators[0]) == "None"):
        test = test.left
    return [ast.unparse(test)] if _is_hook(test) else []


def _held_hooks(func: ast.AST) -> List[str]:
    """Hooks a function holds for certain: bound by ``with ... as hook`` or
    taken as a parameter whose annotation does not admit ``None``."""
    held = [arg.arg for arg in func.args.args + func.args.kwonlyargs
            if arg.annotation is not None and _is_hook(arg)
            and not any(word in ast.unparse(arg.annotation) for word in ("Optional", "None"))]
    for sub in ast.walk(func):
        if isinstance(sub, (ast.With, ast.AsyncWith)):
            held += [ast.unparse(item.optional_vars) for item in sub.items
                     if item.optional_vars is not None and _is_hook(item.optional_vars)]
    return held


def _is_ir_kind(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value in _IR_KINDS


def _lists_ir_kinds(kinds: set) -> bool:
    """Whether a set of kind literals is a per-IR-kind table or chain."""
    return len(kinds) > IR_KINDS_LIMIT and not kinds.isdisjoint(_IR_OWN_KINDS)


def _names_a_kind(node: ast.AST) -> bool:
    """Whether ``node`` is a variable holding an op kind (``kind``,
    ``label_kind``, ``self.kind``)."""
    return _receiver_name(node).endswith("kind")


def _compared_ir_kinds(func: ast.AST) -> set:
    """The IR kinds a function compares a kind variable against (``==``,
    ``!=``, ``in`` a tuple/list/set of literals)."""
    kinds = set()
    for sub in ast.walk(func):
        if not isinstance(sub, ast.Compare):
            continue
        operands = [sub.left, *sub.comparators]
        if not any(_names_a_kind(op) for op in operands):
            continue
        for op in operands:
            elts = op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op]
            kinds.update(elt.value for elt in elts if _is_ir_kind(elt))
    return kinds


class _FileLinter(ast.NodeVisitor):
    """One file's lint pass; accumulates findings with baseline keys."""

    def __init__(self, relpath: str, env_exempt: bool):
        self.relpath = relpath
        self.env_exempt = env_exempt
        self.algorithm_module = (
            _ALGORITHMS_DIR in relpath and not relpath.endswith(_ALGORITHMS_EXECUTOR)
        )
        self.mpi_module = _MPI_DIR in f"/{relpath}"
        self.wasm_module = _WASM_DIR in f"/{relpath}"
        self.may_bind_guests = self.mpi_module or relpath.endswith(_GUEST_BINDING)
        self.may_list_ir_kinds = relpath.endswith(_IR_ROWS_MODULE)
        self.findings: List[Finding] = []
        self._stack: List[ast.AST] = []        # enclosing class/function defs
        self._guarded: List[str] = []          # hooks proven present here
        self._while_depth = 0                  # inside a while loop

    # ------------------------------------------------------------- reporting

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        qualname = _qualname_stack(self._stack)
        self.findings.append(Finding(
            analyzer="lint",
            rule=rule,
            severity=Severity.ERROR,
            message=message,
            location=f"{self.relpath}:{getattr(node, 'lineno', 0)}",
            details={"baseline_key": f"{rule}::{self.relpath}::{qualname}"},
        ))

    # ------------------------------------------------------------- traversal

    def _function_hints(self, node: ast.AST) -> bool:
        """Whether the enclosing function's identifiers mark timing code."""
        for anc in reversed(self._stack):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(h in anc.name.lower() for h in _TIMING_HINTS):
                    return True
                for sub in ast.walk(anc):
                    name = None
                    if isinstance(sub, ast.Name):
                        name = sub.id
                    elif isinstance(sub, ast.Attribute):
                        name = sub.attr
                    elif isinstance(sub, ast.arg):
                        name = sub.arg
                    if name and any(h in name.lower() for h in _TIMING_HINTS):
                        return True
                return False
        return False

    def _at_site(self, sites) -> bool:
        """Whether this spot is one of ``sites``: (file suffix, enclosing
        function or ``None`` for the whole file) pairs."""
        enclosing = {n.name for n in self._stack
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        return any(
            self.relpath.endswith(suffix) and (function is None or function in enclosing)
            for suffix, function in sites
        )

    def _may_read_env(self) -> bool:
        return self._at_site(_ENV_READER_CALLERS)

    def _visit_def(self, node) -> None:
        args = node.args
        defaults = list(args.defaults) + list(args.kw_defaults)
        for default in defaults:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _call_name(default) in ("list", "dict", "set", "bytearray")
                and not default.args and not default.keywords
            ):
                self._stack.append(node)
                self._report(
                    "no-mutable-default-args", default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls; default to None and allocate inside",
                )
                self._stack.pop()
        self._stack.append(node)
        for child in (*node.decorator_list, node.args, *([node.returns] if node.returns else [])):
            self.visit(child)
        self._visit_guarded(_held_hooks(node), node.body)
        kinds = _compared_ir_kinds(node)
        if not self.may_list_ir_kinds and _lists_ir_kinds(kinds):
            self._report("ir-kinds-in-one-table", node,
                         f"{node.name}() compares a kind against {len(kinds)} IR "
                         "kinds: read the kind's row of repro.wasm.ir.OPS instead")
        self._stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def _check_module_table(self, node) -> None:
        if self._stack or self.may_list_ir_kinds or node.value is None:
            return
        for sub in ast.walk(node.value):
            if isinstance(sub, (ast.Dict, ast.Set)):
                keys = sub.keys if isinstance(sub, ast.Dict) else sub.elts
                kinds = {key.value for key in keys if _is_ir_kind(key)}
                if _lists_ir_kinds(kinds):
                    self._report("ir-kinds-in-one-table", sub,
                                 f"a module-level table keyed by {len(kinds)} IR "
                                 "kinds: make it a column of repro.wasm.ir.OPS")

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_module_table(node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "no-bare-except", node,
                "bare 'except:' also swallows KeyboardInterrupt/SystemExit; "
                "catch Exception (or narrower)",
            )
        self.generic_visit(node)

    def _visit_guarded(self, guards: List[str], body: List[ast.stmt]) -> None:
        self._guarded.extend(guards)
        for child in body:
            self.visit(child)
        del self._guarded[len(self._guarded) - len(guards):]

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._visit_guarded(_hook_guards(node.test), node.body)
        for child in node.orelse:
            self.visit(child)

    def visit_Global(self, node: ast.Global) -> None:
        if _REPRO_DIR in f"/{self.relpath}" and not self._at_site(_GLOBAL_SITES):
            self._report("no-module-hooks", node,
                         f"global {', '.join(node.names)}: process-wide state applies "
                         "to every job; hand it down with the job (repro.obs.hooks)")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._while_depth += 1
        self.generic_visit(node)
        self._while_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_module_table(node)
        if (self.wasm_module and self._while_depth
                and any(isinstance(t, ast.Name) and t.id == "pc" for t in node.targets)
                and isinstance(node.value, ast.Call)
                and self._calls_indexed_handler(node.value.func)
                and not (self.relpath.endswith(_DISPATCH_LOOP[0])
                         and _qualname_stack(self._stack) == _DISPATCH_LOOP[1])):
            self._report(
                "one-dispatch-loop", node,
                "a second dispatch loop drifts from Interpreter._exec; to "
                "instrument dispatch, hand _exec a different code array",
            )
        self.generic_visit(node)

    def _calls_indexed_handler(self, func: ast.AST) -> bool:
        """Whether ``func`` is a subscript, or a name the enclosing function
        binds from one (``handler = op[0]``)."""
        if isinstance(func, ast.Subscript):
            return True
        if not isinstance(func, ast.Name):
            return False
        scope = next((n for n in reversed(self._stack)
                      if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))), None)
        return scope is not None and any(
            isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Subscript)
            and any(isinstance(t, ast.Name) and t.id == func.id for t in sub.targets)
            for sub in ast.walk(scope))

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name.endswith("time.time") or name == "time.time":
            if self._function_hints(node):
                self._report(
                    "no-wallclock-in-lock-code", node,
                    "time.time() in lock/deadline code jumps with wall-clock "
                    "adjustments; use time.monotonic()",
                )
        if not self.env_exempt and name in (
            "os.getenv", "getenv", "os.environ.get", "environ.get"
        ):
            self._report(
                "env-reads-via-envvars", node,
                f"{name}() bypasses core/envvars.py; add a typed accessor "
                "there so the knob is enumerable",
            )
        module, _, function = name.rpartition(".")
        if (function in _ENV_READERS and module.split(".")[-1] == "envvars"
                and not self._may_read_env()):
            self._report(
                "env-resolved-once", node,
                f"{name}() re-reads the environment below the configuration "
                "resolver; take the value from the Session's ResolvedConfig",
            )
        if module == "os.environ" and function in _ENVIRON_MUTATORS:
            self._report(
                "env-resolved-once", node,
                f"{name}() mutates the process environment; hand the value "
                "down through the job's Session instead",
            )
        if (self.algorithm_module and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "recv")):
            self._report(
                "no-direct-pt2pt-in-algorithms", node,
                f".{node.func.attr}() in a collective algorithm bypasses the "
                "schedule executor; emit a SendStep/RecvStep from the builder",
            )
        if (self.mpi_module and isinstance(node.func, ast.Attribute)
                and node.func.attr == "block"
                and not (self.relpath.endswith(_MPI_BLOCK_SITE[0])
                         and _qualname_stack(self._stack) == _MPI_BLOCK_SITE[1])):
            self._report(
                "one-block-site-in-mpi", node,
                ".block() outside MatchingEngine.block_for_any is a second "
                "wait: wait through MPIRuntime._wait_until instead",
            )
        if (not self.may_bind_guests and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RUNTIME_ENTRY_POINTS
                and _receiver_name(node.func.value) in _RUNTIME_RECEIVERS):
            self._report(
                "one-guest-binding", node,
                f"runtime.{node.func.attr}() outside the embedder's imports is "
                "a second guest binding: call the env.MPI_* host function "
                "(GuestAPI._call) instead",
            )
        if (name == "isinstance" and len(node.args) == 2
                and not self.relpath.endswith(_HOST_FUNCTION_MODULE)
                and _HOST_FUNCTION in {_receiver_name(sub) for sub in ast.walk(node.args[1])}):
            self._report("host-calls-bound-once", node,
                         "isinstance(..., HostFunction) dispatches a host import a second "
                         "way: call what the instance bound (Instance.host_call)")
        if (isinstance(node.func, ast.Attribute) and _is_hook(node.func.value)
                and ast.unparse(node.func.value) not in self._guarded):
            self._report("obs-fastpath-discipline", node,
                         f"{ast.unparse(node.func.value)}.{node.func.attr}() without "
                         "a guard on that hook: a hook that is off is None")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (node.module or "").endswith("core.envvars") and not self._may_read_env():
            for alias in node.names:
                if alias.name in _ENV_READERS:
                    self._report(
                        "env-resolved-once", node,
                        f"importing envvars.{alias.name} outside the "
                        "configuration resolver; take the value from the "
                        "Session's ResolvedConfig",
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == _HOST_STATE:
            self._report("host-calls-bound-once", node,
                         "host_state is a per-call side lookup: bind what a host function "
                         "needs once, when it is registered or instantiated")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (isinstance(node.value, ast.Attribute) and node.value.attr == "environ"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "os"):
            if not isinstance(node.ctx, ast.Load):
                self._report(
                    "env-resolved-once", node,
                    "os.environ[...] is written; hand the value down through "
                    "the job's Session instead",
                )
            elif not self.env_exempt:
                self._report(
                    "env-reads-via-envvars", node,
                    "os.environ[...] bypasses core/envvars.py; add a typed "
                    "accessor there so the knob is enumerable",
                )
        self.generic_visit(node)


def _module_name(relpath: str) -> Optional[str]:
    """Dotted module name of a file under ``repro/`` (``repro.wasm.ir``)."""
    parts = Path(relpath).with_suffix("").parts
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _unused_imports(tree: ast.Module, imported: Iterable[str]) -> Iterator[Tuple[ast.stmt, str]]:
    """Top-level imports whose name the module never reads, does not export
    in ``__all__``, and nobody imports from it (``imported``)."""
    kept = set(imported)
    kept.update(node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            kept.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        yield from ((node, name) for name in names if name not in kept)


def _imports_by_module(trees: Iterable[ast.Module]) -> Dict[str, Set[str]]:
    """The names ``from M import N`` statements in ``trees`` take from each
    module ``M`` (absolute imports: the repo uses no relative ones)."""
    imported: Dict[str, Set[str]] = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported[node.module].update(alias.name for alias in node.names)
    return imported


def _raised_names(tree: ast.Module) -> Iterator[str]:
    """Names a module raises, calls, or hands to a call other than
    ``isinstance``/``issubclass`` (a class a helper raises)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            yield _receiver_name(node.exc)
        elif isinstance(node, ast.Call):
            yield _receiver_name(node.func)
            if _call_name(node) not in ("isinstance", "issubclass"):
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    yield _receiver_name(arg)


def _unraised_errors(trees: Dict[str, ast.Module]) -> Iterator[Tuple[str, ast.ClassDef]]:
    """``(relpath, class)`` of each exception class under ``repro/`` that no
    tree raises or constructs, and that is no base of a class that is."""
    bases: Dict[str, Set[str]] = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name].update(_receiver_name(base) for base in node.bases)
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    while found := {name for name, parents in bases.items() if parents & errors} - errors:
        errors |= found         # a subclass of an exception class is one
    used = {name for tree in trees.values() for name in _raised_names(tree)}
    pending = list(used & errors)
    while pending:              # a base of a used class is used
        for parent in bases.get(pending.pop(), set()) - used:
            used.add(parent)
            pending.append(parent)
    for relpath, tree in trees.items():
        if _module_name(relpath) is not None:
            yield from ((relpath, node) for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) and node.name in errors - used)


def lint_source(source: str, relpath: str, report: Optional[Report] = None,
                imported: Iterable[str] = ()) -> Report:
    """Lint one file's source text; findings carry ``relpath:line`` locations.

    ``imported`` names what other files import from this module, which
    ``no-unused-import`` does not report (:func:`lint_paths` gathers it).
    """
    report = report if report is not None else Report()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        report.error("lint", "syntax-error", f"does not parse: {exc}",
                     f"{relpath}:{exc.lineno or 0}")
        return report
    env_exempt = any(relpath.endswith(sfx) for sfx in _ENV_EXEMPT_SUFFIX)
    linter = _FileLinter(relpath, env_exempt)
    linter.visit(tree)
    if _module_name(relpath) is not None and not relpath.endswith("__init__.py"):
        for node, name in _unused_imports(tree, imported):
            linter._report("no-unused-import", node,
                           f"{name!r} is imported but never read, exported or "
                           "imported from here elsewhere: delete the import")
    report.findings.extend(linter.findings)
    return report


def iter_python_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def lint_paths(paths: Sequence[Path], root: Optional[Path] = None) -> Report:
    """Lint every ``.py`` file under ``paths``; locations are ``root``-relative."""
    files: List[Tuple[str, str]] = []
    for base in paths:
        base = Path(base)
        rel_root = root if root is not None else (base if base.is_dir() else base.parent)
        for path in iter_python_files(base):
            try:
                relpath = path.relative_to(rel_root).as_posix()
            except ValueError:
                relpath = path.as_posix()
            files.append((relpath, path.read_text(encoding="utf-8")))
    trees: Dict[str, ast.Module] = {}
    for relpath, source in files:
        try:
            trees[relpath] = ast.parse(source)
        except SyntaxError:
            continue        # lint_source reports it
    imported = _imports_by_module(trees.values())
    report = Report()
    for relpath, source in files:
        lint_source(source, relpath, report, imported.get(_module_name(relpath), ()))
    for relpath, node in _unraised_errors(trees):
        report.findings.append(Finding(
            "lint", "no-unraised-error", Severity.ERROR,
            f"{node.name} is never raised or constructed, nor a base of an error that is",
            f"{relpath}:{node.lineno}",
            {"baseline_key": f"no-unraised-error::{relpath}::{node.name}"},
        ))
    return report


# ------------------------------------------------------------------- baseline


def baseline_key(finding: Finding) -> str:
    return finding.details.get("baseline_key", finding.key)


def load_baseline(path: Path) -> List[str]:
    if not Path(path).exists():
        return []
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"baseline {path} must be a JSON list of keys")
    return [str(k) for k in data]


def save_baseline(report: Report, path: Path) -> List[str]:
    """Write the sorted key set of ``report``'s lint errors as the baseline."""
    keys = sorted({
        baseline_key(f) for f in report.findings
        if f.analyzer == "lint" and f.severity is Severity.ERROR
    })
    Path(path).write_text(json.dumps(keys, indent=2) + "\n", encoding="utf-8")
    return keys


def apply_baseline(report: Report, baseline: Iterable[str]) -> Report:
    """Demote baselined violations to notes; new ones stay errors.

    Returns a new :class:`Report` (the input is not mutated).
    """
    allowed = set(baseline)
    out = Report()
    for finding in report.findings:
        if (finding.analyzer == "lint" and finding.severity is Severity.ERROR
                and baseline_key(finding) in allowed):
            out.add(finding.analyzer, finding.rule, Severity.NOTE,
                    f"baselined: {finding.message}", finding.location,
                    **finding.details)
        else:
            out.findings.append(finding)
    return out


def self_lint(repo_root: Optional[Path] = None,
              update_baseline: bool = False) -> Tuple[Report, Path]:
    """Lint this repo's ``src/`` tree against its checked-in baseline.

    Returns ``(baseline-applied report, baseline path)``; with
    ``update_baseline`` the current violations are written back first.
    """
    root = Path(repo_root) if repo_root is not None else _find_repo_root()
    src = root / "src"
    target = src if src.is_dir() else root
    report = lint_paths([target], root=root)
    baseline_path = root / BASELINE_NAME
    if update_baseline:
        save_baseline(report, baseline_path)
    return apply_baseline(report, load_baseline(baseline_path)), baseline_path


def _find_repo_root() -> Path:
    """The checkout root: nearest ancestor of this file holding ``src/``."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "src").is_dir() and (parent / "src" / "repro").is_dir():
            return parent
    return Path.cwd()
