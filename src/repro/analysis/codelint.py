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
* ``obs-fastpath-discipline`` -- calls on the trace ``RECORDER`` must sit
  under an ``ENABLED`` guard so the disabled-tracing fast path never
  constructs trace arguments (the PR 6 overhead contract: BENCH gates assume
  a sub-1% disabled-path cost).
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

Findings are baseline-gated: :func:`apply_baseline` demotes violations whose
stable key (``rule::relpath::qualname`` -- line numbers excluded, so pure
code motion never churns the baseline) appears in the checked-in
``.codelint-baseline.json`` to notes; anything new stays an error.  CI runs
``repro-harness analyze lint --self`` and fails on new violations only.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Report, Severity

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


class _FileLinter(ast.NodeVisitor):
    """One file's lint pass; accumulates findings with baseline keys."""

    def __init__(self, relpath: str, env_exempt: bool):
        self.relpath = relpath
        self.env_exempt = env_exempt
        self.algorithm_module = (
            _ALGORITHMS_DIR in relpath and not relpath.endswith(_ALGORITHMS_EXECUTOR)
        )
        self.mpi_module = _MPI_DIR in f"/{relpath}"
        self.findings: List[Finding] = []
        self._stack: List[ast.AST] = []        # enclosing class/function defs
        self._if_enabled_depth = 0             # inside an ENABLED-guarded if

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

    def _may_read_env(self) -> bool:
        """Whether this spot is one of ``_ENV_READER_CALLERS``."""
        enclosing = {n.name for n in self._stack
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        return any(
            self.relpath.endswith(suffix) and (function is None or function in enclosing)
            for suffix, function in _ENV_READER_CALLERS
        )

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
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "no-bare-except", node,
                "bare 'except:' also swallows KeyboardInterrupt/SystemExit; "
                "catch Exception (or narrower)",
            )
        self.generic_visit(node)

    @staticmethod
    def _mentions_enabled(test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Name) and sub.id == "ENABLED":
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "ENABLED":
                return True
        return False

    def visit_If(self, node: ast.If) -> None:
        guarded = self._mentions_enabled(node.test)
        self.visit(node.test)
        if guarded:
            self._if_enabled_depth += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._if_enabled_depth -= 1
        for child in node.orelse:
            self.visit(child)

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
        if ".RECORDER." in f".{name}." and self._if_enabled_depth == 0:
            self._report(
                "obs-fastpath-discipline", node,
                "RECORDER call without an ENABLED guard in scope: the "
                "disabled-tracing fast path must not construct trace args",
            )
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


def lint_source(source: str, relpath: str, report: Optional[Report] = None) -> Report:
    """Lint one file's source text; findings carry ``relpath:line`` locations."""
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
    report = Report()
    for base in paths:
        base = Path(base)
        rel_root = root if root is not None else (base if base.is_dir() else base.parent)
        for path in iter_python_files(base):
            try:
                relpath = path.relative_to(rel_root).as_posix()
            except ValueError:
                relpath = path.as_posix()
            lint_source(path.read_text(encoding="utf-8"), relpath, report)
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
