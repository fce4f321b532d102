"""Project-invariant linter: rule units, baseline round-trip, self-lint."""

from __future__ import annotations

import textwrap

from repro.analysis.codelint import (
    apply_baseline,
    baseline_key,
    lint_source,
    load_baseline,
    save_baseline,
    self_lint,
)
from repro.analysis.findings import Severity


def _rules(source: str, relpath: str = "src/repro/x.py"):
    report = lint_source(textwrap.dedent(source), relpath)
    return report, {f.rule for f in report.errors}


# ------------------------------------------------------------------ rule units


def test_wallclock_in_lock_code_is_flagged():
    _, rules = _rules("""
        import time

        def check_lock_deadline(deadline):
            return time.time() > deadline
    """)
    assert "no-wallclock-in-lock-code" in rules


def test_wallclock_in_if_condition_is_flagged():
    # Regression: calls inside the *test* expression of an `if` must be
    # visited too (the guard-depth tracking visitor used to skip them).
    _, rules = _rules("""
        import time

        class Cache:
            LOCK_TIMEOUT = 5.0

            def stale(self, observed):
                if time.time() - observed.st_mtime <= self.LOCK_TIMEOUT:
                    return False
                return True
    """)
    assert "no-wallclock-in-lock-code" in rules


def test_wallclock_outside_lock_code_is_fine():
    _, rules = _rules("""
        import time

        def timestamp_report(report):
            report["generated_at"] = time.time()
    """)
    assert "no-wallclock-in-lock-code" not in rules


def test_env_reads_flagged_outside_envvars_module():
    _, rules = _rules("""
        import os

        def configure():
            a = os.environ["REPRO_MODE"]
            b = os.getenv("REPRO_CACHE", "")
            return a, b
    """)
    assert "env-reads-via-envvars" in rules
    _, rules = _rules(
        """
        import os

        def read():
            return os.environ["REPRO_MODE"]
        """,
        relpath="src/repro/core/envvars.py",
    )
    assert "env-reads-via-envvars" not in rules


def test_env_reread_below_the_resolver_and_env_writes_flagged():
    reread = """
        from repro.core import envvars

        def cache_dir():
            return envvars.read_env("REPRO_CACHE_DIR")
    """
    _, rules = _rules(reread, relpath="src/repro/harness/campaign.py")
    assert "env-resolved-once" in rules
    _, rules = _rules("from repro.core.envvars import env_flag",
                      relpath="src/repro/mpi/runtime.py")
    assert "env-resolved-once" in rules
    # The resolver, and default_session() alone in api/session.py, may read.
    _, rules = _rules(reread, relpath="src/repro/api/config.py")
    assert "env-resolved-once" not in rules
    in_session = """
        from repro.core import envvars

        def {name}():
            return envvars.snapshot()
    """
    _, rules = _rules(in_session.format(name="default_session"),
                      relpath="src/repro/api/session.py")
    assert "env-resolved-once" not in rules
    _, rules = _rules(in_session.format(name="current_session"),
                      relpath="src/repro/api/session.py")
    assert "env-resolved-once" in rules
    # Writes are errors everywhere, the accessor module included.
    for write in ('os.environ["REPRO_CACHE_DIR"] = "/tmp/x"',
                  'os.environ.pop("REPRO_CACHE_DIR", None)',
                  'os.environ.setdefault("REPRO_CACHE_DIR", "/tmp/x")'):
        _, rules = _rules(f"import os\n{write}", relpath="src/repro/core/envvars.py")
        assert "env-resolved-once" in rules, write


def test_mutable_default_args_flagged():
    _, rules = _rules("""
        def f(xs=[]):
            return xs

        def g(m=dict()):
            return m
    """)
    assert "no-mutable-default-args" in rules
    _, rules = _rules("""
        def f(xs=None, y=0, name=""):
            return xs
    """)
    assert "no-mutable-default-args" not in rules


def test_bare_except_flagged():
    _, rules = _rules("""
        def f():
            try:
                return 1
            except:
                return 0
    """)
    assert "no-bare-except" in rules
    _, rules = _rules("""
        def f():
            try:
                return 1
            except Exception:
                return 0
    """)
    assert "no-bare-except" not in rules


HOOKS = ("tracer", "faults", "capture", "profiler")


def test_recorder_fastpath_guard_rule():
    """A call on a job hook (which is None when off) must sit under a guard on
    that same hook -- for each of the four hooks, as an attribute, a private
    attribute or a local."""
    for hook in HOOKS:
        for ref in (f"self.{hook}", f"self._{hook}", hook):
            _, rules = _rules(f"""
                def hot_loop(self, step):
                    {ref}.record(step)
            """)
            assert "obs-fastpath-discipline" in rules, ref
            for guard in (f"{ref} is not None", ref, f"step and {ref} is not None"):
                _, rules = _rules(f"""
                    def hot_loop(self, step):
                        if {guard}:
                            {ref}.record(step)
                """)
                assert "obs-fastpath-discipline" not in rules, guard
            # A guard that does not prove this hook present is no guard.
            for guard in (f"{ref} is None", f"not {ref}", f"step or {ref}",
                          "self.other is not None"):
                _, rules = _rules(f"""
                    def hot_loop(self, step):
                        if {guard}:
                            {ref}.record(step)
                """)
                assert "obs-fastpath-discipline" in rules, guard
            _, rules = _rules(f"""
                def hot_loop(self, step):
                    if {ref} is not None:
                        pass
                    else:
                        {ref}.record(step)
                    {ref}.record(step)
            """)
            assert "obs-fastpath-discipline" in rules, ref
        other = HOOKS[(HOOKS.index(hook) + 1) % len(HOOKS)]
        report, _ = _rules(f"""
            def hot_loop(self, step):
                if self.{other} is not None:
                    self.{hook}.record(step)
        """)
        assert [f.rule for f in report.errors] == ["obs-fastpath-discipline"]
    # A hook the function holds for certain needs no guard: the one a ``with``
    # entry point yields, or a parameter that cannot be None.
    _, rules = _rules("""
        def run(job):
            with tracing() as tracer:
                job()
            return tracer.snapshot()

        def report(profiler: InterpreterProfiler):
            return profiler.report()
    """)
    assert "obs-fastpath-discipline" not in rules
    _, rules = _rules("""
        def report(profiler: Optional[InterpreterProfiler]):
            return profiler.report()
    """)
    assert "obs-fastpath-discipline" in rules


def test_an_unguarded_hook_call_in_the_matching_engine_is_flagged():
    """Mutation test: drop the guard of one checked-in tracer call."""
    from pathlib import Path

    import repro.mpi.pt2pt as pt2pt

    source = Path(pt2pt.__file__).read_text()
    relpath = "src/repro/mpi/pt2pt.py"
    _, rules = _rules(source, relpath)
    assert "obs-fastpath-discipline" not in rules
    guard = "        if self._tracer is not None:\n            self._tracer.instant(\n"
    assert guard in source
    mutant = source.replace(guard, "        if True:\n            self._tracer.instant(\n", 1)
    report, rules = _rules(mutant, relpath)
    assert [f.rule for f in report.errors] == ["obs-fastpath-discipline"]


def test_a_module_global_hook_is_flagged():
    """Mutation test: put the process-wide ``ENABLED`` flag back into
    ``obs/trace.py``, switched on by a module function."""
    from pathlib import Path

    import repro.obs.trace as trace

    source = Path(trace.__file__).read_text()
    relpath = "src/repro/obs/trace.py"
    _, rules = _rules(source, relpath)
    assert "no-module-hooks" not in rules
    mutant = source + textwrap.dedent("""

        ENABLED = False


        def enable_tracing():
            global ENABLED
            ENABLED = True
    """)
    report, rules = _rules(mutant, relpath)
    [finding] = [f for f in report.errors if f.rule == "no-module-hooks"]
    assert finding.details["baseline_key"] == (
        "no-module-hooks::src/repro/obs/trace.py::enable_tracing")
    # The two process-wide warm sessions are the allowed sites, and code
    # outside the package is not the rule's business.
    warm = """
        _SESSION = None

        def {function}():
            global _SESSION
            _SESSION = object()
    """
    _, rules = _rules(warm.format(function="default_session"), "src/repro/api/session.py")
    assert "no-module-hooks" not in rules
    _, rules = _rules(warm.format(function="_init_worker_session"),
                      "src/repro/harness/campaign.py")
    assert "no-module-hooks" not in rules
    _, rules = _rules(warm.format(function="other_session"), "src/repro/api/session.py")
    assert "no-module-hooks" in rules
    _, rules = _rules(warm.format(function="default_session"), "src/repro/harness/campaign.py")
    assert "no-module-hooks" in rules
    _, rules = _rules(warm.format(function="anything"), "benchmarks/e2e/run.py")
    assert "no-module-hooks" not in rules


def test_direct_pt2pt_in_an_algorithm_module_is_flagged():
    direct = """
        def gather_linear(cc, sendbuf, root, tag):
            if cc.rank != root:
                cc.send(root, tag, bytes(sendbuf))
            else:
                return cc.recv(1, tag, len(sendbuf))
    """
    report, rules = _rules(direct, "src/repro/mpi/algorithms/gather_scatter.py")
    assert "no-direct-pt2pt-in-algorithms" in rules
    assert len(report.errors) == 2  # the send and the recv
    # The executor is the one place that talks to the context; code outside
    # the algorithms package is not this rule's business.
    for elsewhere in ("src/repro/mpi/algorithms/schedule.py", "src/repro/mpi/runtime.py"):
        _, rules = _rules(direct, elsewhere)
        assert "no-direct-pt2pt-in-algorithms" not in rules


def test_a_second_block_site_in_mpi_is_flagged():
    """Mutation test: the checked-in matching engine has one block site; a
    rendezvous wait that blocks on its own (the shape of the deleted
    ``MatchingEngine.wait_send``) is a second one."""
    from pathlib import Path

    import repro.mpi.pt2pt as pt2pt

    source = Path(pt2pt.__file__).read_text()
    relpath = "src/repro/mpi/pt2pt.py"
    _, rules = _rules(source, relpath)
    assert "one-block-site-in-mpi" not in rules
    anchor = "    def block_for_any(\n"
    assert anchor in source
    mutant = source.replace(anchor, textwrap.indent(textwrap.dedent("""
        def wait_send(self, ctx, msg):
            while not msg.consumed:
                ctx.block(reason="rendezvous send")

    """), "    ") + anchor)
    report, rules = _rules(mutant, relpath)
    assert "one-block-site-in-mpi" in rules
    [finding] = [f for f in report.errors if f.rule == "one-block-site-in-mpi"]
    assert finding.details["baseline_key"] == (
        "one-block-site-in-mpi::src/repro/mpi/pt2pt.py::MatchingEngine.wait_send")
    # The same call is no business of the rule outside the MPI package, and
    # the allowed name is no excuse in another file of it.
    blocking = """
        class MatchingEngine:
            def block_for_any(self, ctx):
                ctx.block("x")
    """
    _, rules = _rules(blocking, "src/repro/sim/engine.py")
    assert "one-block-site-in-mpi" not in rules
    _, rules = _rules(blocking, "src/repro/mpi/runtime.py")
    assert "one-block-site-in-mpi" in rules


def test_a_second_dispatch_loop_in_wasm_is_flagged():
    """Mutation test: the checked-in interpreter has one dispatch loop; an
    instrumented twin of it (the shape of the profiler's deleted loop) is a
    second one."""
    from pathlib import Path

    import repro.wasm.interpreter as interpreter

    source = Path(interpreter.__file__).read_text()
    relpath = "src/repro/wasm/interpreter.py"
    _, rules = _rules(source, relpath)
    assert "one-dispatch-loop" not in rules
    twin = textwrap.indent(textwrap.dedent("""

        def _exec_twin(self, prof, st, code, pc, n):
            tick = prof.dispatches
            while pc < n:
                op = code[pc]
                handler = op[0]
                tick += 1
                pc = handler(st, pc, op[1])
            prof.dispatches = tick
            return pc
    """), "    ")
    report, rules = _rules(source.rstrip("\n") + "\n" + twin, relpath)
    assert "one-dispatch-loop" in rules
    [finding] = [f for f in report.errors if f.rule == "one-dispatch-loop"]
    assert finding.details["baseline_key"] == (
        "one-dispatch-loop::src/repro/wasm/interpreter.py::Interpreter._exec_twin")
    # A directly indexed call is the same loop; outside the Wasm package the
    # shape is no business of the rule, and the allowed name is no excuse in
    # another file of it.
    loop = """
        class Interpreter:
            def _exec(self, st, code, pc, n):
                while pc < n:
                    pc = code[pc][0](st, pc, code[pc][1])
    """
    _, rules = _rules(loop, "src/repro/sim/engine.py")
    assert "one-dispatch-loop" not in rules
    _, rules = _rules(loop, "src/repro/wasm/compilers/llvm.py")
    assert "one-dispatch-loop" in rules


def test_a_second_per_ir_kind_table_is_flagged():
    """Mutation test: the verifier reads each kind's row; putting its old
    per-kind stack-effect table or immediate if-chain back is reported."""
    from pathlib import Path

    import repro.analysis.ir_verify as ir_verify
    from repro.analysis.codelint import IR_KINDS_LIMIT

    source = Path(ir_verify.__file__).read_text()
    relpath = "src/repro/analysis/ir_verify.py"
    _, rules = _rules(source, relpath)
    assert "ir-kinds-in-one-table" not in rules
    table = textwrap.dedent("""

        CHAIN_STACK_EFFECT: Dict[str, Tuple[int, int]] = {
            "nop": (0, 0), "drop": (1, 0), "select": (3, 1),
            "local.get": (0, 1), "local.set": (1, 0), "local.tee": (1, 1),
            "global.get": (0, 1), "global.set": (1, 0), "const": (0, 1),
            "bin": (2, 1), "un": (1, 1), "load.u": (1, 1), "store.i": (2, 0),
        }
    """)
    report, rules = _rules(source.rstrip("\n") + "\n" + table, relpath)
    [finding] = [f for f in report.errors if f.rule == "ir-kinds-in-one-table"]
    assert finding.details["baseline_key"] == (
        "ir-kinds-in-one-table::src/repro/analysis/ir_verify.py::<module>")
    kinds = ["block", "if", "else", "br_table", "call", "const", "bin", "un",
             "load.u", "fused.set_br"]
    chain = "def check(kind, imm):\n" + "".join(
        f"    {'if' if i == 0 else 'elif'} kind == {k!r}:\n        return {i}\n"
        for i, k in enumerate(kinds))
    _, rules = _rules(chain, "src/repro/wasm/compilers/llvm.py")
    assert "ir-kinds-in-one-table" in rules
    # At the limit, in the rows module, or naming only kinds that are also
    # Wasm instruction names (an instruction table), it is no finding.
    _, rules = _rules("def check(label_kind):\n    return label_kind in (" + ", ".join(
        repr(k) for k in kinds[:IR_KINDS_LIMIT]) + ")\n")
    assert "ir-kinds-in-one-table" not in rules
    _, rules = _rules(chain, "src/repro/wasm/ir.py")
    assert "ir-kinds-in-one-table" not in rules
    _, rules = _rules("_CONTEXTUAL = frozenset({" + ", ".join(repr(k) for k in (
        "block", "loop", "if", "else", "end", "br", "br_if", "br_table", "return",
        "local.get")) + "})\n")
    assert "ir-kinds-in-one-table" not in rules


def test_a_second_guest_binding_is_flagged():
    """Mutation test: the checked-in native mode reaches the runtime only
    through the embedder's host functions; a guest method that calls it
    directly (the shape of the deleted ``NativeAPI.send``) is a second
    binding."""
    from pathlib import Path

    import repro.baselines.native as native
    from repro.analysis import codelint
    from repro.mpi.algorithms.registry import COLLECTIVES

    source = Path(native.__file__).read_text()
    relpath = "src/repro/baselines/native.py"
    _, rules = _rules(source, relpath)
    assert "one-guest-binding" not in rules
    mutant = source + textwrap.dedent("""

        class NativeAPI:
            def send(self, buf, count, datatype, dest, tag, comm=0):
                self.runtime.send(self._buffer(buf, count), count, datatype, dest, tag,
                                  self._comm(comm))
                return 0
    """)
    report, rules = _rules(mutant, relpath)
    [finding] = [f for f in report.errors if f.rule == "one-guest-binding"]
    assert finding.details["baseline_key"] == (
        "one-guest-binding::src/repro/baselines/native.py::NativeAPI.send")
    # Every collective and its i form is an entry point; the MPI package and
    # the embedder's imports may call them, and a clock query is no binding.
    assert {*COLLECTIVES, *("i" + c for c in COLLECTIVES)} <= codelint._RUNTIME_ENTRY_POINTS
    call = """
        def post(env):
            return env.runtime.ialltoall(1, 2, 3)
    """
    assert "one-guest-binding" in _rules(call, "src/repro/core/guest_api.py")[1]
    assert "one-guest-binding" not in _rules(call, "src/repro/core/mpi_imports.py")[1]
    assert "one-guest-binding" not in _rules(call, "src/repro/mpi/runtime.py")[1]
    clock = """
        def tick(runtime):
            runtime.ctx.advance(runtime.wtick())
    """
    assert "one-guest-binding" not in _rules(clock, "src/repro/fault/recover.py")[1]


def test_a_second_host_call_path_is_flagged():
    """Mutation test: the checked-in interpreter runs module-defined
    functions only; putting back its old host branch and call-depth key
    (``isinstance(target, HostFunction)``, ``instance.host_state``) is
    reported, and so is a ``host_state`` in the runtime itself."""
    from pathlib import Path

    import repro.wasm.interpreter as interpreter
    import repro.wasm.runtime as runtime

    source = Path(interpreter.__file__).read_text()
    relpath = "src/repro/wasm/interpreter.py"
    _, rules = _rules(source, relpath)
    assert "host-calls-bound-once" not in rules
    mutant = source.replace(
        "        return self._exec(instance, instance.functions[func_index], args)\n",
        textwrap.indent(textwrap.dedent("""\
            target = instance.functions[func_index]
            if isinstance(target, (runtime.HostFunction, WasmFunction)):
                return [target.callable(instance, *args)]
            depth = instance.host_state.get("_call_depth", 0)
            return self._exec(instance, target, args)
        """), "        "))
    assert mutant != source
    report, _ = _rules(mutant, relpath)
    findings = [f for f in report.errors if f.rule == "host-calls-bound-once"]
    assert len(findings) == 2
    assert {f.details["baseline_key"] for f in findings} == {
        "host-calls-bound-once::src/repro/wasm/interpreter.py::Interpreter.call"}
    # The runtime may test for a host function, but holds no host_state.
    runtime_source = Path(runtime.__file__).read_text()
    _, rules = _rules(runtime_source + "\n\ndef f(x):\n    return isinstance(x, HostFunction)\n",
                      "src/repro/wasm/runtime.py")
    assert "host-calls-bound-once" not in rules
    _, rules = _rules(runtime_source + "\n\ndef f(instance):\n    return instance.host_state\n",
                      "src/repro/wasm/runtime.py")
    assert "host-calls-bound-once" in rules


def test_an_unused_import_is_flagged(tmp_path):
    """Mutation test: the checked-in builder reads every name it imports; an
    import it never reads is reported, unless the module exports it in
    ``__all__`` or another linted file imports it from there."""
    from pathlib import Path

    import repro.wasm.builder as builder
    from repro.analysis.codelint import lint_paths

    source = Path(builder.__file__).read_text()
    relpath = "src/repro/wasm/builder.py"
    _, rules = _rules(source, relpath)
    assert "no-unused-import" not in rules
    mutated = source.replace("from __future__ import annotations\n",
                             "from __future__ import annotations\n\nimport struct\n", 1)
    report, rules = _rules(mutated, relpath)
    [finding] = [f for f in report.errors if f.rule == "no-unused-import"]
    assert finding.details["baseline_key"] == "no-unused-import::src/repro/wasm/builder.py::<module>"
    assert "'struct'" in finding.message
    # Read, exported, in a package __init__, or outside repro/: no finding.
    for text, path in (
        ("import struct\n\ndef f(x: struct.Struct):\n    return x\n", relpath),
        ("import struct\n\n__all__ = ['struct']\n", relpath),
        ("import struct\n", "src/repro/wasm/__init__.py"),
        ("import struct\n", "tools/script.py"),
    ):
        _, rules = _rules(text, path)
        assert "no-unused-import" not in rules, (text, path)
    # A name another file imports from the module is a re-export.
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "a.py").write_text("from typing import Dict, List\n")
    (package / "b.py").write_text("from repro.a import Dict\n\nX: Dict = {}\n")
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [(f.location, f.rule) for f in report.errors] == [("src/repro/a.py:1", "no-unused-import")]
    assert "'List'" in report.errors[0].message


def test_an_unraised_error_is_flagged(tmp_path):
    """Mutation test: the checked-in checkpoint module raises both its
    errors; once nothing raises ``CheckpointStateMismatch`` it is reported.
    Catching a class or testing ``isinstance`` against it is no use; being
    constructed, raised by a helper it is handed to, or a base of a raised
    class is."""
    from pathlib import Path

    import repro.fault.checkpoint as checkpoint
    from repro.analysis.codelint import lint_paths

    def unraised(files):
        package = tmp_path / "src" / "repro"
        for relpath, text in files.items():
            path = package / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        for path in package.rglob("*.py"):
            path.unlink()
        return [(f.location, f.details["baseline_key"]) for f in report.errors
                if f.rule == "no-unraised-error"]

    source = Path(checkpoint.__file__).read_text()
    assert unraised({"fault/checkpoint.py": source}) == []
    assert source.count("raise CheckpointStateMismatch(") == 2
    mutant = source.replace("raise CheckpointStateMismatch(", "raise CheckpointError(")
    [(location, key)] = unraised({"fault/checkpoint.py": mutant})
    assert location.startswith("src/repro/fault/checkpoint.py:")
    assert key == "no-unraised-error::src/repro/fault/checkpoint.py::CheckpointStateMismatch"
    assert unraised({
        "errors.py": """
            class BaseError(Exception): pass
            class RaisedError(BaseError): pass
            class HandedError(ValueError): pass
            class CaughtError(Exception): pass
            class NotAnError: pass
        """,
        "use.py": """
            from repro.errors import CaughtError, HandedError, RaisedError

            def f(report, exc):
                report.raise_if_error(HandedError, "prefix: ")
                if isinstance(exc, CaughtError):
                    raise RaisedError("x")
                try:
                    pass
                except CaughtError:
                    pass
        """,
    }) == [("src/repro/errors.py:5", "no-unraised-error::src/repro/errors.py::CaughtError")]


def test_findings_carry_location_and_baseline_key():
    report, _ = _rules("""
        def f(xs=[]):
            return xs
    """)
    [finding] = report.errors
    assert finding.severity is Severity.ERROR
    assert finding.location.startswith("src/repro/x.py:")
    assert finding.details["baseline_key"] == "no-mutable-default-args::src/repro/x.py::f"
    assert baseline_key(finding) == finding.details["baseline_key"]


def test_syntax_error_is_a_finding_not_a_crash():
    report = lint_source("def broken(:\n", "src/repro/x.py")
    assert not report.ok


# ------------------------------------------------------------------- baseline


def test_baseline_round_trip_demotes_to_notes(tmp_path):
    report, _ = _rules("""
        def f(xs=[]):
            return xs
    """)
    path = tmp_path / "baseline.json"
    keys = save_baseline(report, path)
    assert load_baseline(path) == keys == sorted(keys)
    applied = apply_baseline(report, load_baseline(path))
    assert applied.ok
    [note] = applied.notes
    assert note.severity is Severity.NOTE
    assert note.message.startswith("baselined: ")
    # A finding NOT in the baseline stays an error.
    fresh, _ = _rules("""
        def f(xs=[]):
            return xs

        def g(ys=[]):
            return ys
    """)
    applied = apply_baseline(fresh, keys)
    assert not applied.ok and len(applied.errors) == 1


def test_self_lint_is_clean_against_checked_in_baseline():
    report, baseline_path = self_lint()
    assert baseline_path.name == ".codelint-baseline.json"
    assert baseline_path.exists(), "checked-in baseline missing"
    assert report.ok, report.format_text()
