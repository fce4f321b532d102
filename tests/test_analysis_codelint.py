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


def test_recorder_fastpath_guard_rule():
    _, rules = _rules("""
        from repro.obs import trace

        def hot_loop(step):
            trace.RECORDER.record(step)
    """)
    assert "obs-fastpath-discipline" in rules
    _, rules = _rules("""
        from repro.obs import trace

        def hot_loop(step):
            if trace.ENABLED:
                trace.RECORDER.record(step)
    """)
    assert "obs-fastpath-discipline" not in rules


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
