"""The analyze CLI: exit codes, JSON reports, harness mounting."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main as analyze_main
from repro.harness.cli import main as harness_main


def _write_record(path, artifact):
    from repro.wasm.compilers import CompiledModule, FileSystemCache

    FileSystemCache(path.parent).store(path.stem, CompiledModule(
        backend_name="cranelift", module=None, compile_seconds=0.0,
        artifact=artifact, function_count=1))


def _corrupt_artifact(tmp_path):
    from repro.wasm import ModuleBuilder, validate_module
    from repro.wasm.lowering import lower_module, serialize_lowered

    mb = ModuleBuilder(name="cli-tests")
    f = mb.function("one", params=[], results=["i32"], export=True)
    f.i32_const(1)
    module = mb.build()
    validate_module(module)
    payload = serialize_lowered(lower_module(module))
    payload["functions"][0]["ops"][0][0] = "i32.frobnicate"
    path = tmp_path / ("b" * 64 + ".mpiwasm")
    _write_record(path, payload)
    return path


def test_schedules_subset_sweep_exits_zero(capsys):
    rc = analyze_main(["schedules", "--collective", "bcast",
                       "--nranks", "2:9", "--nbytes", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error" not in out.lower() or "0 error" in out.lower()


def test_schedules_json_report_is_machine_readable(capsys):
    rc = analyze_main(["schedules", "--collective", "barrier", "--json",
                       "--nranks", "2,3,4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["counts"]["error"] == 0


def test_schedules_requires_a_selection():
    with pytest.raises(SystemExit) as excinfo:
        analyze_main(["schedules"])
    assert excinfo.value.code != 0


def test_broken_artifact_gives_nonzero_exit_and_location(tmp_path, capsys):
    path = _corrupt_artifact(tmp_path)
    rc = analyze_main(["ir", str(tmp_path)])
    assert rc != 0
    out = capsys.readouterr().out
    assert "unknown-kind" in out
    assert path.name.split(".")[0] in out or str(path) in out
    assert "op 0" in out


def test_clean_artifact_dir_exits_zero(tmp_path, capsys):
    from repro.wasm import ModuleBuilder, validate_module
    from repro.wasm.lowering import lower_module, serialize_lowered

    mb = ModuleBuilder(name="cli-clean")
    f = mb.function("one", params=[], results=["i32"], export=True)
    f.i32_const(1)
    module = mb.build()
    validate_module(module)
    payload = serialize_lowered(lower_module(module))
    _write_record(tmp_path / ("c" * 64 + ".mpiwasm"), payload)
    assert analyze_main(["ir", str(tmp_path)]) == 0


def test_lint_flags_violations_in_given_paths(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    rc = analyze_main(["lint", str(bad)])
    assert rc != 0
    assert "no-mutable-default-args" in capsys.readouterr().out


def test_self_lint_is_clean(capsys):
    assert analyze_main(["--self-lint"]) == 0


def test_harness_mounts_analyze(capsys):
    rc = harness_main(["analyze", "schedules", "--collective", "barrier",
                       "--nranks", "2,4"])
    assert rc == 0
