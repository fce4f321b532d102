"""Layered configuration tests: precedence (defaults < file < env < kwargs),
provenance recording, parsing, and the consolidated env-var helpers."""

from __future__ import annotations

import json

import pytest

from repro.api import ResolvedConfig


def test_defaults_and_provenance(monkeypatch):
    for var in ("REPRO_BACKEND", "REPRO_MACHINE", "REPRO_NRANKS", "REPRO_CACHE_DIR",
                "REPRO_CONFIG", "REPRO_COLL_ALGO"):
        monkeypatch.delenv(var, raising=False)
    config = ResolvedConfig.resolve()
    assert config.backend == "llvm"
    assert config.machine == "supermuc-ng"
    assert config.nranks == 4 and config.workers == 1
    assert config.cache_dir is None
    assert all(source == "default" for source in config.provenance.values())


def test_file_env_kwarg_precedence(tmp_path, monkeypatch):
    path = tmp_path / "repro.json"
    path.write_text(json.dumps({
        "backend": "cranelift",       # survives (nothing above sets it)
        "nranks": 8,                  # beaten by env
        "machine": "graviton2",       # beaten by kwarg
        "max_call_depth": 128,        # survives
    }))
    monkeypatch.setenv("REPRO_NRANKS", "16")
    monkeypatch.setenv("REPRO_MACHINE", "faasm-cloud")
    config = ResolvedConfig.resolve(config_file=path, machine="supermuc-ng")
    assert config.backend == "cranelift"
    assert config.nranks == 16
    assert config.machine == "supermuc-ng"
    assert config.max_call_depth == 128
    assert config.provenance["backend"] == f"file:{path}"
    assert config.provenance["nranks"] == "env:REPRO_NRANKS"
    assert config.provenance["machine"] == "kwarg"
    assert config.provenance["workers"] == "default"
    explained = config.explain()
    assert "env:REPRO_NRANKS" in explained and "kwarg" in explained


def test_repro_config_env_names_the_file(tmp_path, monkeypatch):
    path = tmp_path / "site.json"
    path.write_text(json.dumps({"backend": "singlepass"}))
    monkeypatch.setenv("REPRO_CONFIG", str(path))
    config = ResolvedConfig.resolve()
    assert config.backend == "singlepass"
    assert config.provenance["backend"] == f"file:{path}"
    # An explicit None opts out of the environment's config file.
    assert ResolvedConfig.resolve(config_file=None).backend == "llvm"


def test_env_parsing_flags_ints_and_algorithms(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "false")
    monkeypatch.setenv("REPRO_MAX_CALL_DEPTH", "99")
    monkeypatch.setenv("REPRO_COLL_ALGO", "allreduce:ring,bcast:binomial")
    config = ResolvedConfig.resolve()
    assert config.trace is False
    assert config.provenance["trace"] == "env:REPRO_TRACE"
    assert config.max_call_depth == 99
    assert config.collective_algorithms == {"allreduce": "ring", "bcast": "binomial"}
    assert config.provenance["collective_algorithms"] == "env:REPRO_COLL_ALGO"


def test_malformed_values_fail_loudly(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NRANKS", "many")
    with pytest.raises(ValueError, match="REPRO_NRANKS"):
        ResolvedConfig.resolve()
    monkeypatch.delenv("REPRO_NRANKS")
    with pytest.raises(ValueError, match="unknown configuration fields"):
        ResolvedConfig.resolve(bogus_field=1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="unknown config file keys"):
        ResolvedConfig.resolve(config_file=path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="cannot load config file"):
        ResolvedConfig.resolve(config_file=path)


def test_memory_pages_outside_the_wasm32_range_fail_at_resolve(tmp_path, monkeypatch):
    """A page count no wasm32 memory can have (0..65536) is rejected by every
    layer before a job starts, naming the environment knob."""
    monkeypatch.setenv("REPRO_MEMORY_PAGES", "70000")
    with pytest.raises(ValueError, match="REPRO_MEMORY_PAGES"):
        ResolvedConfig.resolve(config_file=None)
    monkeypatch.delenv("REPRO_MEMORY_PAGES")
    for pages in (70000, -1):
        with pytest.raises(ValueError, match="REPRO_MEMORY_PAGES"):
            ResolvedConfig.resolve(memory_pages=pages, config_file=None)
    path = tmp_path / "pages.json"
    path.write_text(json.dumps({"memory_pages": 65537}))
    with pytest.raises(ValueError, match="REPRO_MEMORY_PAGES"):
        ResolvedConfig.resolve(config_file=path)
    assert ResolvedConfig.resolve(memory_pages=65536, config_file=None).memory_pages == 65536


def test_replaced_keeps_base_and_marks_kwargs():
    base = ResolvedConfig.resolve(backend="cranelift")
    nranks, provenance = base.nranks, dict(base.provenance)
    updated = base.replaced(nranks=nranks + 1)
    assert updated.backend == "cranelift" and updated.nranks == nranks + 1
    assert updated.provenance["backend"] == "kwarg"      # inherited from base
    assert updated.provenance["nranks"] == "kwarg"
    # The base is unchanged: its value and its provenance.
    assert base.nranks == nranks and base.provenance == provenance
    assert base.provenance["nranks"] == "default"


def test_preopen_dirs_come_from_a_file_or_a_kwarg(tmp_path):
    """Pre-opened directories are a deployment setting: a config file or a
    kwarg sets them, and no environment variable does."""
    from repro.api.config import FIELDS

    assert ResolvedConfig.resolve(config_file=None).preopen_dirs == (("/work", True),)
    path = tmp_path / "dirs.json"
    path.write_text(json.dumps({"preopen_dirs": [["/results", True], ["/reference", False]]}))
    config = ResolvedConfig.resolve(config_file=path)
    assert config.preopen_dirs == (("/results", True), ("/reference", False))
    assert config.provenance["preopen_dirs"] == f"file:{path}"
    updated = config.replaced(preopen_dirs=[("/scratch", 1)])
    assert updated.preopen_dirs == (("/scratch", True),)
    assert updated.provenance["preopen_dirs"] == "kwarg"
    assert [f.env for f in FIELDS if f.name == "preopen_dirs"] == [None]
