"""Session API tests: warm artifact reuse across jobs, lifecycle, per-run
overrides, campaign integration, and the compile-once-per-worker smoke the
CI ``api-stability`` job runs."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.toolchain.guest import GuestProgram


def _noop_program(name: str = "api-noop") -> GuestProgram:
    def main(api, args):
        api.mpi_init()
        api.mpi_finalize()
        return 0

    return GuestProgram(name=name, main=main)


# --------------------------------------------------- warm cross-job artifact reuse


def test_two_jobs_one_session_compile_once():
    """Acceptance criterion: a two-job same-module run on one Session with
    ``cache_dir=None`` records exactly one compile in ``cache_summary()``."""
    with Session(machine="graviton2", backend="cranelift", cache_dir=None) as session:
        first = session.run("pingpong", 2)
        second = session.run("pingpong", 2)
    assert first.exit_codes() == [0, 0] and second.exit_codes() == [0, 0]
    summary = session.metrics.cache_summary()
    # 2 jobs x 2 ranks = 4 lookups; only the very first one compiles.
    assert summary["misses"] == 1
    assert summary["hits"] == 3
    assert session.jobs_run == 2


def test_sessions_do_not_share_artifact_stores():
    program = _noop_program()
    with Session(machine="graviton2", backend="cranelift") as a:
        a.run(program, 1)
        assert a.metrics.cache_summary()["misses"] == 1
    with Session(machine="graviton2", backend="cranelift") as b:
        b.run(program, 1)
        # A fresh session has a cold store: it compiles again.
        assert b.metrics.cache_summary()["misses"] == 1


def test_session_compile_precompiles_for_run():
    with Session(machine="graviton2", backend="cranelift") as session:
        compiled = session.compile("pingpong")
        assert compiled.backend_name == "cranelift"
        assert session.metrics.cache_summary()["misses"] == 1
        session.run("pingpong", 2)
        # Both ranks were served by the artifact session.compile produced.
        assert session.metrics.cache_summary()["misses"] == 1


def test_session_tiers_over_the_fs_cache(tmp_path):
    program = _noop_program("fs-tiered")
    with Session(machine="graviton2", backend="cranelift",
                 cache_dir=str(tmp_path)) as warm:
        warm.run(program, 2)
        warm.run(program, 2)
        assert warm.metrics.cache_summary()["misses"] == 1
    assert list(tmp_path.glob("*.mpiwasm")), "artifact must be published to disk"
    # A cold session over the same directory is served from disk, not compiled.
    with Session(machine="graviton2", backend="cranelift",
                 cache_dir=str(tmp_path)) as cold:
        cold.run(program, 2)
        assert cold.metrics.cache_summary()["misses"] == 0


def test_module_is_validated_once_per_job_not_once_per_rank(monkeypatch):
    import repro.api.session as session_mod
    import repro.core.embedder as embedder_mod

    validated = []
    real = session_mod.validate_module

    def counting(module):
        validated.append(module)
        return real(module)

    monkeypatch.setattr(session_mod, "validate_module", counting)
    monkeypatch.setattr(embedder_mod, "validate_module", counting)
    program = _noop_program("validate-once")
    with Session(machine="graviton2", backend="cranelift", cache_dir=None) as session:
        session.run(program, 8)
        assert len(validated) == 1
        session.run(program, 8)
        assert len(validated) == 2  # every job, also when the store is warm
        # The per-rank lookups and their accounting are untouched.
        summary = session.metrics.cache_summary()
        assert (summary["misses"], summary["hits"]) == (1, 15)
        session.compile(program)
        assert len(validated) == 3
    with Session(machine="graviton2", backend="cranelift", cache_dir=None,
                 validate=False) as session:
        session.run(program, 2)
    assert len(validated) == 3


def test_memory_pages_above_the_module_maximum_fail_the_job_before_any_rank(monkeypatch):
    """The toolchain declares a 4096-page maximum; a larger ``memory_pages``
    override is one LinkError for the job, raised before a rank starts."""
    import repro.api.session as session_mod
    from repro.wasm.errors import LinkError

    started = []
    monkeypatch.setattr(session_mod, "execute_job", lambda *a, **k: started.append(a))
    with Session(machine="graviton2", backend="cranelift", memory_pages=8192,
                 validate=False) as session:
        with pytest.raises(LinkError, match="8192 pages exceeds the module's declared maximum of 4096"):
            session.run(_noop_program("pages-over-max"), 2)
    assert started == []


# ------------------------------------------------------------ lifecycle/overrides


def test_closed_session_rejects_work():
    session = Session(machine="graviton2")
    session.close()
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.run("pingpong", 1)
    with pytest.raises(RuntimeError, match="closed"):
        session.compile("pingpong")
    session.close()  # idempotent


def test_per_run_overrides_beat_session_config():
    with Session(machine="supermuc-ng", backend="llvm", nranks=4) as session:
        job = session.run("pingpong", machine="graviton2", backend="singlepass", np=2)
        assert job.machine == "graviton2" and job.nranks == 2
        default_job = session.run("pingpong")
        assert default_job.machine == "supermuc-ng" and default_job.nranks == 4


def test_session_config_file_layer(tmp_path):
    import json

    path = tmp_path / "session.json"
    path.write_text(json.dumps({"machine": "graviton2", "backend": "cranelift"}))
    with Session(config_file=path, nranks=2) as session:
        assert session.config.machine == "graviton2"
        assert session.config.provenance["machine"] == f"file:{path}"
        job = session.run("pingpong")
        assert job.machine == "graviton2" and job.nranks == 2


def test_native_mode_matches_wasm_results():
    with Session(machine="graviton2", backend="cranelift") as session:
        from repro.benchmarks_suite import make_imb_program

        program = make_imb_program("allreduce", message_sizes=(64,), iterations=1)
        wasm = session.run(program, 2)
        native = session.run(program, 2, mode="native")
    assert wasm.mode == "wasm" and native.mode == "native"
    assert wasm.makespan > native.makespan          # the embedder overhead
    assert wasm.return_values()[0]["routine"] == native.return_values()[0]["routine"]


def test_forced_algorithms_flow_through_session():
    with Session(machine="graviton2", backend="cranelift") as session:
        from repro.benchmarks_suite import make_imb_program

        program = make_imb_program("allreduce", message_sizes=(64,), iterations=1)
        job = session.run(program, 2, algorithms={"allreduce": "ring"})
    algos = job.metrics.collective_summary()["allreduce"]["algorithms"]
    assert set(algos) == {"ring"}


# ------------------------------------------------------------------- campaigns


def test_session_campaign_serial_runs_on_this_session(tmp_path):
    spec = {
        "name": "session-serial",
        "benchmarks": [{"benchmark": "pingpong", "nranks": 2,
                        "machine": "graviton2", "repeats": 2}],
    }
    with Session(machine="graviton2") as session:
        result = session.campaign(spec, cache_dir=str(tmp_path))
    assert result.ok and len(result.outcomes) == 2
    # Both jobs ran warm on the caller's session: one compile total.
    assert session.metrics.cache_summary()["misses"] == 1
    assert result.cache_stats["compiles"] == 1


def test_warm_session_campaign_compiles_once_per_worker():
    """CI smoke: 2 workers, FS cache disabled -- the warm per-worker sessions
    alone must bound compiles to at most one per worker (and at least one),
    proven via the aggregated metrics counters."""
    from repro.harness.campaign import run_campaign

    spec = {
        "name": "warm-workers",
        "cache_dir": False,                       # no on-disk cache at all
        "benchmarks": [{"benchmark": "pingpong", "mode": "wasm",
                        "backend": "cranelift", "nranks": 2,
                        "machine": "graviton2", "repeats": 4}],
    }
    result = run_campaign(spec, workers=2)
    assert result.ok and len(result.outcomes) == 4
    summary = result.metrics.cache_summary()
    lookups = summary["hits"] + summary["misses"]
    assert lookups == 8                           # 4 jobs x 2 ranks
    assert 1 <= summary["misses"] <= 2, (
        f"expected at most one compile per worker, got {summary}"
    )
    assert result.cache_stats == {
        "hits": int(summary["hits"]),
        "misses": int(summary["misses"]),
        "compiles": int(summary["misses"]),
    }


def test_fs_cache_disabled_serial_compiles_once():
    from repro.harness.campaign import run_campaign

    spec = {
        "cache_dir": False,
        "benchmarks": [{"benchmark": "pingpong", "nranks": 2,
                        "machine": "graviton2", "repeats": 3}],
    }
    result = run_campaign(spec)
    assert result.ok
    assert result.metrics.cache_summary()["misses"] == 1
    assert result.compiled_modules == []          # nothing touched a disk cache


# ----------------------------------------------------------- one-shot interface


def test_module_level_run_uses_ambient_session():
    import repro.api as api
    from repro.api import current_session, use_session

    with Session(machine="graviton2", backend="cranelift") as scoped:
        with use_session(scoped):
            assert current_session() is scoped
            job = api.run("pingpong", 2)
        assert scoped.jobs_run == 1
    assert current_session() is not scoped
    assert job.machine == "graviton2"


def test_ambient_session_is_per_thread():
    """Serve workers are threads: each must see the session it bound itself,
    never a concurrent worker's."""
    import threading

    from repro.api import current_session, use_session

    sessions = [Session(machine="graviton2"), Session(machine="graviton2")]
    barrier = threading.Barrier(2)
    seen = {}

    def worker(index):
        with use_session(sessions[index]):
            barrier.wait(timeout=10)          # both bindings are now live
            seen[index] = current_session()
            barrier.wait(timeout=10)          # nobody unbinds before both looked

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert seen[0] is sessions[0] and seen[1] is sessions[1]
    assert current_session() not in sessions


# ----------------------------------------------------- review-found regressions


def test_default_session_tracks_environment_changes(monkeypatch):
    """The default session re-reads REPRO_* per call: exporting or unsetting
    a knob between ``repro.api.run`` calls must keep taking effect."""
    from repro.api.session import default_session

    monkeypatch.delenv("REPRO_COLL_ALGO", raising=False)
    before = default_session()
    monkeypatch.setenv("REPRO_COLL_ALGO", "allreduce:ring")
    forced = default_session()
    assert forced is not before
    assert forced.config.collective_algorithms == {"allreduce": "ring"}
    monkeypatch.delenv("REPRO_COLL_ALGO")
    cleared = default_session()
    assert cleared.config.collective_algorithms == {}


def test_warm_application_memo_is_bounded():
    with Session(machine="graviton2", backend="cranelift") as session:
        for i in range(session.MAX_WARM_APPLICATIONS + 10):
            session._compiled_application(_noop_program(f"bounded-{i}"))
        assert len(session._apps) == session.MAX_WARM_APPLICATIONS


def test_session_campaign_defaults_to_session_cache_dir(tmp_path):
    spec = {"benchmarks": [{"benchmark": "pingpong", "nranks": 2,
                            "machine": "graviton2"}]}
    with Session(machine="graviton2", cache_dir=str(tmp_path)) as session:
        result = session.campaign(spec)
    assert result.ok
    assert list(tmp_path.glob("*.mpiwasm")), (
        "campaign artifacts must land in the session's configured cache_dir"
    )


def test_registry_populate_failure_is_retried():
    from repro.api import Registry

    reg = Registry("gadget", populate=("no_such_module_xyz",))
    with pytest.raises(ModuleNotFoundError):
        reg.names()
    # The failure must not latch: the real error surfaces again, not an
    # empty-registry UnknownEntryError.
    with pytest.raises(ModuleNotFoundError):
        reg.get("anything")


def test_spec_cache_dir_beats_env_through_session_campaign(tmp_path, monkeypatch):
    """run_campaign's documented precedence (arg > spec > env > temp) must
    survive the Session.campaign front door: an env-resolved session
    cache_dir may not shadow the spec's."""
    env_dir = tmp_path / "envcache"
    spec_dir = tmp_path / "speccache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
    spec = {"cache_dir": str(spec_dir),
            "benchmarks": [{"benchmark": "pingpong", "nranks": 2,
                            "machine": "graviton2"}]}
    with Session(machine="graviton2") as session:
        result = session.campaign(spec)
    assert result.ok
    assert list(spec_dir.glob("*.mpiwasm")), "spec's cache_dir must receive the artifact"
    assert not list(env_dir.glob("*.mpiwasm")) if env_dir.exists() else True


def test_disabled_fs_cache_ignores_persistent_env_dir(tmp_path, monkeypatch):
    """With the on-disk cache disabled, a persistent REPRO_CACHE_DIR in the
    surrounding environment must not leak into any job -- including
    experiment drivers that compile through the ambient session."""
    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
    spec = {"cache_dir": False,
            "benchmarks": [{"benchmark": "pingpong", "nranks": 2,
                            "machine": "graviton2"}],
            "experiments": [{"experiment": "figure6"}]}   # functional: compiles
    with Session(machine="graviton2") as session:
        result = session.campaign(spec)
    assert result.ok
    assert not env_dir.exists() or not list(env_dir.glob("*.mpiwasm")), (
        "disabled campaign must not read or write the environment's cache dir"
    )
