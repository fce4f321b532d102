"""Tests for the parallel experiment campaign runner.

Covers the full subsystem: scenario-matrix expansion and validation,
deterministic per-job seeding, serial execution, multi-process execution
with the shared compile cache (identical results to the serial path, each
distinct module compiled exactly once across the pool), graceful per-job
failure capture, metrics aggregation, ``campaign.json``, and the
``repro-harness campaign`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.campaign import (
    CampaignResult,
    CampaignSpec,
    JobSpec,
    run_campaign,
    run_job,
    spec_for_experiments,
)
from repro.harness.report import format_campaign_report

#: A figure-5-class mini-sweep: functional benchmark matrix + a figure driver.
SWEEP_SPEC = {
    "name": "mini-sweep",
    "seed": 11,
    "benchmarks": [
        {"benchmark": ["allreduce", "alltoall"], "mode": ["wasm", "native"],
         "backend": "cranelift", "nranks": 2, "machine": "graviton2"},
    ],
    "experiments": [
        {"experiment": "figure6", "params": {"functional": False}},
    ],
}


# ------------------------------------------------------------------ expansion


def test_matrix_expansion_is_a_full_product():
    spec = CampaignSpec.from_mapping({
        "benchmarks": [
            {"benchmark": ["allreduce", "alltoall"], "mode": ["wasm", "native"],
             "backend": ["singlepass", "cranelift"], "nranks": [2, 4], "repeats": 2},
        ],
    })
    jobs = spec.expand()
    # The raw product is 2 benchmarks x 2 modes x 2 backends x 2 nranks x
    # 2 repeats = 32, but the backend axis collapses out of native job ids,
    # so expansion keeps exactly one job per distinct id: 16 wasm + 8 native.
    assert len(jobs) == 24
    assert len({j.job_id for j in jobs}) == 24
    assert sum(1 for j in jobs if j.mode == "native") == 8
    assert all(isinstance(j, JobSpec) for j in jobs)


def test_algorithm_variants_sweep_as_an_axis():
    spec = CampaignSpec.from_mapping({
        "benchmarks": [
            {"benchmark": "allreduce", "nranks": 3,
             "algorithms": [{"allreduce": "ring"}, {"allreduce": "recursive_doubling"}]},
        ],
    })
    jobs = spec.expand()
    assert len(jobs) == 2
    assert {j.algorithms for j in jobs} == {
        (("allreduce", "ring"),), (("allreduce", "recursive_doubling"),)
    }


@pytest.mark.parametrize("mapping,match", [
    ({"benchmarks": [{"benchmark": "no-such-benchmark"}]}, "unknown benchmark"),
    ({"benchmarks": [{"benchmark": "allreduce", "mode": "jit"}]}, "unknown mode"),
    ({"benchmarks": [{"benchmark": "allreduce", "backend": "gcc"}]}, "unknown backend"),
    ({"benchmarks": [{"benchmark": "allreduce", "typo_key": 1}]}, "unknown benchmark matrix keys"),
    ({"benchmarks": [{"nranks": 2}]}, "missing 'benchmark'"),
    ({"experiments": [{"experiment": "figure99"}]}, "unknown experiment"),
    ({"experiments": [{"experiment": "figure5", "bogus": 1}]}, "unknown experiment keys"),
    ({}, "zero jobs"),
    ({"bogus_top": 1}, "unknown campaign spec keys"),
])
def test_spec_validation_fails_loudly(mapping, match):
    with pytest.raises(ValueError, match=match):
        CampaignSpec.from_mapping(mapping).expand()


def test_spec_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SWEEP_SPEC))
    spec = CampaignSpec.from_file(path)
    assert spec.name == "mini-sweep" and spec.seed == 11
    assert len(spec.expand()) == 5


def test_bundled_example_spec_expands():
    spec = CampaignSpec.from_file("examples/campaign.json")
    assert len(spec.expand()) == 12


# ----------------------------------------------------------------- job seeds


def test_job_seeds_are_deterministic_and_distinct():
    jobs = CampaignSpec.from_mapping(SWEEP_SPEC).expand()
    seeds = [j.seed(11) for j in jobs]
    assert seeds == [j.seed(11) for j in jobs]          # stable
    assert len(set(seeds)) == len(seeds)                # distinct per job
    assert seeds != [j.seed(12) for j in jobs]          # campaign seed matters
    repeat = JobSpec(kind="benchmark", name="allreduce", repeat=1)
    assert repeat.seed(11) != JobSpec(kind="benchmark", name="allreduce").seed(11)


# ------------------------------------------------------------ serial running


@pytest.fixture(scope="module")
def serial_result() -> CampaignResult:
    return run_campaign(CampaignSpec.from_mapping(SWEEP_SPEC))


def test_serial_campaign_runs_every_job(serial_result):
    assert len(serial_result.outcomes) == 5
    assert serial_result.ok
    assert [o.status for o in serial_result.outcomes] == ["ok"] * 5
    wasm = serial_result.outcome("allreduce/wasm/cranelift/np2/graviton2#r0")
    assert wasm.makespan > 0 and wasm.exit_codes == [0, 0]
    figure = serial_result.outcome("figure6/functional=False#r0")
    assert figure.result["average_ns"]


def test_campaign_aggregates_metrics_and_cache(serial_result):
    summary = serial_result.metrics.collective_summary()
    assert summary["allreduce"]["calls"] > 0
    assert summary["alltoall"]["calls"] > 0
    # Both wasm jobs share one guest module: one compile, everything else hits.
    assert serial_result.cache_stats["compiles"] == 1
    assert len(set(serial_result.compiled_modules)) == 1
    assert serial_result.cache_stats["hits"] >= 1


def test_campaign_json_is_machine_readable(serial_result, tmp_path):
    path = serial_result.write(tmp_path / "campaign.json")
    payload = json.loads(path.read_text())
    assert payload["name"] == "mini-sweep"
    assert payload["jobs_total"] == 5 and payload["jobs_failed"] == 0
    assert payload["cache"]["compiles"] == 1
    job = payload["jobs"][0]
    assert {"job_id", "spec", "seed", "status", "cache", "fingerprint"} <= set(job)


def test_campaign_report_renders(serial_result):
    text = format_campaign_report(serial_result)
    assert "mini-sweep" in text
    assert "allreduce/wasm/cranelift/np2/graviton2#r0" in text
    assert "1 compiles" in text and "1 distinct modules" in text


# --------------------------------------------------------- parallel identity


def test_parallel_campaign_matches_serial_and_compiles_once(serial_result):
    """Acceptance: the --workers path produces identical per-job results to
    the serial path, and the shared cache compiles each distinct guest
    module exactly once across the pool."""
    parallel = run_campaign(CampaignSpec.from_mapping(SWEEP_SPEC), workers=2)
    assert parallel.ok and parallel.workers == 2
    assert parallel.fingerprints() == serial_result.fingerprints()
    # Same per-job virtual makespans and return values, job by job.
    for outcome in parallel.outcomes:
        twin = serial_result.outcome(outcome.job_id)
        assert outcome.makespan == twin.makespan
        assert outcome.return_values == twin.return_values
    assert parallel.cache_stats["compiles"] == 1
    assert set(parallel.compiled_modules) == set(serial_result.compiled_modules)


def test_serial_campaign_is_reproducible(serial_result):
    again = run_campaign(CampaignSpec.from_mapping(SWEEP_SPEC))
    assert again.fingerprints() == serial_result.fingerprints()


def test_persistent_cache_dir_stats_are_scoped_per_campaign(tmp_path):
    spec = CampaignSpec.from_mapping({
        "benchmarks": [{"benchmark": "allreduce", "nranks": 2}],
    })
    first = run_campaign(spec, cache_dir=str(tmp_path))
    second = run_campaign(spec, cache_dir=str(tmp_path))
    # Run 1 compiles; run 2 is served entirely from the warm directory and
    # must not report run 1's compile as its own.
    assert first.cache_stats["compiles"] == 1
    assert second.cache_stats["compiles"] == 0
    assert second.cache_stats["misses"] == 0
    assert second.cache_stats["hits"] >= 1
    assert second.compiled_modules == []
    assert second.fingerprints() == first.fingerprints()


def test_repro_cache_dir_env_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "persistent"))
    spec = CampaignSpec.from_mapping({
        "benchmarks": [{"benchmark": "allreduce", "nranks": 2}],
    })
    run_campaign(spec)
    # The user's persistent cache received the artifact (no throwaway dir).
    assert list((tmp_path / "persistent").glob("*.mpiwasm"))
    second = run_campaign(spec)
    assert second.cache_stats == {"hits": 2, "misses": 0, "compiles": 0}


#: One benchmark job plus one experiment job whose driver runs (and so
#: compiles) on the ambient session.
ALLREDUCE_AND_NBC = {
    "benchmarks": [{"benchmark": "allreduce", "nranks": 2}],
    "experiments": [{"experiment": "nbc"}],
}


def test_cache_stats_are_the_same_with_the_disk_cache_on_and_off(tmp_path):
    """A driver's compiles count in its job's metrics, whether or not a disk
    cache is there to see them."""
    on = run_campaign(ALLREDUCE_AND_NBC, cache_dir=str(tmp_path))
    off = run_campaign(ALLREDUCE_AND_NBC, cache_dir=False)
    assert on.cache_stats == off.cache_stats == {"hits": 20, "misses": 2, "compiles": 2}
    assert on.compiled_modules == off.compiled_modules
    assert len(on.compiled_modules) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_json_per_job_cache_sums_to_its_top_level_cache(tmp_path, workers):
    result = run_campaign(ALLREDUCE_AND_NBC, workers=workers, cache_dir=str(tmp_path / "aot"))
    payload = json.loads(result.write(tmp_path / "campaign.json").read_text())
    jobs = [job["cache"] for job in payload["jobs"]]
    total = payload["cache"]
    assert sum(job["hits"] for job in jobs) == total["hits"] > 0
    assert sum(job["misses"] for job in jobs) == total["misses"] == total["compiles"] > 0


def test_lookups_leave_only_artifacts_in_the_cache_directory(tmp_path):
    result = run_campaign(ALLREDUCE_AND_NBC, cache_dir=str(tmp_path))
    assert result.cache_stats["hits"] > 0
    assert not (tmp_path / "_stats").exists()
    assert {path.suffix for path in tmp_path.iterdir()} == {".mpiwasm"}


def test_a_failed_jobs_lookups_count_in_its_outcome():
    from repro.api import Session
    from repro.api.registry import BENCHMARKS, register_benchmark
    from repro.toolchain.guest import GuestProgram

    @register_benchmark("test-fails-after-compile")
    def make_failing():
        def main(api, args):
            api.mpi_init()
            api.barrier()          # both ranks have compiled by now
            raise RuntimeError("guest gave up")

        return GuestProgram(name="test-fails-after-compile", main=main)

    try:
        with Session(cache_dir=None) as session:
            outcome = run_job(JobSpec(kind="benchmark", name="test-fails-after-compile"),
                              session=session)
    finally:
        BENCHMARKS.unregister("test-fails-after-compile")
    assert outcome.status == "error" and "guest gave up" in outcome.error["message"]
    assert outcome.cache_events() == {"hits": 1, "misses": 1}
    assert len(outcome.missed_modules()) == 1


def test_jobs_never_touch_the_process_environment(tmp_path):
    """The campaign's cache directory reaches a job through its session: a
    driver looking at ``os.environ`` mid-job sees what the caller had."""
    import os

    from repro.api import current_session
    from repro.api.registry import EXPERIMENTS, register_experiment

    seen = {}

    @register_experiment("env-probe")
    def _env_probe():
        seen["environ"] = dict(os.environ)
        seen["cache_dir"] = current_session().config.cache_dir
        return {}

    before = dict(os.environ)
    try:
        result = run_campaign({"experiments": [{"experiment": "env-probe"}]},
                              cache_dir=str(tmp_path))
    finally:
        EXPERIMENTS.unregister("env-probe")
    assert result.ok
    assert seen["environ"] == before
    assert seen["cache_dir"] == str(tmp_path)
    assert dict(os.environ) == before


def test_fingerprints_ignore_wall_clock_measurements():
    """table1's compile times and kernel throughput are host measurements;
    two runs must still fingerprint identically."""
    spec = spec_for_experiments(["table1"])
    first = run_campaign(spec)
    second = run_campaign(spec)
    a = first.outcomes[0].result
    b = second.outcomes[0].result
    assert a["llvm"]["compile_ms"] != b["llvm"]["compile_ms"]  # really measured
    assert first.fingerprints() == second.fingerprints()


# ------------------------------------------------------------ failure capture


def test_failed_job_yields_error_record_not_dead_campaign():
    spec = CampaignSpec.from_mapping({
        "name": "partial-failure",
        "benchmarks": [
            {"benchmark": "allreduce", "nranks": 2, "machine": "graviton2"},
            {"benchmark": "allreduce", "nranks": 2, "machine": "graviton2",
             "algorithms": {"allreduce": "not-an-algorithm"}},
        ],
    })
    result = run_campaign(spec)
    assert len(result.outcomes) == 2
    assert not result.ok and len(result.errors) == 1
    failed = result.errors[0]
    assert failed.status == "error"
    assert "not-an-algorithm" in failed.error["message"]
    assert failed.error["traceback"]
    # The healthy job still completed and aggregated.
    healthy = result.outcome("allreduce/wasm/cranelift/np2/graviton2#r0")
    assert healthy.ok and healthy.makespan > 0


def test_failure_capture_works_identically_under_workers():
    spec = CampaignSpec.from_mapping({
        "benchmarks": [
            {"benchmark": "allreduce", "nranks": 2,
             "algorithms": [{}, {"allreduce": "not-an-algorithm"}]},
        ],
    })
    serial = run_campaign(spec)
    parallel = run_campaign(spec, workers=2)
    assert len(serial.errors) == len(parallel.errors) == 1
    assert serial.fingerprints() == parallel.fingerprints()


def test_run_job_unknown_kind_is_captured():
    outcome = run_job(JobSpec(kind="nonsense", name="x"))
    assert outcome.status == "error" and outcome.error["type"] == "ValueError"


# -------------------------------------------------------------- experiments path


def test_spec_for_experiments_runs_drivers():
    result = run_campaign(spec_for_experiments(["table2"]))
    assert result.ok
    outcome = result.outcomes[0]
    assert outcome.spec.kind == "experiment"
    assert outcome.result["average_static_to_wasm_ratio"] > 0


def test_crosscheck_campaign_matches_driver_shape():
    from repro.harness.experiments import functional_crosscheck_campaign

    out = functional_crosscheck_campaign(nranks=2)
    assert set(out) == {"pingpong", "allreduce", "alltoall"}
    for row in out.values():
        assert row["wasm_makespan_us"] > 0
        assert row["native_makespan_us"] > 0


# ------------------------------------------------------------------------ CLI


def test_cli_campaign_subcommand(tmp_path, capsys):
    from repro.harness.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-smoke",
        "benchmarks": [{"benchmark": "allreduce", "mode": ["wasm", "native"], "nranks": 2}],
    }))
    out_path = tmp_path / "campaign.json"
    assert main(["campaign", str(spec_path), "--workers", "2", "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "cli-smoke" in printed and str(out_path) in printed
    payload = json.loads(out_path.read_text())
    assert payload["jobs_failed"] == 0 and payload["workers"] == 2


def test_cli_campaign_exits_nonzero_on_job_error(tmp_path, capsys):
    from repro.harness.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "benchmarks": [{"benchmark": "allreduce", "nranks": 2,
                        "algorithms": {"allreduce": "not-an-algorithm"}}],
    }))
    assert main(["campaign", str(spec_path), "--out", str(tmp_path / "c.json")]) == 1
    assert "1 of 1 jobs failed" in capsys.readouterr().out


def test_cli_campaign_rejects_bad_spec(tmp_path):
    from repro.harness.cli import main

    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{not json")
    with pytest.raises(SystemExit):
        main(["campaign", str(spec_path)])


def test_cli_run_back_compat_and_workers(capsys):
    from repro.harness.cli import main

    # Bare experiment names (the historical repro-experiments interface).
    assert main(["table2"]) == 0
    assert "static/wasm" in capsys.readouterr().out
    # Explicit subcommand with a worker pool.
    assert main(["run", "table2", "--workers", "2"]) == 0
    assert "static/wasm" in capsys.readouterr().out


def test_expansion_validates_against_the_registries():
    """A mode registered through the public mechanism is a valid campaign
    axis value (the runner keeps no private list of modes or back-ends)."""
    from repro.api.registry import MODES, register_mode

    spec = CampaignSpec.from_mapping(
        {"benchmarks": [{"benchmark": "allreduce", "mode": "throwaway"}]})
    with pytest.raises(ValueError, match="unknown mode"):
        spec.expand()
    register_mode("throwaway")(lambda session, app, **request: None)
    try:
        assert [job.mode for job in spec.expand()] == ["throwaway"]
    finally:
        MODES.unregister("throwaway")


# ------------------------------------------------------- graceful interrupts


def _register_interrupt_drivers():
    """In-test experiment drivers for the KeyboardInterrupt contract.

    Registered lazily (idempotently) so importing this module never mutates
    the registry for unrelated tests.
    """
    from repro.api.registry import EXPERIMENTS, register_experiment

    if "ki-noop" not in EXPERIMENTS.entries:
        @register_experiment("ki-noop")
        def _noop_driver():
            return {"ran": True}

    if "ki-self-signal" not in EXPERIMENTS.entries:
        @register_experiment("ki-self-signal")
        def _self_signal_driver():
            # A self-signalling job: raise the interrupt exactly the way a
            # Ctrl-C would surface it mid-job (SIGINT to ourselves; the
            # Python handler turns it into KeyboardInterrupt at the next
            # bytecode boundary, which time.sleep guarantees reaching).
            import os
            import signal
            import time

            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(5)
            return {"ran": True}  # pragma: no cover - the signal fires first


def test_keyboard_interrupt_yields_partial_campaign(tmp_path):
    """Serial path: an interrupt mid-campaign terminates cleanly, records the
    in-flight job and every never-started job as 'interrupted', and the
    partial campaign.json still accounts for the whole job list."""
    _register_interrupt_drivers()
    spec = CampaignSpec.from_mapping({
        "name": "interrupt-serial",
        "experiments": [
            {"experiment": "ki-noop"},
            {"experiment": "ki-self-signal"},
            {"experiment": "figure6", "params": {"functional": False}},
        ],
    })
    result = run_campaign(spec)
    assert result.interrupted
    assert not result.ok
    by_id = {o.spec.name: o for o in result.outcomes}
    assert len(result.outcomes) == 3, "every job must have a record"
    assert by_id["ki-noop"].ok
    assert by_id["ki-self-signal"].status == "interrupted"
    assert by_id["ki-self-signal"].error["type"] == "KeyboardInterrupt"
    assert by_id["figure6"].status == "interrupted"
    out = result.write(tmp_path / "campaign.json")
    doc = json.loads(out.read_text())
    assert doc["interrupted"] is True
    assert doc["jobs_total"] == 3
    assert doc["jobs_failed"] == 2
    statuses = {j["job_id"]: j["status"] for j in doc["jobs"]}
    assert sorted(statuses.values()) == ["interrupted", "interrupted", "ok"]


def test_keyboard_interrupt_terminates_parallel_pool(tmp_path):
    """Parallel path: SIGINT delivered to the parent while workers are busy
    terminates and joins the pool (no orphans, no hang) and produces
    interrupted records for unfinished jobs."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method required for in-test drivers")
    _register_interrupt_drivers()
    from repro.api.registry import EXPERIMENTS, register_experiment

    if "ki-signal-parent" not in EXPERIMENTS.entries:
        @register_experiment("ki-signal-parent")
        def _signal_parent_driver():
            import os
            import signal
            import time

            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(30)  # keep this worker busy so terminate() matters
            return {"ran": True}  # pragma: no cover

    spec = CampaignSpec.from_mapping({
        "name": "interrupt-parallel",
        "experiments": [
            {"experiment": "ki-signal-parent"},
            {"experiment": "ki-noop", "repeats": 3},
        ],
    })
    result = run_campaign(spec, workers=2)
    assert result.interrupted
    assert len(result.outcomes) == 4, "every job must have a record"
    interrupted = [o for o in result.outcomes if o.status == "interrupted"]
    assert interrupted, "the busy job must be recorded as interrupted"
    assert all(o.error["type"] == "KeyboardInterrupt" for o in interrupted)
    # The partial result still serialises.
    doc = json.loads(result.write(tmp_path / "campaign.json").read_text())
    assert doc["interrupted"] is True
