"""Direct unit coverage of the launcher: ``JobResult`` accessors and the
error paths (previously only exercised incidentally via ``DeadlockError``
tests)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.core.embedder import GuestResult
from repro.core.launcher import JobResult
from repro.sim.engine import RankFailedError
from repro.sim.metrics import MetricsRegistry
from repro.toolchain.guest import GuestProgram


def _guest_result(rank: int, exit_code: int, return_value=None) -> GuestResult:
    return GuestResult(
        rank=rank,
        exit_code=exit_code,
        return_value=return_value,
        elapsed_virtual=0.0,
        stdout="",
        stderr="",
        call_counts={},
        metrics=MetricsRegistry(),
        compile_seconds=0.0,
        cache_hit=False,
    )


def _job(rank_results) -> JobResult:
    return JobResult(
        nranks=len(rank_results),
        machine="graviton2",
        mode="wasm",
        rank_results=rank_results,
        makespan=0.0,
        metrics=MetricsRegistry(),
        stdout="",
    )


# ------------------------------------------------------------------ accessors


def test_exit_codes_maps_guest_results_ints_and_other():
    job = _job([_guest_result(0, 3), 5, "not-an-exit-code", _guest_result(3, 0)])
    # GuestResult -> its exit code, int -> itself, anything else -> 0.
    assert job.exit_codes() == [3, 5, 0, 0]


def test_return_values_unwraps_guest_results():
    job = _job([_guest_result(0, 0, return_value={"x": 1}), 7])
    assert job.return_values() == [{"x": 1}, 7]


def test_nonzero_guest_exit_code_propagates():
    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        api.mpi_finalize()
        return 17 if rank == 1 else 0

    job = run(GuestProgram(name="exit-17", main=main), 2, machine="graviton2")
    assert job.exit_codes() == [0, 17]


# ---------------------------------------------------------------- error paths


def test_rank_raising_mid_collective_surfaces_as_rank_failure():
    """A rank that dies *between* entering MPI and joining the collective the
    others are blocked in must fail the job with its own traceback, not hang
    or blame the engine."""

    def main(api, args):
        api.mpi_init()
        ptr, arr = api.alloc_array(64, 1)  # MPI_BYTE handle is 1 in the guest ABI
        if api.rank() == 1:
            raise ValueError("guest exploded mid-collective")
        api.bcast(ptr, 64, 1, 0)
        api.mpi_finalize()
        return 0

    with pytest.raises(RankFailedError) as excinfo:
        run(GuestProgram(name="mid-collective-crash", main=main), 3, machine="graviton2")
    err = excinfo.value
    assert err.rank == 1
    assert isinstance(err.original, ValueError)
    assert "guest exploded mid-collective" in err.rank_traceback


def test_native_rank_failure_carries_rank_and_traceback():
    def main(api, args):
        api.mpi_init()
        if api.rank() == 2:
            raise RuntimeError("native rank down")
        api.barrier()
        api.mpi_finalize()
        return 0

    with pytest.raises(RankFailedError) as excinfo:
        run(GuestProgram(name="native-crash", main=main), 3, machine="graviton2", mode="native")
    assert excinfo.value.rank == 2
    assert "native rank down" in excinfo.value.rank_traceback


def test_launcher_cli_runs_and_returns_max_exit_code(capsys):
    from repro.core.launcher import main

    assert main(["allreduce", "-np", "2", "--machine", "graviton2"]) == 0
    out = capsys.readouterr().out
    assert "mode=wasm" in out and "makespan=" in out

    assert main(["allreduce", "-np", "2", "--machine", "graviton2", "--native"]) == 0
    assert "mode=native" in capsys.readouterr().out


def test_launcher_flags_do_not_shadow_the_resolved_configuration(monkeypatch, capsys):
    """``-np``/``--machine``/``--backend`` have no values of their own: when
    not given, ``REPRO_*`` (and the config file) decide; when given, they win."""
    from repro.core.launcher import main

    monkeypatch.setenv("REPRO_MACHINE", "graviton2")
    monkeypatch.setenv("REPRO_NRANKS", "3")
    assert main(["pingpong", "-np", "2"]) == 0
    out = capsys.readouterr().out
    assert "machine=graviton2" in out and "ranks=2" in out
    assert main(["allreduce", "--machine", "supermuc-ng", "--native"]) == 0
    out = capsys.readouterr().out
    assert "machine=supermuc-ng" in out and "ranks=3" in out
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "(default: graviton2)" in capsys.readouterr().out


def test_campaign_turns_rank_failure_into_error_record():
    """The campaign runner's contract for the same failure: a structured
    error record, not an exception (and not a dead campaign)."""
    from repro.harness.campaign import JobSpec, run_job

    outcome = run_job(
        JobSpec(kind="benchmark", name="allreduce", nranks=2,
                algorithms=(("allreduce", "no-such-algorithm"),)),
        campaign_seed=0,
    )
    assert outcome.status == "error"
    assert outcome.error["type"] in ("UnknownAlgorithmError", "RankFailedError")
    assert "no-such-algorithm" in outcome.error["message"]
    assert outcome.error["traceback"]
