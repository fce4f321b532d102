"""Tests for :mod:`repro.fault.checkpoint` and the checkpoint analyzer.

Covers the snapshot file format (content digest, atomic publish, load-time
verification), the digest-validated deterministic-replay restore path --
including the acceptance round-trip: checkpoint at a seeded-random round,
restore in a *fresh process*, and compare bit-for-bit against the
uninterrupted run on both the singlepass and cranelift back-ends -- the
quiescent write-back restore of instance state, and the static
``analyze checkpoint`` document verifier.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.session import Session
from repro.fault import (
    Checkpoint,
    capture_checkpoint,
    job_descriptor,
    load_checkpoint,
    resume_from_checkpoint,
)
from repro.fault.checkpoint import (
    CheckpointError,
    CheckpointStateMismatch,
    capture_instance_state,
    content_digest,
    restore_instance_state,
    write_checkpoint,
)

from tests.conftest import ALGORITHMS, run_mpi_program, two_collective_calls

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def session():
    with Session(backend="cranelift", machine="graviton2") as s:
        yield s


def _capture_payload(session, nranks=2, at_round=1, backend="cranelift"):
    job = job_descriptor("allreduce", nranks, backend=backend, machine="graviton2")
    with capture_checkpoint(at_round, job=job) as capture:
        session.run("allreduce", nranks)
    return capture.build()


def _oracle(job) -> dict:
    return {
        "makespan": job.makespan,
        "exit_codes": job.exit_codes(),
        "rows": job.return_values()[0]["rows"],
    }


# ---------------------------------------------------------------- file format


def test_capture_write_load_round_trip(session, tmp_path):
    payload = _capture_payload(session, nranks=2, at_round=1)
    path = write_checkpoint(payload, tmp_path / "run.ckpt.json")
    ckpt = load_checkpoint(path)
    assert ckpt.at_round == 1
    assert ckpt.nranks == 2
    assert ckpt.job["benchmark"] == "allreduce"
    for rank in range(2):
        state = ckpt.rank_state(rank)
        assert state is not None
        assert state["round_crossing"] == 1
        assert state["executor"]["pc"] >= 0
        guest = state["guest"]
        assert guest["memory_pages"] > 0
        assert guest["memory_b64"] is not None
        assert guest["memory_digest"]


def test_tampered_checkpoint_is_rejected(session, tmp_path):
    path = write_checkpoint(_capture_payload(session), tmp_path / "t.ckpt.json")
    doc = json.loads(path.read_text())
    doc["ranks"][0]["clock"] += 1.0  # bit-flip after publish
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(path)


def test_load_rejects_foreign_and_future_documents(tmp_path):
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(alien)
    future = {"format": "repro.fault.checkpoint", "version": 99}
    future["digest"] = content_digest(future)
    path = tmp_path / "future.ckpt.json"
    path.write_text(json.dumps(future))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_load_rejects_a_duplicate_rank_and_accepts_a_partial_capture(session, tmp_path):
    payload = _capture_payload(session)
    twice = dict(payload, ranks=[payload["ranks"][0], payload["ranks"][0]])
    with pytest.raises(CheckpointError, match=r"rank state\(s\) \[0\] more than once"):
        load_checkpoint(write_checkpoint(twice, tmp_path / "twice.ckpt.json"))
    partial = dict(payload, ranks=[payload["ranks"][1]])
    ckpt = load_checkpoint(write_checkpoint(partial, tmp_path / "partial.ckpt.json"))
    assert ckpt.rank_state(0) is None and ckpt.rank_state(1) is not None


@pytest.fixture(scope="module")
def captured() -> dict:
    with Session(backend="cranelift", machine="graviton2") as session:
        return _capture_payload(session)


def _set(path, value):
    """A mutation setting one field of the payload (``path`` of keys)."""
    def mutate(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value(payload[last]) if callable(value) else value
    return mutate


#: name -> (mutation of a captured 2-rank payload, the rule it breaks or
#: ``None`` when the document must load).  Every document but the
#: ``digest-mismatch`` one is published with its digest rewritten.
_DOCUMENTS = {
    "pc-out-of-bounds": (_set(("ranks", 0, "executor", "pc"), 10_000), "pc-out-of-bounds"),
    "rank-out-of-range": (_set(("ranks", 1, "rank"), 2), "rank-out-of-range"),
    "memory-size-mismatch": (_set(("ranks", 0, "guest", "memory_pages"), lambda n: n + 1),
                             "memory-size-mismatch"),
    "bad-nranks": (_set(("nranks",), 0), "bad-nranks"),
    "bad-clock": (_set(("ranks", 0, "clock"), -1.0), "bad-clock"),
    "bad-at-round": (_set(("at_round",), "soon"), "bad-at-round"),
    "digest-mismatch": (None, "digest-mismatch"),
    "foreign-format": (_set(("format",), "something-else"), "bad-format"),
    "future-version": (_set(("version",), 99), "unsupported-version"),
    "duplicate-rank": (lambda p: p.update(ranks=[p["ranks"][0], p["ranks"][0]]), "duplicate-rank"),
    "partial-capture": (lambda p: p.update(ranks=p["ranks"][1:]), None),
    "no-job-descriptor": (_set(("job",), None), None),
    "as-captured": (lambda p: None, None),
}


@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_load_refuses_exactly_what_the_analyzer_reports_as_an_error(captured, tmp_path, name):
    from repro.analysis import verify_checkpoint

    mutate, rule = _DOCUMENTS[name]
    payload = copy.deepcopy(captured)
    path = tmp_path / f"{name}.ckpt.json"
    if mutate is None:                       # a bit flip after publish
        write_checkpoint(payload, path)
        doc = json.loads(path.read_text())
        doc["ranks"][0]["clock"] += 1.0
        path.write_text(json.dumps(doc))
    else:
        mutate(payload)
        write_checkpoint(payload, path)
    report = verify_checkpoint(path)
    assert [f.rule for f in report.errors if f.rule == rule] == ([rule] if rule else [])
    if report.ok:
        assert load_checkpoint(path).payload == json.loads(path.read_text())
    else:
        with pytest.raises(CheckpointError, match="checkpoint refused"):
            load_checkpoint(path)
    assert report.ok is (rule is None)


def test_write_is_atomic_no_tmp_residue(session, tmp_path):
    write_checkpoint(_capture_payload(session), tmp_path / "a.ckpt.json")
    leftovers = [p for p in tmp_path.iterdir() if p.name != "a.ckpt.json"]
    assert leftovers == []


# -------------------------------------------------------------------- restore


def test_resume_in_process_matches_uninterrupted_run(session):
    baseline = session.run("allreduce", 2)
    ckpt = Checkpoint(_capture_payload(session))
    resumed = resume_from_checkpoint(ckpt, session=session)
    assert _oracle(resumed) == _oracle(baseline)


def test_resume_detects_state_divergence(session):
    payload = _capture_payload(session)
    payload["ranks"][0]["clock"] += 0.5  # pretend the past was different
    with pytest.raises(CheckpointStateMismatch, match="clock diverged"):
        resume_from_checkpoint(Checkpoint(payload), session=session)


def test_resume_detects_unreachable_round(session):
    payload = _capture_payload(session)
    payload["at_round"] = 10_000  # the replay can never cross this boundary
    with pytest.raises(CheckpointStateMismatch, match="never reached"):
        resume_from_checkpoint(Checkpoint(payload), session=session)


def test_resume_requires_a_job_descriptor(session):
    payload = _capture_payload(session)
    payload["job"] = None
    with pytest.raises(CheckpointError, match="no job descriptor"):
        resume_from_checkpoint(Checkpoint(payload), session=session)


def test_checkpoint_taken_inside_gather_restores_to_the_oracle(session):
    """A round boundary inside ``MPI_Gather`` is a checkpoint like any other:
    the guest calls nothing but gather, so the captured boundary is in it."""
    from repro.api.registry import BENCHMARKS, register_benchmark
    from repro.toolchain import mpi_header as abi
    from repro.toolchain.guest import GuestProgram

    @register_benchmark("test-gather-only")
    def make_gather_only():
        def main(api, args):
            api.mpi_init()
            send_ptr, _ = api.alloc_array(16, abi.MPI_INT, fill=api.rank() + 1)
            recv_ptr, recv = api.alloc_array(16 * api.size(), abi.MPI_INT, fill=0)
            for _ in range(3):
                api.gather(send_ptr, 16, abi.MPI_INT, recv_ptr, 16, abi.MPI_INT, 1)
            api.mpi_finalize()
            return recv.tolist()

        return GuestProgram(name="test-gather-only", main=main)

    def oracle(job) -> dict:
        return {"makespan": job.makespan, "exit_codes": job.exit_codes(),
                "values": job.return_values()}

    try:
        baseline = session.run("test-gather-only", 4)
        job = job_descriptor("test-gather-only", 4, backend="cranelift", machine="graviton2")
        with capture_checkpoint(1, job=job) as capture:
            session.run("test-gather-only", 4)
        ckpt = Checkpoint(capture.build())
        # The root (rank 1) is mid-schedule at its second boundary.
        executor = ckpt.rank_state(1)["executor"]
        assert not executor["finished"] and 0 < executor["pc"] < executor["n_steps"]
        resumed = resume_from_checkpoint(ckpt, session=session)
    finally:
        BENCHMARKS.unregister("test-gather-only")
    assert oracle(resumed) == oracle(baseline)
    assert oracle(baseline)["values"][1] == [r + 1 for r in range(4) for _ in range(16)]


@pytest.mark.parametrize("collective,algorithm", ALGORITHMS,
                         ids=[f"{c}:{a}" for c, a in ALGORITHMS])
def test_checkpoint_inside_every_algorithm_replays_in_both_modes(collective, algorithm):
    """Every rank's second round boundary is inside the first two calls of
    the collective.  The state captured there replays without a mismatch,
    and it is the same state whether the calls were ``MPI_<C>`` or
    ``MPI_I<c>`` + ``MPI_Wait`` -- one loop crosses the same boundaries at
    the same clocks."""
    nranks, captured = 5, {}
    for nonblocking in (False, True):
        program = two_collective_calls(collective, algorithm, nonblocking, nranks)
        with capture_checkpoint(1) as capture:
            run_mpi_program(program, nranks)
        assert sorted(capture.captured) == list(range(nranks))
        with capture_checkpoint(1, validate_against=Checkpoint(capture.build())) as replay:
            run_mpi_program(program, nranks)
        assert replay.mismatches == []
        captured[nonblocking] = capture.captured
    assert captured[False] == captured[True]


_RESUME_SCRIPT = """\
import json, sys
from repro.api.session import Session
from repro.fault import resume_from_checkpoint

with Session() as session:
    job = resume_from_checkpoint(sys.argv[1], session=session)
print(json.dumps({
    "makespan": job.makespan,
    "exit_codes": job.exit_codes(),
    "rows": job.return_values()[0]["rows"],
}))
"""


@pytest.mark.parametrize("backend", ["singlepass", "cranelift"])
def test_round_trip_restores_bit_for_bit_in_fresh_process(backend, tmp_path):
    with Session(backend=backend, machine="graviton2") as session:
        baseline = session.run("allreduce", 2)
        # Pick the checkpoint round at random (seeded) among the boundaries
        # every rank actually crosses, probed from a throwaway capture.
        with capture_checkpoint(0) as probe:
            session.run("allreduce", 2)
        crossings = min(probe._round_counts.values())
        at_round = random.Random(0xC0FFEE).randrange(crossings)
        job = job_descriptor("allreduce", 2, backend=backend, machine="graviton2")
        with capture_checkpoint(at_round, job=job) as capture:
            session.run("allreduce", 2)
        path = capture.write(tmp_path / f"{backend}.ckpt.json")
    proc = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT, str(path)],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    # Round-trip the oracle through JSON too: row keys stringify, the float
    # timings themselves must survive bit-for-bit.
    expected = json.loads(json.dumps(_oracle(baseline)))
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == expected


# ---------------------------------------------------------- write-back restore


def _snapshot_module():
    from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module

    mb = ModuleBuilder(name="ckpt-writeback")
    mb.add_memory(1)
    mb.add_global("counter", "i32", 0)
    poke = mb.function("poke", params=[("addr", "i32"), ("v", "i32")],
                       results=[], export=True)
    poke.get("addr").get("v").store("i32.store")
    peek = mb.function("peek", params=[("addr", "i32")], results=["i32"], export=True)
    peek.get("addr").load("i32.load")
    bump = mb.function("bump", params=[], results=["i32"], export=True)
    bump.emit("global.get", "counter").i32_const(1).emit("i32.add")
    bump.emit("global.set", "counter")
    bump.emit("global.get", "counter")
    module = mb.build()
    validate_module(module)
    return lambda: Instance(module, ImportObject())


def test_instance_write_back_restore():
    make = _snapshot_module()
    source = make()
    source.invoke("poke", 128, 0xBEEF)
    source.invoke("bump")
    source.invoke("bump")
    state = capture_instance_state(source)

    target = make()
    assert target.invoke("peek", 128) == [0]
    restore_instance_state(target, state)
    assert target.invoke("peek", 128) == [0xBEEF]
    assert target.invoke("bump") == [3], "restored global continues from 2"


def test_write_back_rejects_mismatched_shapes():
    make = _snapshot_module()
    state = capture_instance_state(make())
    target = make()
    bad_globals = dict(state, globals=[0, 1, 2])
    with pytest.raises(CheckpointError, match="globals"):
        restore_instance_state(target, bad_globals)
    shrunk = dict(state, memory_pages=0)
    with pytest.raises(CheckpointError):
        restore_instance_state(target, shrunk)


def test_digest_only_snapshot_skips_memory_write_back():
    make = _snapshot_module()
    source = make()
    source.invoke("poke", 64, 7)
    state = capture_instance_state(source, include_memory=False)
    assert state["memory_b64"] is None
    target = make()
    restore_instance_state(target, state)  # globals/tables only, no error
    assert target.invoke("peek", 64) == [0]


# ------------------------------------------------------------ static analyzer


def test_analyze_checkpoint_accepts_good_snapshot(session, tmp_path, capsys):
    from repro.analysis.cli import main as analyze_main

    path = write_checkpoint(_capture_payload(session), tmp_path / "ok.ckpt.json")
    assert analyze_main(["checkpoint", str(path)]) == 0
    capsys.readouterr()
    assert analyze_main(["checkpoint", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_analyze_checkpoint_flags_corruption(session, tmp_path, capsys):
    from repro.analysis.cli import main as analyze_main

    payload = _capture_payload(session)
    payload["ranks"][0]["executor"]["pc"] = -5
    payload["ranks"][1]["guest"]["memory_b64"] = "!!! not base64 !!!"
    doc = dict(payload)
    doc["digest"] = "0" * 32
    path = tmp_path / "bad.ckpt.json"
    path.write_text(json.dumps(doc))
    rc = analyze_main(["checkpoint", str(path)])
    out = capsys.readouterr().out
    assert rc != 0
    assert "digest-mismatch" in out
    assert "pc-out-of-bounds" in out
    assert "bad-memory-image" in out


def test_harness_mounts_analyze_checkpoint(session, tmp_path):
    from repro.harness.cli import main as harness_main

    path = write_checkpoint(_capture_payload(session), tmp_path / "h.ckpt.json")
    assert harness_main(["analyze", "checkpoint", str(path)]) == 0
