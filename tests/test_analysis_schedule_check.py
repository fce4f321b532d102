"""Cross-rank schedule analyzer: full-registry sweep + mutation corpus."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.findings import Severity
from repro.analysis.schedule_check import (
    DEFAULT_SWEEP_NRANKS,
    build_schedule,
    check_point,
    check_schedules,
    parse_nranks_spec,
    registered_points,
    sweep,
)
from repro.mpi.algorithms.schedule import RecvStep, Schedule, SendStep


def _clone_with_flat(schedule: Schedule, flat) -> Schedule:
    out = Schedule()
    out.temps = dict(schedule.temps)
    out.round(list(flat))
    return out


# -------------------------------------------------------------------- the sweep


def test_full_builder_sweep_is_clean():
    """Every registered builder x log-spaced nranks up to 4096 verifies clean.

    The per-point step budget keeps the quadratic-step builders (ring
    allreduce and friends at >= 1024 ranks) affordable; skipped points are
    notes, never silent, and the log-cost builders genuinely reach 4096.
    """
    report = sweep(max_steps=200_000)
    assert report.ok, report.format_text()
    assert not report.warnings
    summary = [f for f in report.notes if f.rule == "sweep-summary"]
    assert len(summary) == 1
    # Every skip is accounted for as an explicit note.
    skipped = [f for f in report.notes if f.rule == "point-skipped"]
    assert f"skipped {len(skipped)}" in summary[0].message
    # The log-cost builders reached the top of the rank range.
    top = max(DEFAULT_SWEEP_NRANKS)
    assert top == 4096
    checked_4096 = check_point("bcast", "binomial", top, 4096, max_steps=200_000)
    assert checked_4096.ok and not checked_4096.notes


def test_registry_has_all_known_builders():
    points = registered_points()
    assert ("allreduce", "recursive_doubling") in points
    assert ("alltoall", "pairwise") in points
    assert ("gather", "binomial") in points
    assert ("reduce", "rabenseifner") in points
    assert ("allreduce", "reduce_bcast") in points
    # Every registered algorithm is a schedule builder: nothing is unanalyzed.
    assert len(points) == 17


def test_nonzero_roots_checked_for_rooted_collectives():
    for root in (1, 6):
        report = check_point("bcast", "scatter_allgather", 7, 128, root=root)
        assert report.ok, report.format_text()
        report = check_point("reduce", "binomial", 7, 128, root=root)
        assert report.ok, report.format_text()
        for collective in ("gather", "scatter"):
            report = check_point(collective, "binomial", 7, 128, root=root)
            assert report.ok, report.format_text()


def test_parse_nranks_spec_forms():
    assert parse_nranks_spec("8") == [8]
    assert parse_nranks_spec("2,8,3") == [2, 3, 8]
    assert parse_nranks_spec("2:5") == [2, 3, 4, 5]
    assert parse_nranks_spec("2:4096:log") == [2 ** k for k in range(1, 13)]
    with pytest.raises(ValueError):
        parse_nranks_spec("1:8")
    with pytest.raises(ValueError):
        parse_nranks_spec("2:8:cubic")


def test_over_budget_point_is_note_not_error():
    report = check_point("alltoall", "pairwise", 64, 4096, max_steps=50)
    assert report.ok
    [note] = report.findings
    assert note.severity is Severity.NOTE and note.rule == "point-skipped"


# ------------------------------------------------------------- mutation corpus


def test_deadlock_cycle_is_reported_rank_by_rank():
    def deadlocked(rank: int) -> Schedule:
        sched = Schedule()
        peer = 1 - rank
        sched.round([RecvStep(peer=peer, tag=7)])
        sched.round([SendStep(peer=peer, tag=7)])
        return sched

    report = check_schedules([deadlocked(r) for r in range(2)], "barrier", 0,
                             loc="fixture p=2")
    assert not report.ok
    [finding] = [f for f in report.errors if f.rule == "deadlock-cycle"]
    assert finding.severity is Severity.ERROR
    # The cycle is printed rank by rank, naming both waiting receives.
    assert "rank 0 waits" in finding.message
    assert "rank 1 waits" in finding.message
    assert finding.details["cycle"] == [0, 1] or finding.details["cycle"] == [1, 0]


def test_dropped_recv_step_is_caught():
    schedules = [build_schedule("bcast", "binomial", r, 8, 64) for r in range(8)]
    flat = schedules[5].flat()
    victim = next(i for i, st in enumerate(flat) if isinstance(st, RecvStep))
    schedules[5] = _clone_with_flat(
        schedules[5], [st for i, st in enumerate(flat) if i != victim])
    report = check_schedules(schedules, "bcast", 64, loc="fixture dropped-recv")
    assert not report.ok
    rules = {f.rule for f in report.errors}
    # The vanished receive orphans its matching send, and rank 5's output
    # buffer is no longer fully written.
    assert "orphan-send" in rules
    assert "incomplete-result" in rules


@pytest.mark.parametrize("algorithm,lost_data", [
    # The linear root receives straight into its result buffer; the binomial
    # root receives into the packed temp its final rotation copies from.
    ("linear", "incomplete-result"),
    ("binomial", "read-before-write"),
])
def test_gather_mutations_are_caught(algorithm, lost_data):
    root = 3
    clean = [build_schedule("gather", algorithm, r, 8, 64, root=root) for r in range(8)]

    # Drop one child's receive at the root.
    flat = clean[root].flat()
    victim = next(i for i, st in enumerate(flat) if isinstance(st, RecvStep))
    schedules = list(clean)
    schedules[root] = _clone_with_flat(
        clean[root], [st for i, st in enumerate(flat) if i != victim])
    report = check_schedules(schedules, "gather", 64, root=root, loc="fixture dropped-recv")
    assert {"orphan-send", lost_data} <= {f.rule for f in report.errors}

    # Change the tag of one leaf's send.
    leaf = (root + 1) % 8
    flat = clean[leaf].flat()
    si = next(i for i, st in enumerate(flat) if isinstance(st, SendStep))
    flat[si] = dataclasses.replace(flat[si], tag=flat[si].tag + 1)
    schedules = list(clean)
    schedules[leaf] = _clone_with_flat(clean[leaf], flat)
    report = check_schedules(schedules, "gather", 64, root=root, loc="fixture wrong-tag")
    assert {"orphan-send", "orphan-recv"} <= {f.rule for f in report.errors}


def test_swapped_peers_are_caught():
    schedules = [build_schedule("allgather", "ring", r, 6, 32) for r in range(6)]
    flat = schedules[2].flat()
    si = next(i for i, st in enumerate(flat) if isinstance(st, SendStep))
    ri = next(i for i, st in enumerate(flat) if isinstance(st, RecvStep))
    send_peer, recv_peer = flat[si].peer, flat[ri].peer
    assert send_peer != recv_peer
    flat[si] = dataclasses.replace(flat[si], peer=recv_peer)
    flat[ri] = dataclasses.replace(flat[ri], peer=send_peer)
    schedules[2] = _clone_with_flat(schedules[2], flat)
    report = check_schedules(schedules, "allgather", 32, loc="fixture swap")
    assert not report.ok
    rules = {f.rule for f in report.errors}
    assert {"orphan-send", "orphan-recv"} <= rules


def test_bad_peer_and_self_send_are_caught():
    sched0, sched1 = Schedule(), Schedule()
    sched0.round([SendStep(peer=9, tag=1), SendStep(peer=0, tag=1)])
    sched1.round([])
    report = check_schedules([sched0, sched1], "barrier", 0, loc="fixture")
    rules = {f.rule for f in report.errors}
    assert "bad-peer" in rules


def test_read_before_write_on_temp_is_caught():
    # A rank that sends from a declared-but-never-written temp buffer.
    sched0, sched1 = Schedule(), Schedule()
    sched0.temp("scratch", 64)
    sched0.round([SendStep(peer=1, tag=3, buf="scratch", lo=0, nbytes=64)])
    sched1.round([RecvStep(peer=0, tag=3)])
    report = check_schedules([sched0, sched1], "barrier", 0, loc="fixture")
    rules = {f.rule for f in report.errors}
    assert "read-before-write" in rules


def test_bytes_mismatch_is_caught():
    sched0, sched1 = Schedule(), Schedule()
    sched0.temp("a", 64)
    sched1.temp("b", 64)
    sched0.round([RecvStep(peer=1, tag=2, buf="a", lo=0, nbytes=32)])
    sched1.round([SendStep(peer=0, tag=2, buf="b", lo=0, nbytes=16)])
    report = check_schedules([sched0, sched1], "barrier", 0, loc="fixture")
    rules = {f.rule for f in report.errors}
    assert "bytes-mismatch" in rules
    # the send still reads an unwritten temp
    assert "read-before-write" in rules


def test_buffer_overrun_is_caught():
    sched0, sched1 = Schedule(), Schedule()
    sched0.round([RecvStep(peer=1, tag=2, buf="data", lo=60, nbytes=16)])
    sched1.round([SendStep(peer=0, tag=2)])
    report = check_schedules([sched0, sched1], "bcast", 64, root=1, loc="fx")
    rules = {f.rule for f in report.errors}
    assert "buffer-overrun" in rules


def test_describe_and_round_index_agree_with_builders():
    schedule = build_schedule("allreduce", "recursive_doubling", 0, 4, 64)
    for round_no, rnd in enumerate(schedule.rounds):
        for step in rnd:
            assert step.round_index == round_no
            assert f"@round {round_no}" in step.describe()
