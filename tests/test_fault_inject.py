"""Tests for :mod:`repro.fault` injection, recovery, and failure teardown.

Covers the seeded fault plans (serialization, one-shot firing, every fault
kind end-to-end), restart-level recovery proving bit-for-bit determinism
past an injected kill, the ULFM-style revoke/shrink/agree primitives, and
the engine's deterministic survivor teardown on a rank failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import Session
from repro.fault import (
    Fault,
    FaultPlan,
    InjectedFault,
    inject_faults,
    run_with_recovery,
)
from repro.fault import recover
from repro.fault.inject import _corrupt
from repro.fault.recover import _injected_cause
from repro.mpi import datatypes, ops
from repro.sim.engine import DeadlockError, RankFailedError, RankState, SimEngine
from repro.toolchain.guest import GuestProgram
from tests.conftest import ALGORITHMS, run_mpi_program, two_collective_calls


@pytest.fixture()
def session():
    with Session(backend="cranelift", machine="graviton2") as s:
        yield s


# ------------------------------------------------------------------ the plans


def test_fault_plan_json_round_trip():
    plan = FaultPlan(
        faults=(
            Fault(kind="kill_rank", rank=1, call="MPI_Allreduce", call_index=2),
            Fault(kind="kill_rank", rank=0, round=3),
            Fault(kind="drop_message", src=0, dst=1, match_index=4),
            Fault(kind="corrupt_message", src=2, dst=3, seed=9),
            Fault(kind="delay_link", src=1, dst=0, delay=1e-4),
        ),
        seed=17,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_fault_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        Fault(kind="explode_node")
    with pytest.raises(ValueError):
        Fault(kind="kill_rank", rank=0)  # neither a call nor a round
    with pytest.raises(ValueError):
        Fault(kind="delay_link", src=0, dst=1)  # no delay


def test_corruption_is_seeded_and_deterministic():
    fault = Fault(kind="corrupt_message", src=0, dst=1, seed=5)
    data = bytes(range(64))
    once = _corrupt(data, 3, fault)
    again = _corrupt(data, 3, fault)
    assert once == again, "same seed must corrupt identically"
    assert once != data, "corruption must change the payload"
    assert len(once) == len(data)
    assert _corrupt(data, 4, fault) != once, "plan seed must matter"


# --------------------------------------------------------------- fault firing


def test_kill_rank_at_call_tears_down_run(session):
    plan = FaultPlan(
        faults=(Fault(kind="kill_rank", rank=1, call="MPI_Allreduce", call_index=0),))
    with inject_faults(plan) as active:
        with pytest.raises(RankFailedError) as excinfo:
            session.run("allreduce", 4)
    err = excinfo.value
    assert err.rank == 1
    assert isinstance(_injected_cause(err), InjectedFault)
    assert active.fired and active.fired[0]["kind"] == "kill_rank"
    # The failure carries the post-mortem attachments (satellite 1): every
    # rank's clock, the survivor teardown states, and a metrics snapshot.
    assert len(err.rank_clocks) == 4
    survivor_states = {r: s for r, s in err.rank_states.items() if r != 1}
    assert all(s in (RankState.TORN_DOWN, RankState.DONE)
               for s in survivor_states.values())
    assert err.rank_states[1] is RankState.FAILED
    assert "counters" in err.metrics_snapshot


def test_kill_rank_at_schedule_round(session):
    plan = FaultPlan(faults=(Fault(kind="kill_rank", rank=0, round=1),))
    with inject_faults(plan) as active:
        with pytest.raises(RankFailedError) as excinfo:
            session.run("allreduce", 4)
    assert excinfo.value.rank == 0
    assert active.fired and active.fired[0]["round"] == 1


@pytest.mark.parametrize("collective", ["gather", "reduce"])
def test_kill_rank_at_a_round_inside_gather_and_rabenseifner(collective):
    """Every collective is a schedule, so an at-round kill lands inside
    ``MPI_Gather`` (binomial) and ``MPI_Reduce`` (forced to rabenseifner) too:
    the victim is named, every survivor is torn down, no rank thread leaks."""
    import threading

    nranks, victim = 8, 0 if collective == "gather" else 3
    inside = {}

    def program(rt, ctx):
        rt.world.collectives.force_many({"gather": "binomial", "reduce": "rabenseifner"})
        send = np.full(64, ctx.rank + 1, dtype=np.float64)
        inside[ctx.rank] = collective
        if collective == "gather":
            recv = np.zeros(64 * nranks) if ctx.rank == 0 else None
            rt.gather(send, 64, datatypes.DOUBLE, recv, 64, datatypes.DOUBLE, root=0)
        else:
            recv = np.zeros(64) if ctx.rank == 0 else None
            rt.reduce(send, recv, 64, datatypes.DOUBLE, ops.SUM, root=0)
        # Nobody gets through this without the victim, so every survivor is
        # still parked when it dies.
        inside[ctx.rank] = "barrier"
        rt.barrier()

    plan = FaultPlan(faults=(Fault(kind="kill_rank", rank=victim, round=1),))
    with inject_faults(plan) as active:
        with pytest.raises(RankFailedError) as excinfo:
            run_mpi_program(program, nranks)
    err = excinfo.value
    assert err.rank == victim and isinstance(_injected_cause(err), InjectedFault)
    assert active.fired[0]["round"] == 1
    assert inside[victim] == collective  # its second round boundary is in there
    assert err.rank_states[victim] is RankState.FAILED
    assert all(state is RankState.TORN_DOWN
               for rank, state in err.rank_states.items() if rank != victim)
    assert not [t for t in threading.enumerate() if t.name.startswith("sim-rank-")]


@pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "nonblocking"])
@pytest.mark.parametrize("collective,algorithm", ALGORITHMS,
                         ids=[f"{c}:{a}" for c, a in ALGORITHMS])
def test_kill_rank_at_a_round_inside_every_algorithm(collective, algorithm, nonblocking):
    """Every schedule crosses at least one round per call, so a kill at the
    victim's second crossing lands inside the collective -- blocking or not --
    and every survivor is torn down at the barrier behind it."""
    nranks, victim, reached = 5, 3, set()
    program = two_collective_calls(collective, algorithm, nonblocking, nranks, reached=reached)
    plan = FaultPlan(faults=(Fault(kind="kill_rank", rank=victim, round=1),))
    with inject_faults(plan) as active:
        with pytest.raises(RankFailedError) as excinfo:
            run_mpi_program(program, nranks)
    err = excinfo.value
    assert err.rank == victim and isinstance(_injected_cause(err), InjectedFault)
    assert active.fired[0]["round"] == 1
    assert victim not in reached
    assert all(state is RankState.TORN_DOWN
               for rank, state in err.rank_states.items() if rank != victim)


def test_faults_fire_once_and_disarmed_faults_stay_dark(session):
    plan = FaultPlan(
        faults=(Fault(kind="kill_rank", rank=1, call="MPI_Allreduce", call_index=0),))
    with inject_faults(plan, disarmed=[0]) as active:
        job = session.run("allreduce", 2)
    assert active.fired == []
    assert job.exit_codes() == [0, 0]


def test_drop_message_starves_the_receiver():
    plan = FaultPlan(faults=(Fault(kind="drop_message", src=0, dst=1),))

    def program(rt, ctx):
        buf = np.full(4, 7, dtype=np.int32)
        if ctx.rank == 0:
            rt.send(buf, 4, datatypes.INT, dest=1, tag=0)
            return "sent"
        rt.recv(buf, 4, datatypes.INT, source=0, tag=0)
        return "received"  # pragma: no cover - the payload never arrives

    with inject_faults(plan) as active:
        with pytest.raises((DeadlockError, RankFailedError)):
            run_mpi_program(program, 2)
    assert active.fired and active.fired[0]["kind"] == "drop_message"


def test_corrupt_message_flips_received_bytes():
    def program(rt, ctx):
        buf = np.arange(16, dtype=np.int32)
        if ctx.rank == 0:
            rt.send(buf, 16, datatypes.INT, dest=1, tag=0)
            return buf.tolist()
        recv = np.zeros(16, dtype=np.int32)
        rt.recv(recv, 16, datatypes.INT, source=0, tag=0)
        return recv.tolist()

    clean = run_mpi_program(program, 2)
    plan = FaultPlan(faults=(Fault(kind="corrupt_message", src=0, dst=1),), seed=3)
    with inject_faults(plan) as active:
        corrupted = run_mpi_program(program, 2)
    assert active.fired and active.fired[0]["kind"] == "corrupt_message"
    assert corrupted[1] != clean[1], "receiver must observe corrupted bytes"
    assert corrupted[0] == clean[0], "sender's buffer is untouched"


def test_delay_link_shifts_arrival_time():
    def program(rt, ctx):
        buf = np.zeros(1, dtype=np.int32)
        if ctx.rank == 0:
            rt.send(buf, 1, datatypes.INT, dest=1, tag=0)
            return 0.0
        rt.recv(buf, 1, datatypes.INT, source=0, tag=0)
        return ctx.now

    clean = run_mpi_program(program, 2)
    delay = 1.25e-3
    plan = FaultPlan(faults=(Fault(kind="delay_link", src=0, dst=1, delay=delay),))
    with inject_faults(plan) as active:
        delayed = run_mpi_program(program, 2)
    assert active.fired and active.fired[0]["kind"] == "delay_link"
    assert delayed[1] == pytest.approx(clean[1] + delay)


# ------------------------------------------------------------------- recovery


def test_recovery_replays_bit_for_bit(session):
    baseline = session.run("allreduce", 4)
    plan = FaultPlan(
        faults=(Fault(kind="kill_rank", rank=1, call="MPI_Allreduce", call_index=2),))
    result = run_with_recovery("allreduce", 4, plan=plan, session=session)
    assert result.recovered and result.attempts == 2
    assert len(result.fired) == 1
    assert result.failures[0]["injected"] is True
    # Deterministic replay: the recovered run is indistinguishable from a
    # run that never saw the fault.
    assert result.job.makespan == baseline.makespan
    assert result.job.exit_codes() == baseline.exit_codes()
    assert result.job.return_values() == baseline.return_values()
    counters = result.job.metrics.counters()
    assert counters["fault.injected"] == 1
    assert counters["fault.restarts"] == 1
    assert counters["fault.recovered"] == 1


def test_recovery_budget_exhaustion_reraises(session):
    plan = FaultPlan(
        faults=(Fault(kind="kill_rank", rank=0, call="MPI_Allreduce", call_index=0),))
    with pytest.raises(RankFailedError):
        run_with_recovery("allreduce", 2, plan=plan, max_restarts=0, session=session)


def test_recovery_never_masks_genuine_failures(session):
    def main(api, args):
        api.mpi_init()
        if api.rank() == 0:
            raise RuntimeError("genuine bug, not an injection")
        api.mpi_finalize()
        return 0

    program = GuestProgram(name="genuine-failure", main=main)
    with pytest.raises(RankFailedError) as excinfo:
        run_with_recovery(program, 2, plan=FaultPlan(), session=session)
    assert _injected_cause(excinfo.value) is None


# ------------------------------------------------------------ ULFM primitives


def test_ulfm_revoke_shrink_agree_continue_on_survivors():
    nranks, victim = 4, 2

    def program(rt, ctx):
        if ctx.rank == victim:
            recover.mark_failed(rt)
            recover.revoke(rt)
            return "left"
        # Survivors: wait for the revocation to become visible, shrink the
        # world to the survivor communicator, and keep computing on it.
        for _ in range(10_000):
            if recover.is_revoked(rt):
                break
            ctx.advance(rt.wtick())
            ctx.yield_turn()
        assert recover.is_revoked(rt)
        failed = recover.failed_ranks(rt)
        assert failed == {victim}
        shrunk = recover.shrink(rt.comm_world, failed)
        assert rt.comm_size(shrunk) == nranks - 1
        send = np.array([ctx.rank + 1], dtype=np.int64)
        out = np.zeros(1, dtype=np.int64)
        rt.allreduce(send, out, 1, datatypes.LONG, ops.SUM, comm=shrunk)
        agreed = recover.agree(rt, shrunk, True, failed=failed)
        return (int(out[0]), agreed)

    results = run_mpi_program(program, nranks)
    survivor_sum = sum(r + 1 for r in range(nranks) if r != victim)
    for rank, result in enumerate(results):
        if rank == victim:
            assert result == "left"
        else:
            assert result == (survivor_sum, True)


def test_shrink_is_deterministic_and_rejects_empty_survivors():
    from repro.mpi.communicator import world_communicator
    from repro.mpi.errors import MPIError

    world = world_communicator(4)
    once = recover.shrink(world, {1})
    again = recover.shrink(world, {1})
    assert once.context_id == again.context_id
    assert once.group.world_ranks == (0, 2, 3)
    assert once.context_id != world.context_id
    with pytest.raises(MPIError):
        recover.shrink(world, {0, 1, 2, 3})


# ------------------------------------------------------------- engine teardown


def test_engine_tears_down_blocked_survivors():
    engine = SimEngine(3)

    def make(rank):
        def main(ctx):
            if ctx.rank == 1:
                ctx.advance(1.0)
                raise ValueError("rank 1 exploded")
            ctx.block("waiting forever")
            return "unreachable"  # pragma: no cover

        return main

    engine.spawn_all(make)
    with pytest.raises(RankFailedError) as excinfo:
        engine.run()
    err = excinfo.value
    assert err.rank == 1
    assert isinstance(err.original, ValueError)
    assert len(err.rank_clocks) == 3
    assert err.rank_states[0] is RankState.TORN_DOWN
    assert err.rank_states[1] is RankState.FAILED
    assert err.rank_states[2] is RankState.TORN_DOWN


def test_teardown_cannot_be_swallowed_by_guest_except():
    engine = SimEngine(2)

    def make(rank):
        def main(ctx):
            if ctx.rank == 0:
                try:
                    ctx.block("forever")
                except Exception:  # noqa: BLE001 - the point of the test
                    return "caught"  # pragma: no cover - must never happen
                return "fell through"  # pragma: no cover
            ctx.advance(0.5)
            raise RuntimeError("die")

        return main

    engine.spawn_all(make)
    with pytest.raises(RankFailedError) as excinfo:
        engine.run()
    assert excinfo.value.rank == 1
    # The blocked rank was unwound via the uncatchable teardown signal, not
    # resumed through its except handler.
    assert excinfo.value.rank_states[0] is RankState.TORN_DOWN
