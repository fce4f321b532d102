"""Tests for the discrete-event engine: scheduling, clocks, failure modes."""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import List, Tuple

import pytest

from repro.sim.engine import (
    DeadlockError,
    RankFailedError,
    RankState,
    SimEngine,
    SimulationError,
)


def test_engine_requires_positive_ranks():
    with pytest.raises(ValueError):
        SimEngine(0)


def test_all_ranks_run_and_return_results():
    engine = SimEngine(4)
    engine.spawn_all(lambda r: (lambda ctx: ctx.rank * 10))
    assert engine.run() == [0, 10, 20, 30]


def test_spawn_count_must_match_nranks():
    engine = SimEngine(3)
    engine.spawn(lambda ctx: None)
    with pytest.raises(SimulationError):
        engine.run()


def test_cannot_spawn_out_of_order():
    engine = SimEngine(2)
    with pytest.raises(SimulationError):
        engine.spawn(lambda ctx: None, rank=1)


def test_clock_advance_and_advance_to():
    engine = SimEngine(1)

    def program(ctx):
        assert ctx.now == 0.0
        ctx.advance(1.5)
        ctx.advance(-3.0)  # negative advances are ignored
        assert ctx.now == pytest.approx(1.5)
        ctx.advance_to(1.0)  # cannot move backwards
        assert ctx.now == pytest.approx(1.5)
        ctx.advance_to(4.0)
        return ctx.now

    engine.spawn(program)
    assert engine.run() == [pytest.approx(4.0)]


def test_block_and_wake_transfers_time():
    engine = SimEngine(2)

    def waiter(ctx):
        if ctx.rank == 0:
            t = ctx.block("waiting for rank 1")
            return t
        ctx.advance(2.0)
        ctx.wake(0, not_before=5.0)
        return ctx.now

    engine.spawn(waiter)
    engine.spawn(waiter)
    results = engine.run()
    assert results[0] == pytest.approx(5.0)   # woken not before t=5
    assert results[1] == pytest.approx(2.0)


def test_wake_before_block_is_not_lost():
    engine = SimEngine(2)

    def program(ctx):
        if ctx.rank == 1:
            ctx.wake(0, not_before=1.0)
            return "sender"
        ctx.advance(0.1)
        # rank 0 runs first (smaller clock ordering is deterministic), so make
        # it yield once to let rank 1 issue the early wake.
        ctx.yield_turn()
        ctx.block("expected pending wake")
        return ctx.now

    engine.spawn(program)
    engine.spawn(program)
    results = engine.run()
    assert results[1] == "sender"
    assert results[0] >= 0.1


def test_deadlock_detection():
    engine = SimEngine(2)
    engine.spawn_all(lambda r: (lambda ctx: ctx.block("never woken")))
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    assert "never woken" in str(excinfo.value)


def test_rank_exception_is_reported_with_rank_number():
    engine = SimEngine(2)

    def program(ctx):
        if ctx.rank == 1:
            raise ValueError("guest crashed")
        return "ok"

    engine.spawn_all(lambda r: program)
    with pytest.raises(RankFailedError) as excinfo:
        engine.run()
    assert excinfo.value.rank == 1
    assert "guest crashed" in excinfo.value.rank_traceback


def test_scheduler_picks_smallest_clock_first():
    order = []
    engine = SimEngine(3)

    def program(ctx):
        # Each rank alternates between advancing and yielding; the engine must
        # always resume the rank with the smallest virtual clock.
        for _ in range(3):
            order.append((ctx.rank, round(ctx.now, 6)))
            ctx.advance(0.001 * (ctx.rank + 1))
            ctx.yield_turn()
        return ctx.now

    engine.spawn_all(lambda r: program)
    results = engine.run()
    # Rank 0 advances slowest per step, so it should finish with the smallest clock.
    assert results[0] < results[1] < results[2]
    # The very first three entries are the initial run of each rank at t=0.
    assert [entry[0] for entry in order[:3]] == [0, 1, 2]


def test_states_and_clocks_reporting():
    engine = SimEngine(2)
    engine.spawn_all(lambda r: (lambda ctx: ctx.advance(1.0)))
    engine.run()
    assert all(state == RankState.DONE for state in engine.states().values())
    assert engine.clocks() == [pytest.approx(1.0), pytest.approx(1.0)]
    assert engine.max_clock == pytest.approx(1.0)


def test_trace_log_collects_messages():
    engine = SimEngine(1, trace=True)

    def program(ctx):
        ctx.log("hello from rank")
        return None

    engine.spawn(program)
    engine.run()
    assert any("hello from rank" in line for line in engine.trace_log)


# ------------------------------------------------- stress + determinism oracle
#
# Seeded-random rank programs are run on the real engine and on a small
# single-threaded model of its contract: "the rank with the smallest
# (turn, rank) holds the token until it yields, blocks or ends".  A READY
# rank's turn is its clock; a BLOCKED rank's is max(clock, deadline), where
# a timed block sets the deadline and a wake lowers it to the wake's
# not_before (a plain block without a wake has none and cannot run).  A wake
# to a rank that is not blocked stays pending until its next yield or block.
# The order in which ops execute, the final clocks and whether (and where)
# the run deadlocks must be identical.

STRESS_RANKS = 64
STRESS_SEEDS = 200


def _random_programs(seed: int, nranks: int = STRESS_RANKS) -> List[List[Tuple]]:
    """One op list per rank; coarse ``dt`` values make clock ties common."""
    rng = random.Random(seed)
    programs = []
    for _ in range(nranks):
        # Every rank first advances and yields, so all ranks have started (in
        # rank order) before the random part begins.
        ops: List[Tuple] = [("advance", rng.choice((0.5, 1.0))), ("yield",)]
        for _ in range(rng.randint(4, 12)):
            kind = rng.choices(("advance", "yield", "block", "block_until", "wake"),
                               (4, 3, 1, 2, 3))[0]
            if kind == "advance":
                ops.append((kind, rng.choice((0.0, 0.5, 1.0, 2.5))))
            elif kind == "block_until":  # an absolute deadline, often already passed
                ops.append((kind, rng.choice((0.5, 1.0, 3.0, 6.0, 12.0))))
            elif kind == "wake":
                ops.append((kind, rng.randrange(nranks), rng.choice((0.0, 0.0, 3.0, 7.5))))
            else:
                ops.append((kind,))
        # Wake everyone on the way out so most programs run to completion.
        ops.extend(("wake", other, 0.0) for other in range(nranks))
        programs.append(ops)
    return programs


def _reference_run(programs):
    """Single-threaded model; returns (order, clocks, outcome, detail)."""
    n, never = len(programs), float("inf")
    clock, pc, state = [0.0] * n, [0] * n, ["READY"] * n
    pending, not_before, deadline = [False] * n, [0.0] * n, [never] * n
    order = []

    def turn(r):
        if state[r] == "READY":
            return clock[r]
        return max(clock[r], deadline[r]) if state[r] == "BLOCKED" else never

    while True:
        r = min(range(n), key=lambda r: (turn(r), r))
        if turn(r) == never:
            blocked = [r for r in range(n) if state[r] == "BLOCKED"]
            return order, clock, ("deadlock" if blocked else "done"), blocked
        # A rank woken while it sat in a yield resumes at the wake's not_before.
        clock[r] = max(turn(r), not_before[r])
        not_before[r], deadline[r], state[r] = 0.0, never, "RUNNING"
        while state[r] == "RUNNING":
            if pc[r] == len(programs[r]):
                state[r] = "DONE"
                break
            op = programs[r][pc[r]]
            order.append((r, pc[r]))
            pc[r] += 1
            if op[0] == "raise":
                return order, clock, "failed", r
            if op[0] == "advance":
                clock[r] += op[1]
            elif op[0] == "wake":
                other = op[1]
                if state[other] == "BLOCKED":
                    deadline[other] = min(deadline[other], op[2])
                else:
                    not_before[other] = max(not_before[other], op[2])
                    pending[other] = True
            elif pending[r]:  # yield/block with a wake already pending: keep running
                pending[r] = False
                until = op[1] if op[0] == "block_until" else never
                clock[r] = max(clock[r], min(not_before[r], until))
                not_before[r] = 0.0
            elif op[0] == "yield":
                state[r] = "READY"
            else:
                state[r] = "BLOCKED"
                if op[0] == "block_until":
                    deadline[r] = op[1]


def _engine_run(programs):
    """Run ``programs`` on a real engine; returns (engine, order, unwound, error)."""
    order: List[Tuple[int, int]] = []
    unwound: List[int] = []

    def make(rank):
        def program(ctx):
            finished = False
            try:
                for index, op in enumerate(programs[rank]):
                    order.append((rank, index))
                    if op[0] == "advance":
                        ctx.advance(op[1])
                    elif op[0] == "yield":
                        ctx.yield_turn()
                    elif op[0] == "block":
                        ctx.block(f"op {index}")
                    elif op[0] == "block_until":
                        ctx.block(f"op {index}", wake_at=op[1])
                    elif op[0] == "wake":
                        ctx.wake(op[1], not_before=op[2])
                    else:
                        raise ValueError(f"rank {rank} op {index}")
                finished = True
            finally:
                if not finished:
                    unwound.append(rank)

        return program

    engine = SimEngine(len(programs))
    engine.spawn_all(make)
    error = None
    try:
        engine.run()
    except (RankFailedError, DeadlockError) as exc:
        error = exc
    return engine, order, unwound, error


def _live_rank_threads(timeout: float = 5.0) -> List[str]:
    """Names of ``sim-rank-*`` threads still alive after ``timeout`` seconds.

    A finished rank's thread may need a moment to exit; a leaked one is parked
    forever, so polling with a deadline tells them apart.
    """
    deadline = time.monotonic() + timeout
    while True:
        alive = [t.name for t in threading.enumerate() if t.name.startswith("sim-rank-")]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.001)


@pytest.fixture
def short_switch_interval():
    """Make the interpreter preempt threads far more often than by default."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_run_order_matches_reference_model_over_random_programs(short_switch_interval):
    outcomes = {"done": 0, "deadlock": 0}
    for seed in range(STRESS_SEEDS):
        programs = _random_programs(seed)
        want_order, want_clocks, outcome, blocked = _reference_run(programs)
        engine, order, unwound, error = _engine_run(programs)
        assert order == want_order, f"seed {seed}: run order diverged from the model"
        assert engine.clocks() == want_clocks, f"seed {seed}"
        outcomes[outcome] += 1
        if outcome == "done":
            assert error is None, f"seed {seed}: {error!r}"
            assert set(engine.states().values()) == {RankState.DONE}
        else:
            # The last runnable rank blocked or ended with others still blocked.
            assert isinstance(error, DeadlockError), f"seed {seed}: {error!r}"
            assert unwound == blocked, f"seed {seed}: torn down out of rank order"
            assert [r for r, s in error.rank_states.items()
                    if s is RankState.TORN_DOWN] == blocked
            assert error.rank_clocks == want_clocks
    assert _live_rank_threads() == []
    # The generator must exercise both endings, mostly completion.
    assert outcomes["deadlock"] >= 1 and outcomes["done"] > outcomes["deadlock"], outcomes


def test_rank_failure_mid_handoff_tears_survivors_down_in_rank_order(short_switch_interval):
    torn_down = 0
    for seed in range(STRESS_SEEDS):
        programs = _random_programs(seed)
        rng = random.Random(~seed)
        victim = rng.randrange(STRESS_RANKS)
        # After the start-up yield, before the wake-everyone tail.
        programs[victim].insert(rng.randint(2, len(programs[victim]) - STRESS_RANKS), ("raise",))
        want_order, _clocks, outcome, detail = _reference_run(programs)
        engine, order, unwound, error = _engine_run(programs)
        if outcome == "deadlock":  # stuck before the victim reached its raise
            assert isinstance(error, DeadlockError), f"seed {seed}: {error!r}"
            continue
        assert outcome == "failed" and detail == victim
        assert isinstance(error, RankFailedError), f"seed {seed}: {error!r}"
        assert error.rank == victim
        assert isinstance(error.original, ValueError)
        assert order == want_order, f"seed {seed}: survivors ran on after the failure"
        states = error.rank_states
        assert states[victim] is RankState.FAILED
        survivors = [r for r in range(STRESS_RANKS) if states[r] is RankState.TORN_DOWN]
        assert unwound == [victim] + survivors, f"seed {seed}: unwound out of rank order"
        assert all(states[r] is RankState.DONE
                   for r in range(STRESS_RANKS) if r != victim and r not in survivors)
        torn_down += len(survivors)
    assert _live_rank_threads() == []
    assert torn_down > STRESS_SEEDS  # the failures really did hit mid-run


def test_deadlock_tears_down_every_parked_rank():
    cleaned = []

    def program(ctx):
        ctx.advance(0.25 * ctx.rank)
        try:
            ctx.block("never")
        finally:
            cleaned.append(ctx.rank)

    engine = SimEngine(4)
    engine.spawn_all(lambda r: program)
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    err = excinfo.value
    assert "rank 3 (never)" in str(err)
    assert cleaned == [0, 1, 2, 3]
    assert err.rank_states == {r: RankState.TORN_DOWN for r in range(4)}
    assert err.rank_clocks == [0.0, 0.25, 0.5, 0.75]
    assert _live_rank_threads() == []


def test_survivor_that_never_unwinds_is_reported_not_leaked(monkeypatch):
    release = threading.Event()

    def program(ctx):
        if ctx.rank == 1:
            raise ValueError("boom")
        try:
            ctx.block("forever")
        finally:
            release.wait(30.0)  # a guest finally-block that hangs

    engine = SimEngine(2)
    engine.spawn_all(lambda r: program)
    thread_join = threading.Thread.join
    monkeypatch.setattr(threading.Thread, "join",
                        lambda self, timeout=None: thread_join(self, 0.05))
    try:
        with pytest.raises(SimulationError, match="rank 0 did not unwind") as excinfo:
            engine.run()
        assert not isinstance(excinfo.value, RankFailedError)
    finally:
        release.set()
    assert _live_rank_threads() == []


class _CountingPark:
    """Stands in for a rank's park lock and counts how often the rank parks."""

    def __init__(self, lock):
        self._lock = lock
        self.acquires = 0

    def acquire(self):
        self.acquires += 1
        return self._lock.acquire()

    def release(self):
        self._lock.release()


def test_lone_runnable_rank_keeps_the_token_without_switching():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.block("until rank 1 is done")
        ctx.advance(1.0)
        for _ in range(10_000):
            ctx.yield_turn()
            assert ctx.now == 1.0
        ctx.wake(0)
        return ctx.now

    engine = SimEngine(2)
    engine.spawn_all(lambda r: program)
    parks = []
    for rec in engine._records:
        rec.park = _CountingPark(rec.park)
        parks.append(rec.park)
    assert engine.run() == [0.0, 1.0]
    # Rank 1 parked once, for its first turn; none of its 10 000 yields switched.
    assert [p.acquires for p in parks] == [2, 1]


def test_ranks_blocked_without_a_deadline_deadlock_and_unwind_in_rank_order():
    """Timed blocks end at their deadlines; once every rank sits in a block
    without one, the run is a deadlock and the survivors unwind in rank
    order."""
    cleaned = []

    def program(ctx):
        ctx.block("nap", wake_at=0.5 * (ctx.nranks - ctx.rank))
        try:
            ctx.block("never")
        finally:
            cleaned.append(ctx.rank)

    engine = SimEngine(4)
    engine.spawn_all(lambda r: program)
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    err = excinfo.value
    assert "rank 0 (never)" in str(err) and "nap" not in str(err)
    assert cleaned == [0, 1, 2, 3]
    assert err.rank_states == {r: RankState.TORN_DOWN for r in range(4)}
    assert err.rank_clocks == [2.0, 1.5, 1.0, 0.5]
    assert _live_rank_threads() == []


def test_ranks_blocked_only_on_deadlines_never_deadlock():
    """Nobody ever wakes anybody: every rank resumes at each of its
    deadlines, in (deadline, rank) order."""
    resumed = []

    def program(ctx):
        for step in (1, 2, 3):
            resumed.append((ctx.block("sleep", wake_at=step * (ctx.rank + 1)), ctx.rank))
        return ctx.now

    engine = SimEngine(3)
    engine.spawn_all(lambda r: program)
    assert engine.run() == [3.0, 6.0, 9.0]
    assert resumed == sorted(resumed)
    assert len(resumed) == 9
    assert _live_rank_threads() == []


def test_timed_block_at_the_earliest_turn_keeps_the_token_without_switching():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.block("until rank 1 is done")
        for step in range(1, 1001):
            assert ctx.block("sleep", wake_at=step * 1e-3) == step * 1e-3
        ctx.wake(0)
        return ctx.now

    engine = SimEngine(2)
    engine.spawn_all(lambda r: program)
    parks = []
    for rec in engine._records:
        rec.park = _CountingPark(rec.park)
        parks.append(rec.park)
    assert engine.run() == [0.0, 1.0]
    # Rank 1 parked once, for its first turn; none of its 1 000 naps switched.
    assert [p.acquires for p in parks] == [2, 1]


def test_deadline_resume_leaves_no_stale_wake():
    """A post that lands after the deadline does not outlive the block it
    was meant for: the rank resumes at the deadline, and its next block
    neither returns at once nor jumps to the post's time."""

    def program(ctx):
        if ctx.rank == 0:
            first = ctx.block("pattern", wake_at=1.0)
            second = ctx.block("next")
            return first, second
        ctx.advance(0.5)
        ctx.wake(0, not_before=3.0)  # lands after rank 0's deadline
        ctx.advance(1.0)
        ctx.yield_turn()  # rank 0's deadline (1.0) comes first
        ctx.wake(0, not_before=2.0)  # ends rank 0's second block
        return ctx.now

    engine = SimEngine(2)
    engine.spawn_all(lambda r: program)
    assert engine.run() == [(1.0, 2.0), 1.5]


def test_benchmark_makespans_are_pinned():
    """Virtual time of the three engine-bound e2e workloads, bit for bit.

    A scheduler change that reorders execution moves these; it must fail
    tier-1, not only the benchmark.
    """
    from repro.api import Session
    from repro.benchmarks_suite.imb import (
        NBC_ROUTINES,
        make_imb_nbc_program,
        make_imb_suite_program,
    )

    with Session(machine="supermuc-ng", backend="cranelift") as session:
        imb_np32 = session.run(make_imb_suite_program(
            routines=("sendrecv", "bcast", "allreduce", "reduce", "allgather"),
            message_sizes=(1, 16, 256, 4096), iterations=4), 32).makespan
        imb_np8 = session.run(make_imb_suite_program(iterations=8), 8).makespan
        nbc_np8 = sum(session.run(make_imb_nbc_program(routine, iterations=4), 8).makespan
                      for routine in NBC_ROUTINES)
    assert imb_np32 == 0.00024182778260869794
    assert imb_np8 == 0.0015154704886956145
    assert nbc_np8 == 0.0019591951686956546
