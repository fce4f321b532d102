"""Per-job hooks: the tracer, profiler, fault plan and checkpoint capture a
job runs with are the ones its own thread installed (``repro.obs.hooks``).

Every test runs two jobs in two threads and makes them overlap completely:
each job's ``SimEngine.run`` waits for the other before it starts and again
before it returns, so every event of either job happens while both jobs'
hooks are installed.  A hook that leaked from one job into the other would
show in every run, not only in an unlucky interleaving.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.api import Session
from repro.fault import Fault, FaultPlan, InjectedFault, inject_faults
from repro.harness.campaign import run_campaign
from repro.obs import profiling
from repro.obs.hooks import NO_HOOKS, current_hooks
from repro.serve.server import JobService, ServeConfig
from repro.sim.engine import RankFailedError, SimEngine

TIMEOUT = 120.0


def _overlap(monkeypatch):
    """From now on, make each two jobs' engine runs start and end together."""
    barrier = threading.Barrier(2, timeout=TIMEOUT)
    run = SimEngine.run

    def run_together(self):
        barrier.wait()
        try:
            return run(self)
        finally:
            barrier.wait()

    monkeypatch.setattr(SimEngine, "run", run_together)


def _in_threads(*jobs):
    """Run each callable in its own thread; ``(results, errors)`` in order."""
    results, errors = [None] * len(jobs), [None] * len(jobs)

    def call(i):
        try:
            results[i] = jobs[i]()
        except BaseException as exc:  # noqa: BLE001 - asserted by the caller
            errors[i] = exc

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    return results, errors


def _events(trace):
    return Counter((e["name"], e["tid"]) for e in trace["events"])


def _traced_pingpong():
    with Session(trace=True) as session:
        return session.run("pingpong", 2, mode="native").trace


def test_concurrent_traced_sessions_each_get_exactly_their_own_trace(monkeypatch):
    expected = _events(_traced_pingpong())
    assert sum(expected.values()) == 326
    _overlap(monkeypatch)
    (first, second), errors = _in_threads(_traced_pingpong, _traced_pingpong)
    assert errors == [None, None]
    assert first is not None and second is not None and first is not second
    assert _events(first) == expected and _events(second) == expected
    assert current_hooks() is NO_HOOKS


def test_one_traced_service_job_beside_an_untraced_one(monkeypatch, tmp_path):
    spec = {"name": "traced", "trace": True,
            "benchmarks": [{"benchmark": "pingpong", "nranks": 2, "mode": "native"}]}
    [reference] = [o.trace for o in run_campaign(spec).outcomes]
    campaigns = []
    campaign = Session.campaign

    def keep(self, *args, **kwargs):
        result = campaign(self, *args, **kwargs)
        campaigns.append(result)
        return result

    monkeypatch.setattr(Session, "campaign", keep)
    _overlap(monkeypatch)
    key = "hooks-test-key"
    service = JobService(ServeConfig(
        workers=2, queue_size=4, cache_dir=str(tmp_path),
        tenants={"tenants": [{"name": "t", "key": key, "rate": 100.0, "burst": 100}]}))
    service.start()
    try:
        ids = [service.submit(key, {"kind": "campaign", "spec": spec})["job_id"],
               service.submit(key, {"kind": "run", "benchmark": "allreduce", "nranks": 4,
                                    "mode": "native"})["job_id"]]
        deadline = time.monotonic() + TIMEOUT
        while (any(service.job_status(key, i)["state"] not in ("done", "error") for i in ids)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert [service.job_status(key, i)["state"] for i in ids] == ["done", "done"]
    finally:
        service.shutdown()
    [result] = campaigns
    traces = [o.trace for o in result.outcomes if o.trace]
    assert len(traces) == 1
    assert sum(n for (name, _tid), n in _events(traces[0]).items() if name.startswith("MPI_")) > 0
    assert _events(traces[0]) == _events(reference)


def test_a_fault_plan_kills_only_the_job_of_its_thread(monkeypatch):
    plan = FaultPlan(faults=(Fault(kind="kill_rank", rank=0, call="MPI_Bcast", call_index=0),))

    def armed(benchmark, fired):
        def job():
            with inject_faults(plan) as active, Session() as session:
                try:
                    session.run(benchmark, 2, mode="native")
                finally:
                    fired.extend(active.fired)
        return job

    def unarmed():
        with Session() as session:
            return session.run("bcast", 2, mode="native").exit_codes()

    _overlap(monkeypatch)
    # The armed job never calls MPI_Bcast; the concurrent unarmed one does.
    fired = []
    (_, codes), errors = _in_threads(armed("allreduce", fired), unarmed)
    assert errors == [None, None] and codes == [0, 0] and fired == []

    # Both call it: the plan fires in its own job only.
    (_, codes), errors = _in_threads(armed("bcast", fired), unarmed)
    assert isinstance(errors[0], RankFailedError)
    assert isinstance(errors[0].original, InjectedFault)
    assert errors[1] is None and codes == [0, 0]
    assert [event["rank"] for event in fired] == [0]


def _run_allreduce_on_the_interpreter():
    with Session(backend="singlepass") as session:
        return session.run("allreduce", 2).exit_codes()


def test_a_profiler_counts_only_the_dispatches_of_its_thread(monkeypatch):
    with profiling() as solo:
        _run_allreduce_on_the_interpreter()
    assert solo.dispatches > 0
    _overlap(monkeypatch)

    def profiled():
        with profiling() as profiler:
            _run_allreduce_on_the_interpreter()
        return profiler

    (profiler, codes), errors = _in_threads(profiled, _run_allreduce_on_the_interpreter)
    assert errors == [None, None] and codes == [0, 0]
    assert profiler.dispatches == solo.dispatches
    assert profiler.calls == solo.calls
