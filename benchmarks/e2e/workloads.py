"""The seven workloads: inputs from the seed, one unit of work, its checks.

A workload is set up once, warmed with one untimed unit, then timed unit
after unit.  ``run_unit`` only calls the program (under spans); ``check``
validates the outputs outside the timed region and says how much work the
unit did.  Sizes marked *smoke* are for the tier-1 smoke test only.
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks._baseline_interpreter import BaselineInterpreter
from benchmarks.e2e import guests
from benchmarks.e2e.modgen import build_big_module
from benchmarks.e2e.spans import SpanRecorder
from repro.api import Session
from repro.api.registry import BENCHMARKS
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.benchmarks_suite.imb import (
    NBC_ROUTINES,
    make_imb_nbc_program,
    make_imb_suite_program,
)
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.obs import tracing
from repro.serve.server import JobService, ServeConfig
from repro.toolchain.wasicc import compile_guest
from repro.wasm import ImportObject, Instance, encode_module
from repro.wasm.compilers.cache import module_hash

BACKENDS = ("singlepass", "cranelift", "llvm")
MACHINE = "supermuc-ng"
BACKEND = "cranelift"
#: The default 65536-event ring drops events on ``imb-np32``; counts must be exact.
TRACE_CAPACITY = 1 << 20


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; timings are reported as q1 (README "why the first quartile")."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


@dataclass
class Unit:
    """What one checked unit of work amounted to."""

    work: float                              # in the workload's ``work_unit``
    makespan: float = 0.0                    # simulated seconds over the unit's jobs
    signature: object = None                 # must repeat exactly, unit after unit
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: Host seconds the work rate is taken over (default: the unit's wall time).
    work_seconds: Optional[float] = None
    #: Per-request host latencies inside the unit (default: the unit's wall time).
    samples: Optional[List[float]] = None
    #: Sum over the unit's jobs of ranks x host seconds (for ``mpi.wait_wall_frac``).
    rank_seconds: float = 0.0


@dataclass
class Measurement:
    """Timed units of one workload, tracing off."""

    samples: List[float]                     # host seconds per unit (or request)
    work_per_s: float
    makespan: float                          # simulated seconds per unit
    attempted: int
    errors: List[str]


class Workload:
    """Base class; subclasses fill in ``setup`` / ``run_unit`` / ``check``."""

    name = ""
    work_unit = ""
    #: Run on one CPU.  The engine runs one rank thread at a time, so a second
    #: core adds no parallelism, only cross-core wake-ups that double the
    #: handoff cost and its spread on a small VM (README "known limits").
    one_cpu = True

    def __init__(self, seed: int, smoke: bool, spans: SpanRecorder, tmp: str):
        self.seed = seed
        self.smoke = smoke
        self.spans = spans
        self.tmp = tmp
        self.setup_attempted = 0
        self.setup_errors: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_unit(self):
        raise NotImplementedError

    def check(self, out, wall: float) -> Unit:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def traced_unit(self):
        """One unit under ``repro.obs`` tracing: ``(out, wall, snapshots)``."""
        with tracing(capacity=TRACE_CAPACITY) as recorder:
            start = time.perf_counter()
            out = self.run_unit()
            wall = time.perf_counter() - start
        return out, wall, [recorder.snapshot()]

    def measure(self, seconds: float, min_units: int) -> Measurement:
        """Time units until ``seconds`` have passed (and ``min_units`` ran)."""
        samples: List[float] = []
        work_seconds: List[float] = []
        attempted, errors = 0, []
        first: Optional[Unit] = None
        begin = time.perf_counter()
        while len(samples) < min_units or time.perf_counter() - begin < seconds:
            self.spans.unit += 1
            gc.collect()          # the last unit's garbage is neither this unit's time nor its memory
            start = time.perf_counter()
            out = self.run_unit()
            wall = time.perf_counter() - start
            unit = self.check(out, wall)
            samples.append(wall)
            work_seconds.append(unit.work_seconds or wall)
            attempted += unit.attempted
            errors += unit.errors
            if first is None:
                first = unit
            elif unit.signature != first.signature:
                errors.append(f"{self.name}: simulated results changed between units")
        return Measurement(samples, first.work / quartiles(work_seconds)[0],
                           first.makespan, attempted, errors)

    # ---------------------------------------------------------------- helpers

    def _tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)

    def _oracle(self, session: Session, nranks: int, machine: str) -> None:
        """Run the oracle guest in both modes; record mismatches."""
        program = guests.make_oracle_program()
        values = {}
        for mode in ("wasm", "native"):
            with self.spans.span("session.run", app="oracle", mode=mode, nranks=nranks):
                job = session.run(program, nranks, mode=mode, machine=machine)
            values[mode] = job.return_values()
            self.setup_attempted += 1
            if any(job.exit_codes()) or any(v["errors"] for v in values[mode]):
                self.setup_errors.append(f"{self.name}: oracle wrong in {mode} mode at np={nranks}")
        if values["wasm"] != values["native"]:
            self.setup_errors.append(f"{self.name}: oracle wasm != native at np={nranks}")


# ------------------------------------------------------------- job workloads


class _JobWorkload(Workload):
    """One or more ``Session.run`` calls of bundled guests per unit."""

    work_unit = "MPI calls"
    nranks = 0

    def programs(self) -> Sequence:
        raise NotImplementedError

    def setup(self) -> None:
        with self.spans.span("Session", machine=MACHINE, backend=BACKEND):
            self.session = Session(machine=MACHINE, backend=BACKEND)
        self._programs = list(self.programs())
        self._oracle(self.session, self.nranks, MACHINE)

    def run_unit(self):
        jobs = []
        for program in self._programs:
            with self.spans.span("session.run", app=program.name, nranks=self.nranks):
                jobs.append(self.session.run(program, self.nranks))
        return jobs

    def check(self, jobs, wall: float) -> Unit:
        errors = [f"{self.name}: non-zero exit code in {program.name}"
                  for program, job in zip(self._programs, jobs) if any(job.exit_codes())]
        calls = sum(sum(r.call_counts.values()) for job in jobs for r in job.rank_results)
        makespan = sum(job.makespan for job in jobs)
        return Unit(work=self.work(jobs, calls), makespan=makespan,
                    signature=(makespan, calls), attempted=len(jobs), errors=errors,
                    rank_seconds=self.nranks * wall)

    def work(self, jobs, calls: int) -> float:
        return float(calls)

    def close(self) -> None:
        self.session.close()


class ImbNp8(_JobWorkload):
    name = "imb-np8"
    nranks = 8

    def programs(self):
        if self.smoke:
            return [make_imb_suite_program(message_sizes=(16, 1024), iterations=1)]
        return [make_imb_suite_program(iterations=8)]


class ImbNp32(_JobWorkload):
    name = "imb-np32"
    nranks = 32
    #: Sizes capped so the guest heap never grows (README "known limits").
    ROUTINES = ("sendrecv", "bcast", "allreduce", "reduce", "allgather")

    def programs(self):
        if self.smoke:
            return [make_imb_suite_program(routines=("bcast", "allreduce"),
                                           message_sizes=(16,), iterations=1)]
        return [make_imb_suite_program(routines=self.ROUTINES,
                                       message_sizes=(1, 16, 256, 4096), iterations=4)]


class NbcNp8(_JobWorkload):
    name = "nbc-np8"
    nranks = 8

    def programs(self):
        if self.smoke:
            return [make_imb_nbc_program(r, message_sizes=(16,), iterations=1)
                    for r in ("ibarrier", "iallreduce")]
        return [make_imb_nbc_program(r, iterations=4) for r in NBC_ROUTINES]


class HpcgNp4(_JobWorkload):
    name = "hpcg-np4"
    work_unit = "flop"
    nranks = 4

    def programs(self):
        self.dims, self.iterations = ((8, 4, 4), 2) if self.smoke else ((16, 16, 8), 12)
        return [make_hpcg_program(dims=self.dims, iterations=self.iterations)]

    def setup(self) -> None:
        super().setup()
        with self.spans.span("session.run", app="hpcg", mode="native", nranks=self.nranks):
            native = self.session.run(self._programs[0], self.nranks, mode="native")
        self.native_residual = native.return_values()[0]["residual_final"]

    def check(self, jobs, wall: float) -> Unit:
        unit = super().check(jobs, wall)
        for value in jobs[0].return_values():
            if not value["converging"]:
                unit.errors.append("hpcg-np4: residual did not fall")
            if abs(value["residual_final"] - self.native_residual) > 1e-9 * abs(self.native_residual):
                unit.errors.append("hpcg-np4: wasm residual differs from the native run")
        return unit

    def work(self, jobs, calls: int) -> float:
        # hpcg_ddot does one multiply and one add per element, and the guest
        # calls it once per allreduce (2*iterations + 1 dot products a rank).
        n_local = self.dims[0] * self.dims[1] * self.dims[2]
        return 2.0 * n_local * (2 * self.iterations + 1) * self.nranks


# -------------------------------------------------------------- compile-big


class CompileBig(Workload):
    name = "compile-big"
    work_unit = "KB compiled"
    ARGS = (12345, 3)

    def setup(self) -> None:
        functions, blocks = (3, 3) if self.smoke else (20, 24)
        module = build_big_module(self.seed, functions=functions, blocks=blocks)
        self.wasm_bytes = encode_module(module)
        reference = Instance(module, ImportObject(), executor=BaselineInterpreter())
        self.expected = reference.invoke("f0", *self.ARGS)

    def run_unit(self):
        rows = []
        for backend in BACKENDS:
            cache_dir = self._tempdir(f"compile-{backend}-")
            start = time.perf_counter()
            with self.spans.span("Session", backend=backend, cache="cold"):
                cold_session = Session(backend=backend, cache_dir=cache_dir)
            with self.spans.span("session.compile", backend=backend, cache="cold"):
                cold = cold_session.compile(self.wasm_bytes)
            cold_seconds = time.perf_counter() - start
            with self.spans.span("Session", backend=backend, cache="disk"):
                hit_session = Session(backend=backend, cache_dir=cache_dir)
            with self.spans.span("session.compile", backend=backend, cache="disk"):
                hit = hit_session.compile(self.wasm_bytes)
            rows.append((backend, cache_dir, cold_seconds, cold, hit,
                         cold_session, hit_session))
        return rows

    def check(self, rows, wall: float) -> Unit:
        errors = []
        for backend, cache_dir, _cold_s, cold, hit, cold_session, hit_session in rows:
            if cold_session.cache_summary()["misses"] != 1:
                errors.append(f"compile-big: cold {backend} compile was not a miss")
            if hit_session.cache_summary()["hits_fs"] != 1:
                errors.append(f"compile-big: second {backend} compile was not a disk hit")
            for label, compiled in (("cold", cold), ("disk-hit", hit)):
                instance = Instance(compiled.module, ImportObject(),
                                    executor=compiled.make_executor())
                if instance.invoke("f0", *self.ARGS) != self.expected:
                    errors.append(f"compile-big: f0 differs under {backend} ({label})")
            cold_session.close()
            hit_session.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Unit(work=len(self.wasm_bytes) / 1024 * len(rows), signature=self.expected,
                    attempted=2 * len(rows), errors=errors,
                    work_seconds=sum(row[2] for row in rows))


# -------------------------------------------------------------- campaign-96


class Campaign96(Workload):
    name = "campaign-96"
    work_unit = "jobs"
    one_cpu = False               # two worker processes
    WORKERS = 2
    trace = False                 # per-job ``repro.obs`` tracing (the traced unit only)

    def matrix(self, benchmarks, nranks, repeats) -> Dict[str, object]:
        return {"name": "e2e-campaign", "seed": self.seed, "benchmarks": [{
            "benchmark": list(benchmarks), "mode": ["wasm", "native"],
            "backend": list(BACKENDS), "nranks": list(nranks),
            "machine": "graviton2", "repeats": repeats}]}

    def setup(self) -> None:
        if self.smoke:
            self.spec = self.matrix(("allreduce",), (2,), 1)
        else:
            self.spec = self.matrix(("allreduce", "alltoall", "bcast", "sendrecv"), (2, 4, 8), 2)
        jobs = CampaignSpec.from_mapping(self.spec).expand()
        pairs = {(job.name, job.backend) for job in jobs if job.mode == "wasm"}
        self.expected_compiles = len({
            module_hash(compile_guest(BENCHMARKS.get(name)()).wasm_bytes, backend)
            for name, backend in pairs})
        # Serial and parallel execution must agree job by job; checked once,
        # on a slice of the matrix, because a serial 96-job campaign is slow.
        small = self.matrix(("allreduce",), (2,), 1) if self.smoke \
            else self.matrix(("allreduce", "bcast"), (2, 4), 1)
        prints = [self.campaign(small, workers).fingerprints() for workers in (1, self.WORKERS)]
        self.setup_attempted += 1
        if prints[0] != prints[1]:
            self.setup_errors.append("campaign-96: workers=1 and workers=2 fingerprints differ")
        with Session(machine="graviton2", backend=BACKEND) as session:
            self._oracle(session, 4, "graviton2")

    def campaign(self, spec, workers: int):
        cache_dir, journal_dir = self._tempdir("campaign-cache-"), self._tempdir("campaign-journal-")
        try:
            with self.spans.span("run_campaign", workers=workers):
                return run_campaign(spec, workers=workers, cache_dir=cache_dir,
                                    journal_dir=journal_dir, trace=self.trace)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(journal_dir, ignore_errors=True)

    def run_unit(self):
        return self.campaign(self.spec, self.WORKERS)

    def traced_unit(self):
        # Jobs run in worker processes: each records on its own recorder
        # (``trace=True``) and ships the snapshot back with its outcome.
        self.trace = True
        try:
            start = time.perf_counter()
            result = self.run_unit()
            wall = time.perf_counter() - start
        finally:
            self.trace = False
        return result, wall, [o.trace for o in result.outcomes if o.trace]

    def check(self, result, wall: float) -> Unit:
        errors = [f"campaign-96: job {o.job_id} failed: {(o.error or {}).get('type')}"
                  for o in result.errors]
        if result.interrupted:
            errors.append("campaign-96: interrupted")
        if result.cache_stats.get("compiles") != self.expected_compiles:
            errors.append(f"campaign-96: {result.cache_stats.get('compiles')} compiles, "
                          f"expected {self.expected_compiles}")
        makespan = sum(o.makespan or 0.0 for o in result.outcomes)
        return Unit(work=float(len(result.outcomes)), makespan=makespan,
                    signature=tuple(sorted(result.fingerprints().items())),
                    attempted=len(result.outcomes), errors=errors,
                    rank_seconds=sum(o.spec.nranks * o.wall_seconds for o in result.outcomes))


# ------------------------------------------------------------- serve-closed


class ServeClosed(Workload):
    name = "serve-closed"
    work_unit = "jobs"
    KEY = "e2e-bench-key"
    CLIENTS = 2                   # = nproc: callers that each wait for a reply
    POLL_SECONDS = 0.0005
    #: The traffic mix; every block of five requests holds each kind once.
    MIX = (("pingpong", 2), ("allreduce", 4), ("bcast", 4), ("is", 4), ("ior", 2))
    TERMINAL = ("done", "error", "cancelled")

    def setup(self) -> None:
        tenants = {"tenants": [{"name": "bench", "key": self.KEY, "rate": 1e5, "burst": 100000}]}
        with self.spans.span("JobService", workers=2):
            self.service = JobService(ServeConfig(
                workers=2, queue_size=16, tenants=tenants,
                cache_dir=self._tempdir("serve-cache-")))
            self.service.start()
        self._rngs = [random.Random(self.seed * 1000 + c) for c in range(self.CLIENTS)]
        with Session(machine="graviton2", backend=BACKEND) as session:
            self._oracle(session, 4, "graviton2")

    def _request(self, kind) -> dict:
        """Submit one job and poll until it is terminal; returns its record."""
        benchmark, nranks = kind
        start = time.perf_counter()
        try:
            with self.spans.span("svc.submit", benchmark=benchmark):
                job_id = self.service.submit(
                    self.KEY, {"kind": "run", "benchmark": benchmark, "nranks": nranks})["job_id"]
            submitted = time.perf_counter()
            while True:
                with self.spans.span("svc.job_status"):
                    state = self.service.job_status(self.KEY, job_id)["state"]
                if state in self.TERMINAL:
                    break
                time.sleep(self.POLL_SECONDS)
            latency = time.perf_counter() - start
            record = self.service.store.get(job_id)
            return {"kind": kind, "state": state, "latency": latency,
                    "submit": submitted - start,
                    "queue_wait": record.started_mono - record.submitted_mono,
                    "exec": record.wall_seconds(),
                    "makespan": (record.result or {}).get("makespan"),
                    "exit_codes": (record.result or {}).get("exit_codes")}
        except Exception as exc:  # noqa: BLE001 - a refused submission is a failed operation
            return {"kind": kind, "state": f"refused: {type(exc).__name__}: {exc}",
                    "latency": time.perf_counter() - start}

    def _clients(self, keep_going: Callable[[int], bool]) -> List[dict]:
        """Closed loop: each client sends its next request when the last returned."""
        records: List[List[dict]] = [[] for _ in range(self.CLIENTS)]

        def client(index: int) -> None:
            sent = 0
            while keep_going(sent):
                block = list(self.MIX)
                self._rngs[index].shuffle(block)
                for kind in block:
                    records[index].append(self._request(kind))
                sent += len(block)

        threads = [threading.Thread(target=client, args=(i,), name=f"client-{i}")
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [r for per_client in records for r in per_client]

    def run_unit(self):
        """One block per client (warm-up and the traced unit)."""
        return self._clients(lambda sent: sent == 0)

    def traced_unit(self):
        # Two worker threads run jobs at once and ``repro.obs`` keeps one
        # process-wide recorder, so only the outside spans are taken here.
        start = time.perf_counter()
        records = self.run_unit()
        return records, time.perf_counter() - start, []

    def check(self, records, wall: float) -> Unit:
        errors = []
        makespans: Dict[tuple, set] = {}
        for r in records:
            if r["state"] != "done" or any(r["exit_codes"]):
                errors.append(f"serve-closed: {r['kind'][0]} ended {r['state']}")
            else:
                makespans.setdefault(r["kind"], set()).add(r["makespan"])
        errors += [f"serve-closed: {kind[0]}/{kind[1]} returned {len(values)} makespans"
                   for kind, values in makespans.items() if len(values) != 1]
        signature = tuple(sorted((kind, min(values)) for kind, values in makespans.items()))
        return Unit(work=float(len(records)), signature=signature,
                    makespan=sum(value for _kind, value in signature),    # one request of each kind
                    attempted=len(records), errors=errors,
                    samples=[r["latency"] for r in records])

    def measure(self, seconds: float, min_units: int) -> Measurement:
        """One continuous closed loop; a sample is one request's latency."""
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        records = self._clients(
            lambda sent: sent < min_units or time.perf_counter() < deadline)
        elapsed = time.perf_counter() - start
        unit = self.check(records, elapsed)
        self.last_records = records
        return Measurement(unit.samples, len(records) / elapsed, unit.makespan,
                           unit.attempted, unit.errors)

    def close(self) -> None:
        with self.spans.span("svc.shutdown"):
            self.service.shutdown()


WORKLOADS = {cls.name: cls for cls in
             (ImbNp8, ImbNp32, NbcNp8, HpcgNp4, CompileBig, Campaign96, ServeClosed)}
