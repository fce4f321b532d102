"""Per-layer probes: each times calls into one layer's public functions.

Probes run in rounds, interleaved, and report the median per metric, so a
burst of host noise lands on every layer alike.  Heavy probes (whole-module
compiles, campaigns) run fewer rounds.  Which end-to-end metric each probe is
expected to move is tabled in ``README.md``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
import time
import urllib.request
from typing import Callable, Dict, List

import numpy as np

from benchmarks.e2e import guests
from benchmarks.e2e.modgen import build_big_module
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import BACKEND, BACKENDS, MACHINE, Campaign96, ServeClosed
from repro.analysis.ir_verify import verify_artifact
from repro.api import Session
from repro.benchmarks_suite.hpcg import build_hpcg_kernels
from repro.benchmarks_suite.imb import make_imb_suite_program
from repro.fault.journal import Journal
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.mpi.algorithms.schedule import get_builder
from repro.serve.server import create_server
from repro.sim.engine import RankFailedError, SimEngine
from repro.sim.metrics import MetricsRegistry
from repro.toolchain.wasicc import compile_guest
from repro.wasm import ImportObject, Instance, ModuleBuilder, decode_module, encode_module, validate_module
from repro.wasm.compilers import FileSystemCache, InMemoryCache, get_backend, module_hash
from repro.wasm.lowering import deserialize_lowered, lower_module, serialize_lowered


def _timed(fn: Callable, reps: int = 1) -> float:
    """Host seconds of one call of ``fn`` (mean over ``reps`` back-to-back calls)."""
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


class Probes:
    """Shared inputs plus one method per probe; each returns ``{metric: value}``."""

    def __init__(self, seed: int, smoke: bool, tmp: str):
        self.smoke = smoke
        self.tmp = tmp
        self.scale = 0.1 if smoke else 1.0          # inner-loop lengths
        functions, blocks = (3, 3) if smoke else (20, 24)
        self.big_bytes = encode_module(build_big_module(seed, functions, blocks))
        self.big_module = decode_module(self.big_bytes)
        self.big_compiled = get_backend(BACKEND).compile(self.big_module)
        self.big_payload = serialize_lowered(lower_module(self.big_module))

        kernels = ModuleBuilder(name="e2e-kernels")
        kernels.add_memory(min_pages=128)            # a guest-sized heap to instantiate
        build_hpcg_kernels(kernels)
        self.kernel_module = kernels.build()
        self.kernel_compiled = {b: get_backend(b).compile(self.kernel_module)
                                for b in (BACKEND, "llvm")}
        self.kernel_instances = {b: self._kernel_instance(b) for b in self.kernel_compiled}

        self.session = Session(machine=MACHINE, backend=BACKEND)
        self.imb_program = make_imb_suite_program()
        self.empty = guests.make_empty_program()
        # Guest programs are built once: a Session memoises wasicc output per program.
        self.call_loop = guests.make_call_loop_program(self._n(4000))
        self.payload = (1 << 16, 2) if smoke else (4 << 20, 4)        # (bytes, iterations)
        self.payload_pingpong = guests.make_pingpong_program(*self.payload)
        self.small_pingpong = guests.make_pingpong_program(8, self._n(200))
        self.loops = {c: guests.make_collective_loop_program(c, self._n(30))
                      for c in guests.COLLECTIVE_LOOPS}
        self.campaign = Campaign96(seed, smoke, SpanRecorder("layers"), tmp)
        self.outcome = run_campaign(self.campaign.matrix(("allreduce",), (2,), 1),
                                    workers=1, cache_dir=False).outcomes[0]

    def close(self) -> None:
        self.session.close()

    def _n(self, full: int) -> int:
        return max(2, int(full * self.scale))

    def _kernel_instance(self, backend: str) -> Instance:
        compiled = self.kernel_compiled[backend]
        return Instance(self.kernel_module, ImportObject(), executor=compiled.make_executor())

    def _tempdir(self) -> str:
        return tempfile.mkdtemp(prefix="layers-", dir=self.tmp)

    # ------------------------------------------------- toolchain / wasm / analysis

    def wasicc(self) -> Dict[str, float]:
        return {"toolchain.wasicc.compile_guest_ms": 1e3 * _timed(lambda: compile_guest(self.imb_program))}

    def pipeline(self) -> Dict[str, float]:
        out = {
            "wasm.decoder.decode_ms": _timed(lambda: decode_module(self.big_bytes)),
            "wasm.validation.validate_ms": _timed(lambda: validate_module(self.big_module)),
        }
        lowered = []
        out["wasm.lowering.lower_ms"] = _timed(lambda: lowered.append(lower_module(self.big_module)))
        out["wasm.lowering.serialize_ms"] = _timed(lambda: serialize_lowered(lowered[0]))
        out["wasm.lowering.deserialize_ms"] = _timed(lambda: deserialize_lowered(self.big_payload))
        for backend in BACKENDS:
            out[f"wasm.compilers.{backend}.compile_ms"] = _timed(
                lambda: get_backend(backend).compile(self.big_module))
        out["analysis.ir_verify.verify_ms"] = _timed(lambda: verify_artifact(self.big_compiled.artifact))
        return {name: 1e3 * seconds for name, seconds in out.items()}

    def cache(self) -> Dict[str, float]:
        key = module_hash(self.big_bytes, BACKEND)
        directory = self._tempdir()
        try:
            publish = _timed(lambda: FileSystemCache(directory).load_or_compute(
                key, self.big_module, lambda: self.big_compiled))
            hit = _timed(lambda: FileSystemCache(directory).load_or_compute(
                key, self.big_module, lambda: self.big_compiled))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        memory = InMemoryCache()
        memory.store(key, self.big_compiled)
        mem_hit = _timed(lambda: memory.load_or_compute(key, self.big_module, lambda: None),
                         reps=self._n(2000))
        return {"wasm.compilers.cache.disk_miss_ms": 1e3 * publish,
                "wasm.compilers.cache.disk_hit_ms": 1e3 * hit,
                "wasm.compilers.cache.mem_hit_us": 1e6 * mem_hit}

    def ddot(self) -> Dict[str, float]:
        n = self._n(2048)
        out = {}
        for backend, metric in ((BACKEND, "wasm.interpreter.ddot_melem_per_s"),
                                ("llvm", "wasm.compilers.llvm.ddot_melem_per_s")):
            instance = self.kernel_instances[backend]
            instance.memory.ndarray(0, 2 * n, np.float64)[:] = 1.5
            seconds = _timed(lambda: instance.invoke("hpcg_ddot", 0, 8 * n, n), reps=3)
            out[metric] = n / 1e6 / seconds
        return out

    def wasm_runtime(self) -> Dict[str, float]:
        instance = self.kernel_instances[BACKEND]
        invoke = _timed(lambda: instance.invoke("hpcg_ddot", 0, 0, 0), reps=self._n(2000))
        instantiate = _timed(lambda: self._kernel_instance(BACKEND), reps=3)
        return {"wasm.runtime.invoke_us": 1e6 * invoke,
                "wasm.runtime.instantiate_ms": 1e3 * instantiate}

    # --------------------------------------------------------- api / core / mpi

    def empty_job(self) -> Dict[str, float]:
        ms = {n: 1e3 * _timed(lambda: self.session.run(self.empty, n)) for n in (1, 8, 32)}
        out = {f"api.session.empty_job_ms.np{n}": value for n, value in ms.items()}
        out["core.embedder.rank_start_ms"] = (ms[32] - ms[1]) / 31
        return out

    def import_calls(self) -> Dict[str, float]:
        seconds = {mode: self.session.run(self.call_loop, 1, mode=mode).return_values()[0]
                   for mode in ("wasm", "native")}
        nbytes, iterations = self.payload
        pingpong = self.session.run(self.payload_pingpong, 2)
        return {"core.mpi_imports.call_us":
                    1e6 * (seconds["wasm"] - seconds["native"]) / self._n(4000),
                "core.mpi_imports.payload_mb_per_s":
                    2 * iterations * nbytes / 1e6 / pingpong.return_values()[0]}

    def mpi_native(self) -> Dict[str, float]:
        pingpong = self.session.run(self.small_pingpong, 2, mode="native")
        out = {"mpi.pt2pt.pingpong_us": 1e6 * pingpong.return_values()[0] / (2 * self._n(200))}
        for collective, program in self.loops.items():
            job = self.session.run(program, 8, mode="native")
            out[f"mpi.runtime.{collective}_us.np8"] = (
                1e6 * job.return_values()[0] / (self._n(30) * 8))
        builder = get_builder("allreduce", "recursive_doubling")
        out["mpi.algorithms.schedule.build_us.np32"] = 1e6 * _timed(
            lambda: builder(rank=5, size=32, count=512, esize=8, seq=0), reps=self._n(200))
        return out

    # ---------------------------------------------------------------------- sim

    def engine(self) -> Dict[str, float]:
        out = {}
        for nranks in (2, 8, 32):
            yields = self._n(3000) // nranks + 1
            window: List[float] = []

            def program(ctx, yields=yields, window=window):
                start = time.perf_counter()
                for _ in range(yields):
                    ctx.advance(1e-6)
                    ctx.yield_turn()
                if ctx.rank == 0:
                    window.append(time.perf_counter() - start)

            engine = SimEngine(nranks)
            engine.spawn_all(lambda rank: program)
            engine.run()
            out[f"sim.engine.handoff_us.np{nranks}"] = 1e6 * window[0] / (yields * nranks)

        rounds = self._n(1000)
        window = []

        def alternate(ctx):
            start = time.perf_counter()
            for _ in range(rounds):
                if ctx.rank == 0:
                    ctx.wake(1)
                    ctx.block("probe")
                else:
                    ctx.block("probe")
                    ctx.wake(0)
            if ctx.rank == 0:
                window.append(time.perf_counter() - start)

        engine = SimEngine(2)
        engine.spawn_all(lambda rank: alternate)
        engine.run()
        out["sim.engine.block_wake_us"] = 1e6 * window[0] / (2 * rounds)

        def trivial():
            engine = SimEngine(32)
            engine.spawn_all(lambda rank: (lambda ctx: ctx.rank))
            engine.run()

        out["sim.engine.spawn_join_ms.np32"] = 1e3 * _timed(trivial)
        registry = MetricsRegistry()

        def record():
            registry.record("probe.series", 1.0)
            registry.increment("probe.counter")

        out["sim.metrics.record_us"] = 1e6 * _timed(record, reps=self._n(5000)) / 2
        return out

    # ------------------------------------------------------------ harness / fault

    def campaign_light(self) -> Dict[str, float]:
        spec = self.campaign.matrix(("allreduce", "alltoall", "bcast", "sendrecv"), (2, 4, 8), 2)
        directory = self._tempdir()
        try:
            journal = Journal(directory)
            record = _timed(lambda: journal.record("started", "probe/job#r0"), reps=self._n(200))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {
            "harness.campaign.expand_ms": 1e3 * _timed(lambda: CampaignSpec.from_mapping(spec).expand()),
            "harness.campaign.fingerprint_us": 1e6 * _timed(self.outcome.fingerprint, reps=self._n(200)),
            "fault.journal.record_us": 1e6 * record,
        }

    def campaign_pool(self) -> Dict[str, float]:
        two_jobs = self.campaign.matrix(("allreduce",), (2,), 1)
        two_jobs["benchmarks"][0]["backend"] = BACKEND
        wall = {workers: _timed(lambda: self.campaign.campaign(two_jobs, workers))
                for workers in (1, 2)}
        spec = two_jobs if self.smoke else self.campaign.matrix(("allreduce", "bcast"), (2, 4), 1)
        start = time.perf_counter()
        result = self.campaign.campaign(spec, 2)
        elapsed = time.perf_counter() - start
        busy = sum(o.wall_seconds for o in result.outcomes) / 2
        return {"harness.campaign.pool_start_ms": 1e3 * (wall[2] - wall[1]),
                "harness.campaign.overhead_ms_per_job": 1e3 * (elapsed - busy) / len(result.outcomes)}

    # -------------------------------------------------------------------- serve

    def serve(self) -> Dict[str, float]:
        workload = ServeClosed(1, self.smoke, SpanRecorder("layers"), self.tmp)
        workload.setup()
        try:
            workload.check(workload.run_unit(), 0.0)                      # warm both workers
            workload.measure(0.2 if self.smoke else 2.0, min_units=5)
        finally:
            workload.close()
        done = [r for r in workload.last_records if r["state"] == "done"]
        p50 = {field: statistics.median(r[field] for r in done)
               for field in ("latency", "submit", "queue_wait", "exec")}
        latencies = sorted(r["latency"] for r in done)
        return {
            "serve.submit_us": 1e6 * p50["submit"],
            "serve.queue_wait_ms_p50": 1e3 * p50["queue_wait"],
            "serve.exec_ms_p50": 1e3 * p50["exec"],
            "serve.pickup_ms_p50": 1e3 * statistics.median(
                r["latency"] - r["submit"] - r["queue_wait"] - r["exec"] for r in done),
            "serve.latency_p50_ms": 1e3 * p50["latency"],
            "serve.latency_p95_ms": 1e3 * latencies[int(0.95 * (len(latencies) - 1))],
        }

    def http(self) -> Dict[str, float]:
        server = create_server(port=0, workers=1, cache_dir=self._tempdir())
        thread = threading.Thread(target=server.serve_forever, name="healthz-probe")
        thread.start()
        try:
            url = "http://127.0.0.1:%d/healthz" % server.server_address[1]

            def get():
                with urllib.request.urlopen(url, timeout=10) as response:
                    response.read()

            get()
            return {"serve.http.healthz_ms": 1e3 * _timed(get, reps=self._n(50))}
        finally:
            server.close()
            thread.join()

    # ------------------------------------------------------------- known defect

    def known_defect(self) -> Dict[str, float]:
        """1 while ``memory.grow`` with live ``alloc_array`` views kills the job.

        Non-gating: it only makes the later ``src/`` fix visible (README).
        """
        program = make_imb_suite_program(routines=("allgather", "alltoall", "gather", "scatter"),
                                         message_sizes=(65536,), iterations=1)
        try:
            self.session.run(program, 16)
        except RankFailedError as err:
            if isinstance(err.original, BufferError):
                return {"known_defect.memory_grow_live_views": 1.0}
            raise
        return {"known_defect.memory_grow_live_views": 0.0}


#: (probe method, rounds, one CPU?) -- heavy probes run fewer rounds; probes of
#: code that runs one rank thread at a time are pinned like the workloads are.
SCHEDULE = (
    ("wasicc", 7, True), ("pipeline", 3, True), ("cache", 3, True), ("ddot", 7, True),
    ("wasm_runtime", 7, True), ("empty_job", 5, True), ("import_calls", 5, True),
    ("mpi_native", 5, True), ("engine", 5, True), ("campaign_light", 7, True),
    ("campaign_pool", 2, False), ("serve", 1, True), ("http", 1, True),
    ("known_defect", 1, True),
)


def run_probes(seed: int, smoke: bool, tmp: str) -> Dict[str, float]:
    """Every per-layer probe metric: median over interleaved rounds."""
    all_cpus = os.sched_getaffinity(0)
    probes = Probes(seed, smoke, tmp)
    samples: Dict[str, List[float]] = {}
    try:
        for round_no in range(max(rounds for _name, rounds, _pin in SCHEDULE)):
            for name, rounds, one_cpu in SCHEDULE:
                if round_no < (1 if smoke else rounds):
                    os.sched_setaffinity(0, {min(all_cpus)} if one_cpu else all_cpus)
                    for metric, value in getattr(probes, name)().items():
                        samples.setdefault(metric, []).append(value)
    finally:
        os.sched_setaffinity(0, all_cpus)
        probes.close()
    return {metric: statistics.median(values) for metric, values in samples.items()}
