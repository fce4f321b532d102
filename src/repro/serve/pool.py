"""The warm worker pool: one thread + one warm :class:`Session` per worker.

This is the serving-side incarnation of the campaign runner's
pool-initializer pattern: each worker owns a long-lived
:class:`repro.api.Session` whose in-memory artifact tier persists across
jobs (compile-once-per-worker), all fronting one shared on-disk
:class:`~repro.wasm.compilers.cache.FileSystemCache` so workers also reuse
each other's artifacts -- and so ``/v1/artifacts`` can serve the compiled
``.mpiwasm`` blobs.

Worker threads call ``session.run(...)`` / ``session.compile(...)``
directly; a campaign job additionally binds its worker's session as the
ambient one (:func:`repro.api.use_session`, via ``Session.campaign``) so
experiment drivers compile on it.  That binding is a context variable, so
concurrent workers each see their own session, and no job touches
``os.environ``.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.api.session import Session
from repro.serve.jobs import BoundedJobQueue, JobRecord, JobStore
from repro.wasm.compilers.cache import module_hash
from repro.wasm.errors import WasmError

#: Bytes of rank-0 stdout kept on a run result.
STDOUT_TAIL = 4096


def _artifact_ref(session: Session, benchmark, backend: Optional[str]) -> Dict[str, str]:
    """The on-disk cache key of a run's compiled module (for ``/v1/artifacts``)."""
    app = session._compiled_application(benchmark)
    resolved = backend or session.config.backend
    return {"key": module_hash(app.wasm_bytes, resolved), "backend": resolved}


class WorkerPool:
    """``n`` daemon worker threads draining one bounded queue.

    ``session_factory(worker_name)`` builds each worker's warm session; the
    pool closes them on :meth:`stop`.  Drain semantics: ``stop(drain=True)``
    lets workers finish everything already queued (up to ``timeout``), then
    cancels whatever remains; ``drain=False`` cancels the queue immediately
    and only waits for in-flight jobs.
    """

    #: Poll interval for queue gets and drain waits.
    POLL = 0.05

    def __init__(
        self,
        n_workers: int,
        session_factory: Callable[[str], Session],
        store: JobStore,
        job_queue: BoundedJobQueue,
        cache_dir: Optional[str] = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.store = store
        self.queue = job_queue
        self.cache_dir = cache_dir
        self._factory = session_factory
        self._names = [f"worker-{i}" for i in range(n_workers)]
        self._sessions: Dict[str, Session] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._busy: Dict[str, Optional[str]] = {}   # worker -> in-flight job_id
        self._lock = threading.Lock()
        self.jobs_done = 0
        self.jobs_failed = 0
        self._started = False

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        # Serve workers execute artifacts from the shared on-disk cache --
        # possibly written by another process -- so cache loads are statically
        # verified (repro.analysis.ir_verify) for the pool's lifetime.  The
        # prior flag value is restored in stop() so in-process embedders (and
        # tests) are not left with the serve policy.
        from repro.wasm import lowering as _lowering

        self._verify_on_load_prior = _lowering.VERIFY_ON_LOAD
        _lowering.VERIFY_ON_LOAD = True
        for name in self._names:
            self._sessions[name] = self._factory(name)
            self._busy[name] = None
            thread = threading.Thread(
                target=self._worker_loop, args=(name,), name=name, daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> int:
        """Stop the pool; returns the number of jobs cancelled unrun."""
        deadline = time.monotonic() + timeout
        cancelled = 0
        if drain:
            self._drain.set()
            while time.monotonic() < deadline:
                if self.queue.empty() and not self.busy_count():
                    break
                time.sleep(self.POLL)
        self._stop.set()
        for record in self.queue.drain_now():
            self.store.mark_cancelled(record, "service shut down before this job ran")
            cancelled += 1
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()) + 1.0)
        for session in self._sessions.values():
            session.close()
        if self._started:
            from repro.wasm import lowering as _lowering

            _lowering.VERIFY_ON_LOAD = self._verify_on_load_prior
        return cancelled

    def busy_count(self) -> int:
        with self._lock:
            return sum(1 for job in self._busy.values() if job is not None)

    @property
    def size(self) -> int:
        return len(self._names)

    # ----------------------------------------------------------------- metrics

    def worker_cache_summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-worker AoT-cache counters: the compile-once-per-worker proof
        (first job per worker misses, every subsequent same-module job hits)."""
        return {name: dict(session.cache_summary())
                for name, session in self._sessions.items()}

    def worker_jobs(self) -> Dict[str, int]:
        return {name: session.jobs_run for name, session in self._sessions.items()}

    # ------------------------------------------------------------------ worker

    def _worker_loop(self, name: str) -> None:
        session = self._sessions[name]
        while not self._stop.is_set():
            record = self.queue.get(timeout=self.POLL)
            if record is None:
                if self._drain.is_set():
                    break
                continue
            with self._lock:
                self._busy[name] = record.job_id
            try:
                self._execute(name, session, record)
            finally:
                with self._lock:
                    self._busy[name] = None

    def _execute(self, name: str, session: Session, record: JobRecord) -> None:
        if not self.store.mark_running(record, name):
            # Cancelled between enqueue and dequeue: skip without running.
            return
        try:
            result = self._dispatch(session, record)
        except WasmError as exc:
            # Hostile/invalid module input that slipped past submission-time
            # validation: the client's fault, surfaced as a 400-class error.
            self._fail(record, exc, http_status=400)
        except Exception as exc:  # noqa: BLE001 - a worker thread must survive any job
            self._fail(record, exc, http_status=500)
        else:
            self.store.mark_done(record, result)
            with self._lock:
                self.jobs_done += 1

    def _fail(self, record: JobRecord, exc: BaseException, http_status: int) -> None:
        self.store.mark_error(record, {
            "type": type(exc).__name__,
            "message": str(exc),
            "http_status": http_status,
            "traceback": traceback.format_exc(limit=10),
        })
        with self._lock:
            self.jobs_failed += 1

    # ---------------------------------------------------------------- dispatch

    def _dispatch(self, session: Session, record: JobRecord) -> Dict[str, Any]:
        payload = record.payload
        if record.kind == "run":
            return self._run_job(session, payload)
        if record.kind == "campaign":
            return self._campaign_job(session, payload)
        if record.kind == "compile":
            return self._compile_job(session, payload)
        raise ValueError(f"unknown job kind {record.kind!r}")

    def _run_job(self, session: Session, payload: Dict[str, Any]) -> Dict[str, Any]:
        job = session.run(
            payload["benchmark"],
            payload["nranks"],
            mode=payload.get("mode", "wasm"),
            backend=payload.get("backend"),
            machine=payload.get("machine"),
            algorithms=payload.get("algorithms"),
            guest_args=tuple(payload.get("guest_args") or ()),
        )
        result: Dict[str, Any] = {
            "benchmark": payload["benchmark"],
            "mode": job.mode,
            "machine": job.machine,
            "nranks": job.nranks,
            "makespan": job.makespan,
            "exit_codes": job.exit_codes(),
            "stdout_tail": job.stdout[-STDOUT_TAIL:],
        }
        if job.mode == "wasm":
            result["artifact"] = _artifact_ref(
                session, payload["benchmark"], payload.get("backend"))
        return result

    def _campaign_job(self, session: Session, payload: Dict[str, Any]) -> Dict[str, Any]:
        spec = payload["spec"]
        campaign = session.campaign(spec, workers=1, cache_dir=self.cache_dir)
        summary = campaign.to_dict()
        # Attach the on-disk artifact keys of every wasm job so clients can
        # fetch the compiled modules from /v1/artifacts/<key>.
        artifacts: Dict[str, Dict[str, str]] = {}
        for outcome in campaign.outcomes:
            job_spec = outcome.spec
            if (job_spec.kind != "benchmark" or job_spec.mode != "wasm"
                    or outcome.status != "ok"):
                continue
            ref = _artifact_ref(session, job_spec.name, job_spec.backend)
            artifacts[ref["key"]] = ref
        summary["artifacts"] = sorted(artifacts)
        return summary

    def _compile_job(self, session: Session, payload: Dict[str, Any]) -> Dict[str, Any]:
        wasm_bytes = payload["wasm_bytes"]
        compiled = session.compile(wasm_bytes, backend=payload.get("backend"))
        return {
            "key": module_hash(wasm_bytes, compiled.backend_name),
            "backend": compiled.backend_name,
            "function_count": compiled.function_count,
            "compile_seconds": compiled.compile_seconds,
        }
