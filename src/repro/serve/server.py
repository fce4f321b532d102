"""``repro-harness serve``: the multi-tenant job service itself.

A stdlib-only long-running daemon (``http.server.ThreadingHTTPServer``; no
dependencies beyond the Python the repo already requires) that accepts
run/campaign/compile submissions as JSON, validates and enqueues them onto
a bounded queue drained by a pool of warm per-worker
:class:`~repro.api.Session` objects, and serves job status, results, and
compiled artifacts straight out of the shared on-disk cache.

Endpoints (see ``docs/SERVING.md`` for the full contract)::

    GET  /healthz                 liveness + queue depth (no auth)
    GET  /metrics                 Prometheus text exposition (no auth)
    POST /v1/jobs                 submit {kind: run|campaign|compile, ...}
    GET  /v1/jobs                 list the calling tenant's jobs
    GET  /v1/jobs/<id>            job status
    GET  /v1/jobs/<id>/result     status + result body
    GET  /v1/artifacts            compiled artifact keys + sizes
    GET  /v1/artifacts/<key>      raw record bytes from the AoT cache

Production semantics: per-tenant API keys (401), token-bucket throttling
and job quotas (429 + ``Retry-After``), backpressure with load-shedding
(503 + ``Retry-After`` when the bounded queue is full -- a flood is refused,
never buffered), graceful drain on SIGTERM, and ``/healthz`` + ``/metrics``
fed from the per-worker session metrics.
"""

from __future__ import annotations

import json
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.serve.auth import TenantStore
from repro.serve.jobs import RUNNING, BoundedJobQueue, JobRecord, JobStore, new_job_id
from repro.serve.pool import WorkerPool
from repro.serve.quota import AdmissionController
from repro.serve.wire import (
    ARTIFACT_KEY_RE,
    WireError,
    render_prometheus,
    validate_submission,
)
from repro.sim.metrics import MetricsRegistry
from repro.wasm.compilers.cache import FileSystemCache

#: Retry-After advertised on a load-shed (queue-full) 503.
SHED_RETRY_AFTER = 1.0


@dataclass
class ServeConfig:
    """Configuration of one service instance.

    ``tenants`` may be a :class:`TenantStore`, a mapping in the
    ``tenants.json`` schema, a path to such a file, or ``None`` -- in which
    case a single unmetered ``dev`` tenant with a random key is generated
    (printed at startup by the CLI).  ``cache_dir=None`` creates a private
    temp directory that is removed on shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    queue_size: int = 16
    tenants: Union[TenantStore, Mapping[str, Any], str, Path, None] = None
    backend: Optional[str] = None
    machine: Optional[str] = None
    cache_dir: Optional[str] = None
    #: Directory for the crash-safe job journal.  When set, every job's
    #: lifecycle is appended to ``journal.jsonl`` there, and a restarted
    #: service restores finished records and re-queues unfinished jobs (a
    #: SIGKILLed worker loses no accepted work).  ``None`` disables.
    journal_dir: Optional[str] = None
    drain_timeout: float = 30.0
    max_body_bytes: int = 8 * 1024 * 1024
    max_campaign_jobs: int = 256
    max_nranks: int = 4096
    retention: int = 1024
    quiet: bool = True

    def tenant_store(self) -> TenantStore:
        if isinstance(self.tenants, TenantStore):
            return self.tenants
        if isinstance(self.tenants, Mapping):
            return TenantStore.from_mapping(self.tenants)
        if isinstance(self.tenants, (str, Path)):
            return TenantStore.from_file(self.tenants)
        return TenantStore.dev_store()


class JobService:
    """Everything behind the HTTP handler: auth, admission, queue, pool."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.tenants = config.tenant_store()
        if config.cache_dir:
            self.cache_dir = str(config.cache_dir)
            self._owns_cache_dir = False
        else:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-serve-")
            self._owns_cache_dir = True
        self.artifacts = FileSystemCache(self.cache_dir)
        self.store = JobStore(max_records=config.retention)
        self.queue = BoundedJobQueue(config.queue_size)
        self.admission = AdmissionController()
        self.metrics = MetricsRegistry()
        self.journal = None
        if config.journal_dir:
            from repro.fault.journal import Journal

            self.journal = Journal(config.journal_dir)
            # Replay BEFORE attaching the journal to the store: restored
            # records must not re-append events (a finished job re-journaled
            # as "accepted" would wrongly re-run on the *next* restart).
            self._replay_journal()
            self.store.journal = self.journal
        self.pool = WorkerPool(
            config.workers,
            self._make_worker_session,
            self.store,
            self.queue,
            cache_dir=self.cache_dir,
        )
        self._draining = threading.Event()
        self._started_mono = time.monotonic()
        self._closed = False

    def _replay_journal(self) -> None:
        """Restore job state from a previous life of this service.

        Events are merged per job (``accepted`` carries tenant/kind/payload,
        the terminal event carries the result), so the last event decides the
        state and earlier events supply the submission.  Finished jobs come
        back as readable records; unfinished ones -- accepted or started when
        the process died -- are re-queued and run again.
        """
        from repro.fault.journal import TERMINAL_EVENTS
        from repro.serve.jobs import DONE, ERROR, CANCELLED, payload_from_jsonable

        merged: Dict[str, Dict[str, Any]] = {}
        for event in self.journal.events():
            merged.setdefault(event["job_id"], {}).update(event)
        for job_id, rec in merged.items():
            record = JobRecord(
                job_id=job_id,
                tenant=str(rec.get("tenant", "unknown")),
                kind=str(rec.get("kind", "run")),
                payload=payload_from_jsonable(dict(rec.get("payload") or {})),
                cost=int(rec.get("cost", 1)),
            )
            last = rec.get("event")
            if last in TERMINAL_EVENTS:
                record.state = {"done": DONE, "error": ERROR, "cancelled": CANCELLED}[last]
                record.result = rec.get("result")
                record.error = rec.get("error")
                self.store.add(record)
                continue
            self.store.add(record)
            if self.queue.try_put(record):
                self.metrics.increment("serve.jobs.requeued")
            else:
                self.store.mark_error(record, {
                    "type": "RequeueFailed",
                    "message": "journal replay found more unfinished jobs than queue capacity",
                    "http_status": 503,
                })

    def _make_worker_session(self, worker_name: str):
        from repro.api.session import Session

        overrides: Dict[str, Any] = {"cache_dir": self.cache_dir}
        if self.config.backend:
            overrides["backend"] = self.config.backend
        if self.config.machine:
            overrides["machine"] = self.config.machine
        return Session(**overrides)

    # --------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self.pool.start()

    def begin_drain(self) -> None:
        """Stop admitting; already-queued jobs keep running."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def shutdown(self, drain: bool = True) -> int:
        """Drain (optionally) and stop the pool; returns cancelled-job count."""
        if self._closed:
            return 0
        self._closed = True
        self._draining.set()
        cancelled = self.pool.stop(drain=drain, timeout=self.config.drain_timeout)
        if self._owns_cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return cancelled

    # -------------------------------------------------------------- operations

    def submit(self, api_key: Optional[str], body: Any) -> Dict[str, Any]:
        """Admit one submission; returns the 202 response body.

        Order matters: authenticate (401) -> drain check (503) -> validate
        (400) -> throttle/quota (429) -> enqueue-or-shed (503).  A shed
        refunds the quota charge -- the job never existed.
        """
        tenant = self.tenants.authenticate(api_key)
        if self.draining:
            raise WireError(503, "service is draining; not accepting submissions",
                            retry_after=self.config.drain_timeout, code="draining")
        normalized = validate_submission(
            body,
            max_nranks=self.config.max_nranks,
            max_campaign_jobs=self.config.max_campaign_jobs,
        )
        cost = normalized.pop("cost")
        self.admission.admit(tenant, cost)
        record = JobRecord(
            job_id=new_job_id(),
            tenant=tenant.name,
            kind=normalized["kind"],
            payload=normalized,
            cost=cost,
        )
        self.store.add(record)
        if not self.queue.try_put(record):
            # Backpressure: the bounded queue is full.  Shed the submission
            # (503 + Retry-After), refund its quota charge, keep no state.
            self.store.discard(record.job_id)
            self.admission.refund(tenant, cost)
            self.metrics.increment("serve.queue.shed")
            raise WireError(
                503,
                f"job queue is full ({self.queue.capacity} deep); retry later",
                retry_after=SHED_RETRY_AFTER,
                code="queue_full",
            )
        self.metrics.increment("serve.jobs.accepted")
        self.metrics.increment(f"serve.jobs.accepted.{tenant.name}")
        return {
            "job_id": record.job_id,
            "state": record.state,
            "kind": record.kind,
            "cost": cost,
            "status_url": f"/v1/jobs/{record.job_id}",
            "result_url": f"/v1/jobs/{record.job_id}/result",
        }

    def _job(self, api_key: Optional[str], job_id: str) -> JobRecord:
        tenant = self.tenants.authenticate(api_key)
        record = self.store.get(job_id, tenant=tenant.name)
        if record is None:
            raise WireError(404, f"no job {job_id!r} for this tenant", code="not_found")
        return record

    def cancel_job(self, api_key: Optional[str], job_id: str) -> Dict[str, Any]:
        """Cancel a tenant's QUEUED job (``DELETE /v1/jobs/<id>``).

        Tenant-scoped like every job read: another tenant's job is a 404.
        Finished jobs conflict with 409/``finished``; running jobs with
        409/``running`` (in-flight simulations are not interruptible).  A
        successful cancel refunds the submission's quota charge -- the job
        never ran -- and ticks ``serve.jobs.cancelled``.
        """
        tenant = self.tenants.authenticate(api_key)
        record = self.store.get(job_id, tenant=tenant.name)
        if record is None:
            raise WireError(404, f"no job {job_id!r} for this tenant", code="not_found")
        if self.store.cancel_if_queued(record, "cancelled by tenant"):
            self.admission.refund(tenant, record.cost)
            self.metrics.increment("serve.jobs.cancelled")
            self.metrics.increment(f"serve.jobs.cancelled.{tenant.name}")
            return record.to_wire()
        if record.state == RUNNING:
            raise WireError(409, f"job {job_id!r} is running; in-flight jobs "
                            "cannot be cancelled", code="running")
        raise WireError(409, f"job {job_id!r} already finished ({record.state})",
                        code="finished")

    def job_status(self, api_key: Optional[str], job_id: str) -> Dict[str, Any]:
        return self._job(api_key, job_id).to_wire()

    def job_result(self, api_key: Optional[str], job_id: str) -> Dict[str, Any]:
        return self._job(api_key, job_id).to_wire(include_result=True)

    def list_jobs(self, api_key: Optional[str]) -> Dict[str, Any]:
        tenant = self.tenants.authenticate(api_key)
        return {"jobs": [r.to_wire() for r in self.store.list_for(tenant.name)]}

    def artifact_index(self, api_key: Optional[str]) -> Dict[str, Any]:
        self.tenants.authenticate(api_key)
        entries = sorted(self.artifacts.entries().items())
        return {"artifacts": [{"key": key, "bytes": size} for key, size in entries]}

    def artifact_bytes(self, api_key: Optional[str], key: str) -> bytes:
        self.tenants.authenticate(api_key)
        if not ARTIFACT_KEY_RE.match(key):
            # Also forecloses path traversal: keys are pure lowercase hex.
            raise WireError(400, "artifact keys are 64 lowercase hex characters",
                            code="bad_key")
        try:
            raw, record = self.artifacts.read(key)
        except FileNotFoundError:
            raise WireError(404, f"no compiled artifact {key!r}", code="not_found") from None
        self._verify_artifact(key, record)
        return raw

    def _verify_artifact(self, key: str, record: Optional[Dict[str, Any]]) -> None:
        """Statically verify a cached lowered-IR artifact before streaming it.

        The cache directory is shared with other processes; a corrupt or
        tampered artifact is a 500 with ``artifact_corrupt`` (and a
        ``repro_serve_artifact_verify_failures`` metric tick), never a
        download a tenant would go on to execute.
        """
        from repro.analysis.ir_verify import verify_artifact

        if record is None:
            self.metrics.increment("serve.artifact_verify_failures")
            raise WireError(500, f"artifact {key!r} is corrupt (digest or decode)",
                            code="artifact_corrupt")
        report = verify_artifact(record["artifact"], loc=key)
        if not report.ok:
            self.metrics.increment("serve.artifact_verify_failures")
            first = report.errors[0]
            raise WireError(
                500,
                f"artifact {key!r} failed static verification: {first.format()}",
                code="artifact_corrupt",
            )

    # -------------------------------------------------------------- telemetry

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "workers": self.pool.size,
            "workers_busy": self.pool.busy_count(),
            "queue": {
                "depth": self.queue.depth(),
                "capacity": self.queue.capacity,
                "shed_total": self.metrics.counter("serve.queue.shed"),
            },
            "jobs": self.store.counts(),
            "admission": self.admission.counters(),
            "tenants": len(self.tenants),
        }

    def metrics_text(self) -> str:
        counters = {
            f"repro_serve_{name.replace('serve.', '').replace('.', '_')}_total": value
            for name, value in self.metrics.counters().items()
            if name.startswith("serve.")
        }
        # Exact-name metric (no _total suffix): artifact GETs that failed
        # static verification (repro.analysis.ir_verify) before streaming.
        counters["repro_serve_artifact_verify_failures"] = self.metrics.counter(
            "serve.artifact_verify_failures")
        counters.pop("repro_serve_artifact_verify_failures_total", None)
        counters["repro_serve_throttled_total"] = self.admission.throttled_total
        counters["repro_serve_quota_refused_total"] = self.admission.quota_refused_total
        counters["repro_serve_jobs_done_total"] = self.pool.jobs_done
        counters["repro_serve_jobs_failed_total"] = self.pool.jobs_failed
        state_counts = self.store.counts()
        gauges = {
            "repro_serve_queue_depth": self.queue.depth(),
            "repro_serve_queue_capacity": self.queue.capacity,
            "repro_serve_workers": self.pool.size,
            "repro_serve_workers_busy": self.pool.busy_count(),
            "repro_serve_uptime_seconds": round(time.monotonic() - self._started_mono, 3),
        }
        labelled = []
        for state, count in sorted(state_counts.items()):
            labelled.append(("repro_serve_jobs_state", {"state": state}, count))
        # Per-worker AoT cache counters: the compile-once-per-worker proof.
        for worker, summary in sorted(self.pool.worker_cache_summaries().items()):
            for counter, value in sorted(summary.items()):
                labelled.append((
                    f"repro_serve_worker_cache_{counter}", {"worker": worker}, value))
        for worker, count in sorted(self.pool.worker_jobs().items()):
            labelled.append(("repro_serve_worker_jobs", {"worker": worker}, count))
        return render_prometheus(counters, gauges, labelled)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's :class:`JobService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ plumbing

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if not self.service.config.quiet:
            super().log_message(fmt, *args)

    def _api_key(self) -> Optional[str]:
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer "):].strip()
        return self.headers.get("X-API-Key")

    def _read_body(self) -> Any:
        length = self.headers.get("Content-Length")
        if length is None:
            raise WireError(411, "Content-Length required", code="length_required")
        try:
            n = int(length)
        except ValueError:
            raise WireError(400, "bad Content-Length", code="bad_header") from None
        if n > self.service.config.max_body_bytes:
            raise WireError(413, f"body exceeds {self.service.config.max_body_bytes} bytes",
                            code="too_large")
        raw = self.rfile.read(n)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(400, f"body is not valid JSON: {exc}", code="bad_json") from exc

    def _send(self, status: int, body: bytes, content_type: str,
              retry_after: Optional[float] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(retry_after + 0.999))))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Mapping[str, Any],
                   retry_after: Optional[float] = None) -> None:
        body = json.dumps(payload, default=repr).encode("utf-8")
        self._send(status, body, "application/json", retry_after)

    def _dispatch(self, method: str) -> None:
        self.service.metrics.increment("serve.http.requests")
        try:
            self._route(method)
        except WireError as exc:
            self.service.metrics.increment(f"serve.http.status.{exc.status}")
            self._send_json(exc.status, exc.to_payload(), retry_after=exc.retry_after)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass
        except Exception as exc:  # noqa: BLE001 - never kill the connection thread
            self.service.metrics.increment("serve.http.status.500")
            self._send_json(500, {"error": f"internal error: {type(exc).__name__}",
                                  "status": 500})

    # -------------------------------------------------------------------- routes

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        service = self.service

        if path == "/healthz" and method == "GET":
            health = service.health()
            status = 503 if service.draining else 200
            self._send_json(status, health)
            return
        if path == "/metrics" and method == "GET":
            self._send(200, service.metrics_text().encode("utf-8"),
                       "text/plain; version=0.0.4")
            return
        if parts[:2] == ["v1", "jobs"]:
            key = self._api_key()
            if len(parts) == 2:
                if method == "POST":
                    self._send_json(202, service.submit(key, self._read_body()))
                    return
                if method == "GET":
                    self._send_json(200, service.list_jobs(key))
                    return
                raise WireError(405, "method not allowed", code="bad_method")
            if len(parts) == 3 and method == "GET":
                self._send_json(200, service.job_status(key, parts[2]))
                return
            if len(parts) == 3 and method == "DELETE":
                self._send_json(200, service.cancel_job(key, parts[2]))
                return
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                self._send_json(200, service.job_result(key, parts[2]))
                return
            raise WireError(405 if method != "GET" else 404,
                            "no such endpoint", code="not_found")
        if parts[:2] == ["v1", "artifacts"] and method == "GET":
            key = self._api_key()
            if len(parts) == 2:
                self._send_json(200, service.artifact_index(key))
                return
            if len(parts) == 3:
                blob = service.artifact_bytes(key, parts[2])
                self._send(200, blob, "application/octet-stream")
                return
        raise WireError(404, f"no such endpoint: {method} {path}", code="not_found")

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class ServeHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` owning a started :class:`JobService`."""

    daemon_threads = True
    service: JobService
    _serving = False

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def close(self, drain: bool = True) -> int:
        """Stop accepting connections and shut the service down.

        ``shutdown()`` blocks on an event only ``serve_forever`` sets, so it
        is skipped when the HTTP loop never ran (service used in-process).
        """
        if self._serving:
            self.shutdown()
        self.server_close()
        return self.service.shutdown(drain=drain)


def create_server(config: Optional[ServeConfig] = None, **overrides: Any) -> ServeHTTPServer:
    """Build and start the service; the HTTP loop is the caller's to run.

    ``port=0`` binds an ephemeral port (see ``server.server_address``) --
    the pattern the tests and the smoke script use.
    """
    if config is None:
        config = ServeConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a ServeConfig or keyword overrides, not both")
    service = JobService(config)
    server = ServeHTTPServer((config.host, config.port), _Handler)
    server.service = service
    service.start()
    return server


def run_server(config: Optional[ServeConfig] = None, **overrides: Any) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    On the first signal the service stops admitting (503 + Retry-After),
    lets queued jobs finish (up to ``drain_timeout``), then exits 0.
    """
    server = create_server(config, **overrides)
    service = server.service
    host, port = server.server_address[:2]
    for tenant in service.tenants:
        if tenant.name == "dev" and service.config.tenants is None:
            print(f"generated dev API key: {tenant.key}")
    print(f"repro-serve listening on http://{host}:{port} "
          f"({service.pool.size} warm workers, queue depth {service.queue.capacity}, "
          f"cache {service.cache_dir})")

    stop = threading.Event()

    def _signal(signum: int, _frame: Any) -> None:
        if not stop.is_set():
            print(f"received signal {signum}: draining "
                  f"({service.queue.depth()} queued, "
                  f"{service.pool.busy_count()} running)")
            service.begin_drain()
            stop.set()
            # shutdown() must come from another thread than serve_forever's.
            threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _signal)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        cancelled = service.shutdown(drain=True)
        server.server_close()
        if cancelled:
            print(f"cancelled {cancelled} queued job(s) at shutdown")
        print("repro-serve stopped")
    return 0
