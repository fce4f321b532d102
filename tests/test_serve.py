"""Tests for :mod:`repro.serve` -- the multi-tenant job service.

The centrepiece is the end-to-end two-tenant smoke
(:class:`TestTwoTenantSmoke`): a real HTTP server with two warm workers,
an in-quota tenant whose campaign runs to completion (compiled artifacts
fetched back out of the shared on-disk cache, compile-once-per-worker
proven from the per-worker cache counters in ``/metrics``), an over-quota
tenant throttled with 429 + ``Retry-After``, and queue flooding shed with
503 (depth and shed counts visible in ``/healthz`` and ``/metrics``).
"""

from __future__ import annotations

import base64
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    BoundedJobQueue,
    JobRecord,
    JobService,
    JobStore,
    ServeConfig,
    Tenant,
    TenantStore,
    TokenBucket,
    WireError,
    create_server,
    validate_submission,
)
from repro.serve.server import ServeHTTPServer, _Handler

ALICE_KEY = "alice-key-0123456789"
BOB_KEY = "bob-key-0123456789"


# --------------------------------------------------------------- HTTP helpers


def _call(base, method, path, body=None, key=None):
    """(status, headers, parsed-json-or-bytes) for one request."""
    req = urllib.request.Request(base + path, method=method)
    if key:
        req.add_header("Authorization", f"Bearer {key}")
    data = None
    if body is not None:
        data = json.dumps(body).encode()
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, data=data, timeout=30) as resp:
            raw = resp.read()
            headers = dict(resp.headers)
            status = resp.status
    except urllib.error.HTTPError as err:
        raw = err.read()
        headers = dict(err.headers)
        status = err.code
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, headers, json.loads(raw or b"{}")
    return status, headers, raw


def _wait_done(base, key, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = _call(base, "GET", f"/v1/jobs/{job_id}", key=key)
        assert status == 200
        if body["state"] in ("done", "error", "cancelled"):
            return body
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s")


def _scrape(base):
    """Parse /metrics into {name: value} and {(name, labels): value}."""
    _, _, raw = _call(base, "GET", "/metrics")
    flat, labelled = {}, {}
    for line in raw.decode().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, labels = name_part.split("{", 1)
            labelled[(name, labels.rstrip("}"))] = float(value)
        else:
            flat[name_part] = float(value)
    return flat, labelled


# ------------------------------------------------------------------ fixtures


@pytest.fixture()
def two_tenant_server(tmp_path):
    tenants = TenantStore([
        Tenant(name="alice", key=ALICE_KEY, rate=100.0, burst=200),
        # bob's quota covers exactly one single-job submission.
        Tenant(name="bob", key=BOB_KEY, rate=100.0, burst=200, max_jobs=1),
    ])
    server = create_server(ServeConfig(
        port=0, workers=2, queue_size=32, tenants=tenants,
        backend="cranelift", cache_dir=str(tmp_path / "aot-cache"),
    ))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", server
    finally:
        server.close(drain=False)
        thread.join(10)


# -------------------------------------------------------- end-to-end smoke


class TestTwoTenantSmoke:
    def test_two_tenant_smoke(self, two_tenant_server):
        base, server = two_tenant_server

        # Unauthenticated and wrong-key requests are 401.
        assert _call(base, "GET", "/v1/jobs")[0] == 401
        assert _call(base, "GET", "/v1/jobs", key="wrong-key-000000")[0] == 401

        # alice warms both workers with identical run jobs, then runs a
        # campaign of the same module.
        run_ids = []
        for _ in range(4):
            status, _, body = _call(base, "POST", "/v1/jobs", {
                "kind": "run", "benchmark": "pingpong", "nranks": 2,
                "backend": "cranelift",
            }, key=ALICE_KEY)
            assert status == 202
            run_ids.append(body["job_id"])
        status, _, body = _call(base, "POST", "/v1/jobs", {
            "kind": "campaign",
            "spec": {"name": "smoke", "benchmarks": [
                {"benchmark": "pingpong", "nranks": [2], "backend": "cranelift",
                 "repeats": 2},
            ]},
        }, key=ALICE_KEY)
        assert status == 202
        assert body["cost"] == 2
        campaign_id = body["job_id"]

        for job_id in run_ids:
            record = _wait_done(base, ALICE_KEY, job_id)
            assert record["state"] == "done", record
        campaign_record = _wait_done(base, ALICE_KEY, campaign_id)
        assert campaign_record["state"] == "done", campaign_record

        # The campaign result names the compiled artifacts; fetch the run
        # result's artifact too and pull the bytes out of the shared cache.
        _, _, result = _call(base, "GET", f"/v1/jobs/{campaign_id}/result",
                             key=ALICE_KEY)
        campaign_result = result["result"]
        assert campaign_result["jobs_total"] == 2
        assert campaign_result["jobs_failed"] == 0
        assert len(campaign_result["artifacts"]) == 1
        artifact_key = campaign_result["artifacts"][0]

        _, _, run_result = _call(base, "GET", f"/v1/jobs/{run_ids[0]}/result",
                                 key=ALICE_KEY)
        assert run_result["result"]["artifact"]["key"] == artifact_key
        assert run_result["result"]["exit_codes"] == [0, 0]
        assert run_result["result"]["makespan"] > 0

        status, _, index = _call(base, "GET", "/v1/artifacts", key=ALICE_KEY)
        assert status == 200
        assert artifact_key in [a["key"] for a in index["artifacts"]]
        status, _, blob = _call(base, "GET", f"/v1/artifacts/{artifact_key}",
                                key=ALICE_KEY)
        assert status == 200 and isinstance(blob, bytes) and len(blob) > 0

        # Compile-once-per-worker, proven from the per-worker cache counters:
        # exactly one worker missed (compiled); every worker that ran jobs
        # got warm hits for everything else.
        flat, labelled = _scrape(base)
        misses = {labels: v for (name, labels), v in labelled.items()
                  if name == "repro_serve_worker_cache_misses"}
        hits = {labels: v for (name, labels), v in labelled.items()
                if name == "repro_serve_worker_cache_hits"}
        jobs = {labels: v for (name, labels), v in labelled.items()
                if name == "repro_serve_worker_jobs"}
        assert sum(misses.values()) == 1, (misses, hits)
        for labels, njobs in jobs.items():
            if njobs > 0:
                assert hits[labels] >= 1, (labels, hits)

        # bob is within quota for one job, then 429 with Retry-After.
        status, _, body = _call(base, "POST", "/v1/jobs", {
            "benchmark": "pingpong", "nranks": 2, "backend": "cranelift",
        }, key=BOB_KEY)
        assert status == 202
        bob_job = body["job_id"]
        status, headers, body = _call(base, "POST", "/v1/jobs", {
            "benchmark": "pingpong", "nranks": 2,
        }, key=BOB_KEY)
        assert status == 429
        assert body["code"] == "quota_exhausted"
        assert int(headers["Retry-After"]) >= 1
        assert _wait_done(base, BOB_KEY, bob_job)["state"] == "done"

        # Tenants cannot see each other's jobs.
        assert _call(base, "GET", f"/v1/jobs/{bob_job}", key=ALICE_KEY)[0] == 404
        _, _, listing = _call(base, "GET", "/v1/jobs", key=BOB_KEY)
        assert {j["tenant"] for j in listing["jobs"]} == {"bob"}

        # /healthz reflects the accounting.
        status, _, health = _call(base, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["jobs"]["done"] == 6
        assert health["admission"]["quota_refused_total"] == 1
        assert flat["repro_serve_quota_refused_total"] >= 0  # scraped earlier

    def test_rate_limit_throttles_with_retry_after(self, tmp_path):
        tenants = TenantStore([
            Tenant(name="slow", key="slow-key-0123456789", rate=0.001, burst=1),
        ])
        server = create_server(ServeConfig(
            port=0, workers=1, queue_size=4, tenants=tenants,
            backend="cranelift", cache_dir=str(tmp_path),
        ))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            body = {"benchmark": "pingpong", "nranks": 2}
            assert _call(base, "POST", "/v1/jobs", body,
                         key="slow-key-0123456789")[0] == 202
            status, headers, payload = _call(base, "POST", "/v1/jobs", body,
                                             key="slow-key-0123456789")
            assert status == 429
            assert payload["code"] == "rate_limited"
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.close(drain=False)
            thread.join(10)


class TestBackpressure:
    def test_queue_flood_sheds_with_503(self, tmp_path):
        """With no workers draining, the bounded queue fills and every
        further submission is shed: 503 + Retry-After, zero buffering."""
        config = ServeConfig(
            port=0, workers=1, queue_size=2,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789",
                                        rate=1000.0, burst=1000)]),
            cache_dir=str(tmp_path),
        )
        service = JobService(config)   # pool deliberately NOT started
        server = ServeHTTPServer((config.host, 0), _Handler)
        server.service = service
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            body = {"benchmark": "pingpong", "nranks": 2}
            for _ in range(2):
                assert _call(base, "POST", "/v1/jobs", body,
                             key="t-key-0123456789")[0] == 202
            for _ in range(3):
                status, headers, payload = _call(base, "POST", "/v1/jobs", body,
                                                 key="t-key-0123456789")
                assert status == 503
                assert payload["code"] == "queue_full"
                assert int(headers["Retry-After"]) >= 1

            _, _, health = _call(base, "GET", "/healthz")
            assert health["queue"]["depth"] == 2
            assert health["queue"]["capacity"] == 2
            assert health["queue"]["shed_total"] == 3

            flat, _ = _scrape(base)
            assert flat["repro_serve_queue_depth"] == 2
            assert flat["repro_serve_queue_shed_total"] == 3
            # Shed submissions were refunded: the ledger holds only the
            # two admitted jobs.
            assert service.admission.ledger.used("t") == 2
        finally:
            server.shutdown()
            server.server_close()
            # Never-started pool: cancel the queued records directly.
            for record in service.queue.drain_now():
                service.store.mark_cancelled(record, "test teardown")
            thread.join(10)

    def test_draining_service_refuses_with_503(self, tmp_path):
        config = ServeConfig(
            port=0, workers=1, queue_size=4,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path), backend="cranelift",
        )
        server = create_server(config)
        service = server.service
        try:
            service.begin_drain()
            with pytest.raises(WireError) as excinfo:
                service.submit("t-key-0123456789",
                               {"benchmark": "pingpong", "nranks": 2})
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert service.health()["status"] == "draining"
        finally:
            server.close(drain=True)

    def test_graceful_drain_finishes_queued_jobs(self, tmp_path):
        config = ServeConfig(
            port=0, workers=2, queue_size=8,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path), backend="cranelift",
        )
        server = create_server(config)
        service = server.service
        accepted = [
            service.submit("t-key-0123456789",
                           {"benchmark": "pingpong", "nranks": 2})
            for _ in range(4)
        ]
        cancelled = server.close(drain=True)
        assert cancelled == 0
        for body in accepted:
            record = service.store.get(body["job_id"])
            assert record is not None and record.state == "done", record.state


# ------------------------------------------------------------- wire validation


class TestValidation:
    def _reject(self, payload, fragment):
        with pytest.raises(WireError) as excinfo:
            validate_submission(payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_rejects_non_object_and_unknown_kind(self):
        self._reject([1, 2], "JSON object")
        self._reject({"kind": "exec"}, "unknown submission kind")

    def test_rejects_unknown_names_with_listing(self):
        self._reject({"benchmark": "nope"}, "nope")
        self._reject({"benchmark": "pingpong", "mode": "jit"}, "jit")
        self._reject({"benchmark": "pingpong", "backend": "gcc"}, "gcc")
        self._reject({"benchmark": "pingpong", "machine": "laptop"}, "laptop")

    def test_rejects_bad_nranks(self):
        self._reject({"benchmark": "pingpong", "nranks": 0}, "nranks")
        self._reject({"benchmark": "pingpong", "nranks": "four"}, "nranks")
        self._reject({"benchmark": "pingpong", "nranks": True}, "nranks")
        with pytest.raises(WireError):
            validate_submission({"benchmark": "pingpong", "nranks": 10_000_000})

    def test_campaign_cost_is_expanded_job_count(self):
        normalized = validate_submission({
            "kind": "campaign",
            "spec": {"benchmarks": [
                {"benchmark": "pingpong", "nranks": [2, 4], "repeats": 3},
            ]},
        })
        assert normalized["cost"] == 6

    def test_campaign_limits_and_bad_specs(self):
        self._reject({"kind": "campaign", "spec": {"bogus_key": 1}}, "invalid campaign spec")
        self._reject({"kind": "campaign", "spec": {}}, "zero jobs")
        with pytest.raises(WireError) as excinfo:
            validate_submission({
                "kind": "campaign",
                "spec": {"benchmarks": [
                    {"benchmark": "pingpong", "nranks": [2], "repeats": 500},
                ]},
            }, max_campaign_jobs=16)
        assert "service limit" in str(excinfo.value)

    def test_compile_rejects_bad_base64_and_hostile_modules(self):
        self._reject({"kind": "compile", "wasm_base64": "!!!"}, "base64")
        hostile = base64.b64encode(b"\x00asm" + b"\xff" * 64).decode()
        with pytest.raises(WireError) as excinfo:
            validate_submission({"kind": "compile", "wasm_base64": hostile})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_module"

    def test_compile_accepts_a_real_module(self):
        from repro.toolchain.guest import GuestProgram
        from repro.toolchain.wasicc import compile_guest

        app = compile_guest(GuestProgram(name="wire-test", main=lambda api, args: 0))
        normalized = validate_submission({
            "kind": "compile",
            "wasm_base64": base64.b64encode(app.wasm_bytes).decode(),
        })
        assert normalized["kind"] == "compile"
        assert normalized["wasm_bytes"] == app.wasm_bytes


# ------------------------------------------------------------------ auth/quota


class TestAuthAndQuota:
    def test_tenant_store_rejects_duplicates_and_weak_keys(self):
        with pytest.raises(ValueError):
            TenantStore([Tenant(name="a", key="aaaaaaaa"),
                         Tenant(name="a", key="bbbbbbbb")])
        with pytest.raises(ValueError):
            TenantStore([Tenant(name="a", key="same-key-123"),
                         Tenant(name="b", key="same-key-123")])
        with pytest.raises(ValueError):
            Tenant(name="a", key="short")

    def test_authenticate(self):
        store = TenantStore([Tenant(name="a", key="key-a-0123456789")])
        assert store.authenticate("key-a-0123456789").name == "a"
        with pytest.raises(WireError) as excinfo:
            store.authenticate("key-b-0123456789")
        assert excinfo.value.status == 401
        with pytest.raises(WireError):
            store.authenticate(None)

    def test_tenants_file_round_trip(self, tmp_path):
        store = TenantStore([Tenant(name="a", key="key-a-0123456789",
                                    rate=2.0, burst=5, max_jobs=7)])
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(store.to_mapping()))
        loaded = TenantStore.from_file(path)
        tenant = loaded.authenticate("key-a-0123456789")
        assert (tenant.rate, tenant.burst, tenant.max_jobs) == (2.0, 5, 7)

    def test_token_bucket_refills_monotonically(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        retry = bucket.acquire()
        assert retry > 0
        time.sleep(retry + 0.02)
        assert bucket.acquire() == 0.0


# ----------------------------------------------------------------- job store


class TestJobStore:
    def _record(self, i, state="queued"):
        record = JobRecord(job_id=f"job-{i}", tenant="t", kind="run", payload={})
        record.state = state
        return record

    def test_retention_evicts_finished_not_live(self):
        store = JobStore(max_records=3)
        live = self._record(0, "running")
        store.add(live)
        for i in range(1, 6):
            store.add(self._record(i, "done"))
        assert len(store) == 3
        assert store.get("job-0") is live          # in-flight survives
        assert store.get("job-5") is not None      # newest survives

    def test_tenant_scoping(self):
        store = JobStore()
        store.add(JobRecord(job_id="x", tenant="a", kind="run", payload={}))
        assert store.get("x", tenant="a") is not None
        assert store.get("x", tenant="b") is None

    def test_bounded_queue_sheds_at_capacity(self):
        q = BoundedJobQueue(2)
        a, b, c = (self._record(i) for i in range(3))
        assert q.try_put(a) and q.try_put(b)
        assert not q.try_put(c)
        assert q.depth() == 2


# ----------------------------------------------------------- artifact hygiene


class TestArtifacts:
    def test_artifact_key_validation_blocks_traversal(self, tmp_path):
        config = ServeConfig(
            port=0, workers=1, queue_size=2,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path),
        )
        service = JobService(config)   # no pool needed
        (tmp_path / "secret.mpiwasm").write_bytes(b"data")
        for hostile in ("../secret", "..%2Fsecret", "secret", "A" * 64):
            with pytest.raises(WireError) as excinfo:
                service.artifact_bytes("t-key-0123456789", hostile)
            assert excinfo.value.status == 400
        with pytest.raises(WireError) as excinfo:
            service.artifact_bytes("t-key-0123456789", "0" * 64)
        assert excinfo.value.status == 404


class TestArtifactVerification:
    """Artifact GETs run the static IR verifier before streaming bytes."""

    KEY = "a" * 64

    def _service(self, tmp_path):
        config = ServeConfig(
            port=0, workers=1, queue_size=2,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path),
        )
        return JobService(config)   # no pool needed

    def _write(self, tmp_path, artifact):
        from repro.wasm.compilers import CompiledModule, FileSystemCache

        FileSystemCache(tmp_path).store(self.KEY, CompiledModule(
            backend_name="cranelift", module=None, compile_seconds=0.0,
            artifact=artifact, function_count=1))

    def _lowered_payload(self):
        from repro.wasm import ModuleBuilder, validate_module
        from repro.wasm.lowering import lower_module, serialize_lowered

        mb = ModuleBuilder(name="serve-artifact")
        f = mb.function("one", params=[], results=["i32"], export=True)
        f.i32_const(1)
        module = mb.build()
        validate_module(module)
        return serialize_lowered(lower_module(module))

    def test_clean_artifact_streams(self, tmp_path):
        service = self._service(tmp_path)
        self._write(tmp_path, self._lowered_payload())
        raw = service.artifact_bytes("t-key-0123456789", self.KEY)
        assert raw
        assert service.metrics.counter("serve.artifact_verify_failures") == 0

    def test_corrupt_lowered_ir_is_500_and_counted(self, tmp_path):
        service = self._service(tmp_path)
        payload = self._lowered_payload()
        payload["functions"][0]["ops"][0][0] = "i32.frobnicate"
        self._write(tmp_path, payload)
        with pytest.raises(WireError) as excinfo:
            service.artifact_bytes("t-key-0123456789", self.KEY)
        assert excinfo.value.status == 500
        assert excinfo.value.code == "artifact_corrupt"
        assert "failed static verification" in excinfo.value.message
        assert service.metrics.counter("serve.artifact_verify_failures") == 1

    def test_unpicklable_artifact_is_500_and_counted(self, tmp_path):
        service = self._service(tmp_path)
        (tmp_path / f"{self.KEY}.mpiwasm").write_bytes(b"\x80garbage not a pickle")
        with pytest.raises(WireError) as excinfo:
            service.artifact_bytes("t-key-0123456789", self.KEY)
        assert excinfo.value.status == 500
        assert excinfo.value.code == "artifact_corrupt"
        assert service.metrics.counter("serve.artifact_verify_failures") == 1

    def test_non_lowered_artifact_still_streams(self, tmp_path):
        # Backends whose artifacts carry no lowered IR are passed through.
        service = self._service(tmp_path)
        self._write(tmp_path, {"kind": "module", "blob": b"x"})
        assert service.artifact_bytes("t-key-0123456789", self.KEY)

    def test_metric_appears_in_metrics_text(self, tmp_path):
        service = self._service(tmp_path)
        payload = self._lowered_payload()
        payload["functions"][0]["ops"][0][0] = "i32.frobnicate"
        self._write(tmp_path, payload)
        with pytest.raises(WireError):
            service.artifact_bytes("t-key-0123456789", self.KEY)
        text = service.metrics_text()
        assert "repro_serve_artifact_verify_failures 1" in text
        assert "repro_serve_artifact_verify_failures_total" not in text


class TestCancellation:
    """DELETE /v1/jobs/<id>: tenant-scoped cancellation of queued jobs."""

    def _quiet_service(self, tmp_path):
        """Service whose pool never starts: submissions stay QUEUED."""
        config = ServeConfig(
            port=0, workers=1, queue_size=8,
            tenants=TenantStore([
                Tenant(name="t", key="t-key-0123456789", rate=1000.0, burst=1000),
                Tenant(name="u", key="u-key-0123456789", rate=1000.0, burst=1000),
            ]),
            cache_dir=str(tmp_path),
        )
        service = JobService(config)
        server = ServeHTTPServer((config.host, 0), _Handler)
        server.service = service
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        return service, server, thread, f"http://{host}:{port}"

    def test_cancel_queued_job_refunds_and_counts(self, tmp_path):
        service, server, thread, base = self._quiet_service(tmp_path)
        try:
            _, _, accepted = _call(base, "POST", "/v1/jobs", {
                "benchmark": "pingpong", "nranks": 2,
            }, key="t-key-0123456789")
            job_id = accepted["job_id"]
            assert service.admission.ledger.used("t") == 1

            status, _, body = _call(base, "DELETE", f"/v1/jobs/{job_id}",
                                    key="t-key-0123456789")
            assert status == 200
            assert body["state"] == "cancelled"
            assert service.admission.ledger.used("t") == 0, "quota refunded"
            flat, _ = _scrape(base)
            assert flat["repro_serve_jobs_cancelled_total"] == 1

            # A second DELETE conflicts: the job already finished (cancelled).
            status, _, body = _call(base, "DELETE", f"/v1/jobs/{job_id}",
                                    key="t-key-0123456789")
            assert status == 409 and body["code"] == "finished"
        finally:
            server.shutdown()
            server.server_close()
            for record in service.queue.drain_now():
                service.store.mark_cancelled(record, "test teardown")
            thread.join(10)

    def test_cancel_is_tenant_scoped_and_404s_missing(self, tmp_path):
        service, server, thread, base = self._quiet_service(tmp_path)
        try:
            _, _, accepted = _call(base, "POST", "/v1/jobs", {
                "benchmark": "pingpong", "nranks": 2,
            }, key="t-key-0123456789")
            job_id = accepted["job_id"]
            # Another tenant's job reads as absent, not forbidden.
            status, _, body = _call(base, "DELETE", f"/v1/jobs/{job_id}",
                                    key="u-key-0123456789")
            assert status == 404 and body["code"] == "not_found"
            assert _call(base, "DELETE", "/v1/jobs/nope",
                         key="t-key-0123456789")[0] == 404
            assert _call(base, "DELETE", f"/v1/jobs/{job_id}")[0] == 401
            # Still queued: the failed cancels changed nothing.
            record = service.store.get(job_id)
            assert record.state == "queued"
        finally:
            server.shutdown()
            server.server_close()
            for record in service.queue.drain_now():
                service.store.mark_cancelled(record, "test teardown")
            thread.join(10)

    def test_cancel_running_job_conflicts(self, tmp_path):
        config = ServeConfig(
            port=0, workers=1, queue_size=4,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path),
        )
        service = JobService(config)   # no pool: drive the transition by hand
        accepted = service.submit("t-key-0123456789",
                                  {"benchmark": "pingpong", "nranks": 2})
        record = service.store.get(accepted["job_id"])
        assert service.store.mark_running(record, worker="w0")
        with pytest.raises(WireError) as excinfo:
            service.cancel_job("t-key-0123456789", record.job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "running"
        service.store.mark_cancelled(record, "test teardown")

    def test_cancel_finished_job_conflicts(self, two_tenant_server):
        base, _server = two_tenant_server
        _, _, accepted = _call(base, "POST", "/v1/jobs", {
            "benchmark": "pingpong", "nranks": 2, "backend": "cranelift",
        }, key=ALICE_KEY)
        assert _wait_done(base, ALICE_KEY, accepted["job_id"])["state"] == "done"
        status, _, body = _call(base, "DELETE", f"/v1/jobs/{accepted['job_id']}",
                                key=ALICE_KEY)
        assert status == 409 and body["code"] == "finished"


class TestServeJournal:
    """serve --journal-dir: jobs survive a service restart."""

    def _config(self, tmp_path):
        return ServeConfig(
            port=0, workers=1, queue_size=8,
            tenants=TenantStore([Tenant(name="t", key="t-key-0123456789")]),
            cache_dir=str(tmp_path / "cache"), backend="cranelift",
            journal_dir=str(tmp_path / "journal"),
        )

    def test_restart_restores_finished_and_requeues_unfinished(self, tmp_path):
        from repro.fault.journal import Journal

        first = JobService(self._config(tmp_path))
        first.start()
        try:
            done_id = first.submit("t-key-0123456789", {
                "benchmark": "pingpong", "nranks": 2})["job_id"]
            deadline = time.monotonic() + 60
            while not first.store.get(done_id).finished:
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            first.shutdown(drain=True)
        # Forge a job the service accepted but never finished (as if the
        # process was killed mid-run): journal it behind the service's back.
        journal = Journal(tmp_path / "journal")
        journal.record("accepted", "lostjob0000000aa", tenant="t", kind="run",
                       cost=1, payload={"kind": "run", "benchmark": "pingpong",
                                        "nranks": 2})
        journal.record("started", "lostjob0000000aa", worker="w0")

        second = JobService(self._config(tmp_path))
        try:
            restored = second.store.get(done_id)
            assert restored is not None and restored.state == "done"
            assert restored.result["exit_codes"] == [0, 0]
            assert second.store.get("lostjob0000000aa").state == "queued"
            assert second.queue.depth() == 1, "unfinished job re-queued"
            assert second.metrics.counter("serve.jobs.requeued") == 1
            # Replay re-appended nothing: the done job stays accepted once.
            accepted = [r for r in journal.events()
                        if r["event"] == "accepted" and r["job_id"] == done_id]
            assert len(accepted) == 1
            # Run the re-queued job to completion on the new service.
            second.start()
            deadline = time.monotonic() + 60
            while not second.store.get("lostjob0000000aa").finished:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert second.store.get("lostjob0000000aa").state == "done"
        finally:
            second.shutdown(drain=True)

    def test_cancellation_is_durable_across_restart(self, tmp_path):
        first = JobService(self._config(tmp_path))   # pool never started
        job_id = first.submit("t-key-0123456789", {
            "benchmark": "pingpong", "nranks": 2})["job_id"]
        assert first.cancel_job("t-key-0123456789", job_id)["state"] == "cancelled"
        first.shutdown(drain=False)

        second = JobService(self._config(tmp_path))
        try:
            record = second.store.get(job_id)
            assert record is not None and record.state == "cancelled"
            assert second.queue.depth() == 0, "cancelled jobs are not re-queued"
        finally:
            second.shutdown(drain=False)
