"""Concurrency tests for the on-disk AoT compilation cache.

The campaign runner points N worker processes at one cache directory; these
tests pin down the contract that makes that safe:

* N processes racing to compile the same module produce **exactly one**
  compile (per-key lock file; losers wait for the winner's publish),
* artifact publishes are atomic -- a concurrent reader never observes a torn
  (partially written) file,
* every lookup reports the tier that served it (``None``: it compiled), and
  across the pool exactly one of them ran the compile.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.api.config import ResolvedConfig
from repro.core.embedder import MPIWasm
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import compile_guest
from repro.wasm.compilers import FileSystemCache, get_backend
from repro.wasm.compilers.cache import decode_record, module_hash


def _ctx():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _app():
    return compile_guest(GuestProgram(name="concurrency-test", main=lambda api, args: 0))


# These workers are module-level so they stay picklable under spawn.


def _compile_worker(cache_dir: str, barrier, queue) -> None:
    """One racing compiler: load_or_compute the same key as everyone else."""
    app = _app()
    cache = FileSystemCache(cache_dir)
    key = module_hash(app.wasm_bytes, "cranelift")
    computes = []

    def compute():
        computes.append(key)
        return get_backend("cranelift").compile(app.module)

    barrier.wait()  # maximise the race: everyone starts together
    compiled, tier = cache.load_or_compute(key, app.module, compute)
    queue.put({
        "pid": os.getpid(),
        "computes": len(computes),
        "tier": tier,
        "function_count": compiled.function_count,
        "ir_version": compiled.ir_version,
    })


def _embedder_worker(cache_dir: str, barrier, queue) -> None:
    """Same race through the embedder's public compile path."""
    app = _app()
    embedder = MPIWasm(ResolvedConfig(backend="cranelift"), FileSystemCache(cache_dir))
    barrier.wait()
    compiled = embedder.compile_module(app.wasm_bytes, app.module)
    queue.put({"tier": embedder.last_cache_tier, "function_count": compiled.function_count})


def _store_worker(cache_dir: str, key: str, payload_id: int, rounds: int) -> None:
    """Republishes a large artifact repeatedly (torn-read pressure)."""
    app = _app()
    compiled = get_backend("cranelift").compile(app.module)
    # Large, distinctive artifact: a torn write would be detectable both by
    # pickle failing and by the marker fields disagreeing.
    compiled.artifact = dict(compiled.artifact)
    compiled.artifact["marker"] = payload_id
    compiled.artifact["blob"] = bytes([payload_id]) * (1 << 20)
    cache = FileSystemCache(cache_dir)
    for _ in range(rounds):
        cache.store(key, compiled)


def _run_processes(targets_args, timeout=120.0):
    procs = [_ctx().Process(target=t, args=a) for t, a in targets_args]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout)
    assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]


N_WORKERS = 4


def test_concurrent_compiles_produce_exactly_one_artifact(tmp_path):
    ctx = _ctx()
    barrier = ctx.Barrier(N_WORKERS)
    queue = ctx.Queue()
    _run_processes([(_compile_worker, (str(tmp_path), barrier, queue))] * N_WORKERS)
    results = [queue.get(timeout=10) for _ in range(N_WORKERS)]

    # Exactly one process compiled; everyone else hit (possibly after waiting
    # out the winner's lock). No reader saw a torn artifact.
    assert sum(r["computes"] for r in results) == 1
    assert [r["computes"] for r in results if r["tier"] is None] == [1]
    assert sum(1 for r in results if r["tier"] is None) == 1
    assert sum(1 for r in results if r["tier"] == "fs") == N_WORKERS - 1
    # Everyone got an equivalent artifact.
    assert len({r["function_count"] for r in results}) == 1
    assert len({r["ir_version"] for r in results}) == 1
    # Exactly one .mpiwasm file, no leftover locks or temp files.
    assert len(list(tmp_path.glob("*.mpiwasm"))) == 1
    assert not list(tmp_path.glob("*.lock"))
    assert not list(tmp_path.glob("*.tmp"))


def test_concurrent_embedders_compile_once_through_public_path(tmp_path):
    ctx = _ctx()
    barrier = ctx.Barrier(N_WORKERS)
    queue = ctx.Queue()
    _run_processes([(_embedder_worker, (str(tmp_path), barrier, queue))] * N_WORKERS)
    results = [queue.get(timeout=10) for _ in range(N_WORKERS)]
    assert sum(1 for r in results if r["tier"] is None) == 1
    assert sum(1 for r in results if r["tier"] == "fs") == N_WORKERS - 1
    assert len({r["function_count"] for r in results}) == 1
    assert len(list(tmp_path.glob("*.mpiwasm"))) == 1


def test_no_torn_reads_under_concurrent_republish(tmp_path):
    """Readers racing concurrent writers always deserialise a complete
    artifact whose fields are self-consistent (one writer's payload)."""
    app = _app()
    key = module_hash(app.wasm_bytes, "cranelift")
    writers = [
        (_store_worker, (str(tmp_path), key, payload_id, 12)) for payload_id in (1, 2)
    ]
    procs = [_ctx().Process(target=t, args=a) for t, a in writers]
    for p in procs:
        p.start()
    path = tmp_path / f"{key}.mpiwasm"
    observed = set()
    deadline = time.time() + 60
    try:
        while any(p.is_alive() for p in procs) and time.time() < deadline:
            if not path.exists():
                continue
            # Raw record read on purpose: a lookup treats a corrupt record
            # as a miss, which would mask a torn publish in this test.
            payload = decode_record(path.read_bytes())
            assert payload is not None, "torn read: record fails its digest"
            marker = payload["artifact"]["marker"]
            blob = payload["artifact"]["blob"]
            assert blob == bytes([marker]) * (1 << 20), "torn read: mixed payloads"
            observed.add(marker)
    finally:
        for p in procs:
            p.join(60)
    assert all(p.exitcode == 0 for p in procs)
    assert observed <= {1, 2} and observed, observed


def test_lookups_report_the_tier_that_served_them(tmp_path):
    app = _app()
    cache = FileSystemCache(tmp_path)
    key = module_hash(app.wasm_bytes, "cranelift")
    computes = []

    def compute():
        computes.append(key)
        return get_backend("cranelift").compile(app.module)

    compiled, tier = cache.load_or_compute(key, app.module, compute)
    assert tier is None and compiled is not None and computes == [key]
    tiers = [cache.load_or_compute(key, app.module, lambda: pytest.fail("must not recompile"))[1]
             for _ in range(3)]
    assert tiers == ["fs", "fs", "fs"]
    # A second handle on the same directory is served from disk too.
    assert FileSystemCache(tmp_path).load_or_compute(
        key, app.module, lambda: pytest.fail("must not recompile"))[1] == "fs"
    assert computes == [key]
    assert [path.name for path in tmp_path.iterdir()] == [f"{key}.mpiwasm"]


def test_stale_lock_break_aborts_when_lock_was_reacquired(tmp_path):
    """TOCTOU regression: a waiter that judged the lock stale must NOT break
    it if, between the judgment and the unlink, another process released the
    stale lock and a third process re-acquired with a fresh one.  The fresh
    lock has to survive, so _try_acquire reports the key as still locked."""
    app = _app()
    cache = FileSystemCache(tmp_path)
    cache.LOCK_TIMEOUT = 0.2
    key = module_hash(app.wasm_bytes, "cranelift")
    lock = tmp_path / f"{key}.lock"
    lock.touch()
    old = time.time() - 10
    os.utime(lock, (old, old))  # looks stale to any waiter

    real_stat = cache._stat_lock
    calls = {"n": 0}

    def racing_stat(path):
        # First call: the identity re-check inside _break_stale_lock.  Swap
        # the stale lock for a *fresh* one right before it, simulating the
        # stale holder's release plus a third process's re-acquire landing in
        # the window between the staleness judgment and the unlink... except
        # the very first call, which is the staleness judgment itself.
        calls["n"] += 1
        if calls["n"] == 2:
            os.unlink(path)           # stale holder finally releases
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            os.close(fd)              # third process re-acquires, fresh mtime
        return real_stat(path)

    cache._stat_lock = racing_stat
    assert cache._try_acquire(lock) is False, "fresh lock must be respected"
    assert lock.exists(), "the re-acquired lock must not be deleted"
    # The fresh lock's mtime is recent, so a plain retry still sees it held.
    cache._stat_lock = real_stat
    assert cache._try_acquire(lock) is False


def test_stale_lock_break_tolerates_concurrent_breaker(tmp_path):
    """Two waiters racing to break the same stale lock: the loser's unlink
    target is already gone, which must read as 'retry', not crash."""
    app = _app()
    cache = FileSystemCache(tmp_path)
    cache.LOCK_TIMEOUT = 0.2
    key = module_hash(app.wasm_bytes, "cranelift")
    lock = tmp_path / f"{key}.lock"
    lock.touch()
    old = time.time() - 10
    os.utime(lock, (old, old))

    real_stat = cache._stat_lock
    calls = {"n": 0}

    def racing_stat(path):
        calls["n"] += 1
        if calls["n"] == 2 and path.exists():
            os.unlink(path)  # the other breaker wins the unlink race
        return real_stat(path)

    cache._stat_lock = racing_stat
    # With the lock gone, the retry acquires cleanly.
    assert cache._try_acquire(lock) is True
    assert lock.exists()


def test_lock_wait_deadline_is_monotonic(tmp_path, monkeypatch):
    """A wall-clock step backwards while waiting must not extend the wait:
    the deadline is timed on the monotonic clock."""
    app = _app()
    cache = FileSystemCache(tmp_path)
    cache.LOCK_TIMEOUT = 0.05
    cache.LOCK_POLL = 0.005
    key = module_hash(app.wasm_bytes, "cranelift")
    lock = tmp_path / f"{key}.lock"
    lock.touch()  # a live-looking lock that is never released...

    # ...whose mtime is permanently refreshed to "now", so the staleness
    # branch never fires and only the monotonic deadline can end the wait.
    real_time = time.time

    def fresh_mtime():
        now = real_time()
        os.utime(lock, (now, now))
        return now - 3600.0  # wall clock stepped back one hour

    monkeypatch.setattr(time, "time", fresh_mtime)
    start = time.monotonic()
    compiled, hit = cache.load_or_compute(
        key, app.module, lambda: get_backend("cranelift").compile(app.module)
    )
    elapsed = time.monotonic() - start
    assert compiled is not None and not hit
    # 2 * LOCK_TIMEOUT = 0.1s deadline; a wall-clock-timed wait would have
    # spun for the full hour of the backwards step.
    assert elapsed < 30.0


def test_stale_lock_is_broken(tmp_path):
    app = _app()
    cache = FileSystemCache(tmp_path)
    cache.LOCK_TIMEOUT = 0.2
    cache.LOCK_POLL = 0.01
    key = module_hash(app.wasm_bytes, "cranelift")
    lock = tmp_path / f"{key}.lock"
    lock.touch()
    old = time.time() - 10
    os.utime(lock, (old, old))  # a compiler that died long ago
    computes = []

    def compute():
        computes.append(key)
        return get_backend("cranelift").compile(app.module)

    compiled, hit = cache.load_or_compute(key, app.module, compute)
    assert compiled is not None and not hit
    assert computes == [key]
