"""Content-addressed ahead-of-time compilation cache (§3.3).

MPIWasm offsets the LLVM back-end's long compile times by caching the
generated shared object in the filesystem, keyed by a Blake-3 hash of the
Wasm module.  Since the lowering refactor *every* back-end produces a
serializable artifact (lowered IR for the interpreting back-ends, generated
Python source for LLVM), so the cache is useful for all three -- repeated
launches of the same application skip lowering and code generation entirely.

Keys are a ``blake2b`` hash over module bytes + back-end name + IR version
(Blake-3 is not packaged offline; the only property used is collision-
resistant content addressing, so the substitution is behaviour-preserving).
Including :data:`repro.wasm.lowering.IR_VERSION` in the key means an IR
format change transparently invalidates stale artifacts instead of loading
them into a newer runtime.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.wasm.compilers.base import CompiledModule
from repro.wasm.lowering import IR_VERSION
from repro.wasm.module import Module


def module_hash(wasm_bytes: bytes, backend_name: str, ir_version: int = IR_VERSION) -> str:
    """Content hash of a (module bytes, back-end, IR version) combination."""
    h = hashlib.blake2b(digest_size=32)
    h.update(backend_name.encode("utf-8"))
    h.update(b"\x00")
    h.update(str(ir_version).encode("ascii"))
    h.update(b"\x00")
    h.update(wasm_bytes)
    return h.hexdigest()


class _CacheStatsMixin:
    """Hit/miss accounting shared by both cache flavours.

    ``last_hit_tier`` records which tier served the most recent lookup
    (``"memory"``, ``"fs"``, or ``None`` on a miss) so the embedder can
    attribute each compile's cache outcome in the metrics registry.
    """

    hits: int
    misses: int
    last_hit_tier: Optional[str]

    def stats(self) -> Dict[str, int]:
        """Counters in the shape the metrics registry and reports consume."""
        return {"hits": self.hits, "misses": self.misses}


class FileSystemCache(_CacheStatsMixin):
    """Filesystem-backed cache of compilation artifacts, safe under
    concurrent writers.

    Any change to the module bytes (or the back-end, or the IR version)
    changes the hash, which transparently triggers recompilation; repeated
    executions of the same application hit the cache and skip the compile
    step entirely.

    Concurrency contract (the campaign runner shares one directory between
    N worker processes):

    * **Publishes are atomic.**  Artifacts are written to a private temporary
      file and published with :func:`os.replace`, so a reader either sees no
      artifact or a complete one -- never a torn read.
    * **Each module compiles once.**  :meth:`load_or_compute` guards the
      compile step with a per-key lock file (``O_CREAT | O_EXCL``); losers
      wait for the winner's publish instead of recompiling.  A crashed
      winner's stale lock is broken after :data:`LOCK_TIMEOUT` seconds.
    * **Counters aggregate across processes.**  Every hit / miss / compile
      appends one line to ``_stats/events.log`` (``O_APPEND`` writes below
      the pipe-buffer size are atomic on POSIX), so :meth:`global_stats`
      reflects the whole worker pool, not just this process.
    """

    #: Seconds after which another process's compile lock is considered stale.
    LOCK_TIMEOUT = 60.0
    #: Polling interval while waiting for a concurrent compiler's publish.
    LOCK_POLL = 0.005

    def __init__(self, directory: Union[Path, str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._stats_dir = self.directory / "_stats"
        self._stats_dir.mkdir(exist_ok=True)
        self._tmp_counter = itertools.count()
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.last_hit_tier: Optional[str] = None

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.mpiwasm"

    def _lock_path(self, key: str) -> Path:
        return self.directory / f"{key}.lock"

    @property
    def _events_path(self) -> Path:
        return self._stats_dir / "events.log"

    # --------------------------------------------------- cross-process stats

    def _log_event(self, kind: str, key: str) -> None:
        line = f"{kind} {key}\n".encode("ascii")
        fd = os.open(self._events_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def _events(self) -> List[Tuple[str, str]]:
        try:
            text = self._events_path.read_text(encoding="ascii")
        except FileNotFoundError:
            return []
        events = []
        for raw in text.splitlines():
            kind, _, key = raw.partition(" ")
            if kind:
                events.append((kind, key))
        return events

    def event_count(self) -> int:
        """Number of events logged so far; a baseline for ``since`` arguments.

        The log grows by one short line per lookup and is only reset by
        :meth:`clear` -- acceptable for per-campaign cache directories; a
        long-lived shared directory should be cleared periodically.
        """
        return len(self._events())

    def global_stats(self, since: int = 0) -> Dict[str, int]:
        """Hit/miss/compile totals across *every* process using this directory.

        ``since`` skips that many leading events, so a caller can scope the
        totals to its own run of a persistent directory by snapshotting
        :meth:`event_count` first.
        """
        totals = {"hits": 0, "misses": 0, "compiles": 0}
        for kind, _key in self._events()[since:]:
            if kind == "hit":
                totals["hits"] += 1
            elif kind == "miss":
                totals["misses"] += 1
            elif kind == "compile":
                totals["compiles"] += 1
        return totals

    def compiled_keys(self, since: int = 0) -> List[str]:
        """Keys actually compiled (not cache-served), in publish order,
        aggregated across every process using this directory."""
        return [key for kind, key in self._events()[since:] if kind == "compile"]

    # ------------------------------------------------------------ store/load

    def contains(self, key: str) -> bool:
        """Whether an artifact for ``key`` is cached."""
        return self._path(key).exists()

    def store(self, key: str, compiled: CompiledModule) -> Path:
        """Persist a compilation artifact under ``key`` (atomic publish)."""
        payload = {
            "backend": compiled.backend_name,
            "ir_version": compiled.ir_version,
            "compile_seconds": compiled.compile_seconds,
            "function_count": compiled.function_count,
            "artifact": compiled.artifact,
        }
        path = self._path(key)
        # Private temporary name (pid + per-instance counter), then an atomic
        # rename: concurrent readers never observe a partially written file.
        tmp = self.directory / f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def _read(self, key: str, module: Module) -> Optional[CompiledModule]:
        """Load an artifact without touching the hit/miss counters."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (EOFError, pickle.UnpicklingError, OSError):
            # Corrupt or unreadable artifact (should not happen with atomic
            # publishes, but never poison the caller): treat as a miss.
            return None
        if payload.get("ir_version", IR_VERSION) != IR_VERSION:
            # Stale artifact from an older IR: treat as a miss and recompile.
            return None
        return CompiledModule(
            backend_name=payload["backend"],
            module=module,
            compile_seconds=0.0,  # cache hits skip compilation
            artifact=payload["artifact"],
            function_count=payload["function_count"],
            ir_version=payload.get("ir_version", IR_VERSION),
        )

    def load(self, key: str, module: Module) -> Optional[CompiledModule]:
        """Load a cached artifact for ``key`` (``None`` on miss)."""
        compiled = self._read(key, module)
        if compiled is None:
            self.misses += 1
            self.last_hit_tier = None
            self._log_event("miss", key)
            return None
        self.hits += 1
        self.last_hit_tier = "fs"
        self._log_event("hit", key)
        return compiled

    # ----------------------------------------------------- compile-once path

    def _stat_lock(self, lock: Path):
        """``os.stat`` of the lock file, ``None`` if it vanished meanwhile.

        A separate method so concurrency tests can interpose between the
        staleness judgment and the identity re-check below.
        """
        try:
            return os.stat(lock)
        except FileNotFoundError:
            return None

    def _break_stale_lock(self, lock: Path, observed) -> None:
        """Break ``lock``, but only if it is still the exact file ``observed``.

        Two waiters can both judge the same lock stale; the first unlink wins
        the break and a third process may immediately re-acquire by creating
        a *fresh* lock at the same path.  An unconditional second unlink
        would then delete that fresh lock and let two compiles run
        concurrently.  Re-stat immediately before unlinking and compare the
        file's identity (device, inode, mtime) with the stat that justified
        the staleness judgment: a mismatch means the stale lock is already
        gone and whatever sits at the path now is someone else's live lock.
        """
        current = self._stat_lock(lock)
        if current is None:
            return  # released (or broken by another waiter) meanwhile
        if (current.st_dev, current.st_ino, current.st_mtime_ns) != (
            observed.st_dev, observed.st_ino, observed.st_mtime_ns
        ):
            return  # a different (fresh) lock took the path: not ours to break
        try:
            lock.unlink()
        except FileNotFoundError:
            pass  # another breaker got there between the re-stat and here

    def _try_acquire(self, lock: Path) -> bool:
        for _attempt in range(3):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                observed = self._stat_lock(lock)
                if observed is None:
                    continue  # released meanwhile -- retry the acquire
                # Staleness is judged on wall-clock mtime: the holder may be
                # another process, and mtimes are the only clock both share.
                if time.time() - observed.st_mtime <= self.LOCK_TIMEOUT:
                    return False
                # Holder died mid-compile: break the lock (identity-checked).
                self._break_stale_lock(lock, observed)
                continue
            os.close(fd)
            return True
        return False

    def _release(self, lock: Path) -> None:
        try:
            lock.unlink()
        except FileNotFoundError:
            pass

    def load_or_compute(
        self, key: str, module: Module, compute: Callable[[], CompiledModule]
    ) -> Tuple[CompiledModule, bool]:
        """Return ``(artifact, was_hit)``; compile via ``compute`` at most once
        across every process sharing this directory.

        Exactly one hit-or-miss event is recorded per call: a call that got
        the artifact without compiling -- even by waiting out a concurrent
        compiler -- is a hit; a call that ran ``compute`` is a miss.
        """
        compiled = self._read(key, module)
        if compiled is not None:
            self.hits += 1
            self.last_hit_tier = "fs"
            self._log_event("hit", key)
            return compiled, True
        lock = self._lock_path(key)
        # The wait deadline is *monotonic*: it times out a wait happening in
        # this process, where wall-clock steps must not matter (a backwards
        # step would spin far past the intended deadline, a forwards step
        # would give up on a perfectly live compiler).  The lock *staleness*
        # check in _try_acquire stays wall-clock on purpose -- it compares
        # against another process's mtime stamp, and file mtimes are
        # wall-clock (monotonic readings are not comparable across processes).
        deadline = time.monotonic() + 2 * self.LOCK_TIMEOUT
        acquired = False
        try:
            while True:
                acquired = self._try_acquire(lock)
                if acquired:
                    break
                # Somebody else holds the lock: wait for their publish (hit)
                # or their release (retry the acquire) instead of compiling.
                while lock.exists() and time.monotonic() < deadline:
                    compiled = self._read(key, module)
                    if compiled is not None:
                        self.hits += 1
                        self.last_hit_tier = "fs"
                        self._log_event("hit", key)
                        return compiled, True
                    time.sleep(self.LOCK_POLL)
                if time.monotonic() >= deadline:
                    # Liveness backstop: the holder is wedged well past the
                    # stale threshold -- compile without the lock.
                    break
            # Re-check under the lock: the previous holder may have published
            # between our read and the acquire.
            compiled = self._read(key, module)
            if compiled is not None:
                self.hits += 1
                self.last_hit_tier = "fs"
                self._log_event("hit", key)
                return compiled, True
            compiled = compute()
            self.store(key, compiled)
            self.compiles += 1
            self.misses += 1
            self.last_hit_tier = None
            self._log_event("miss", key)
            self._log_event("compile", key)
            return compiled, False
        finally:
            if acquired:
                self._release(lock)

    def log_external_hit(self, key: str) -> None:
        """Record a lookup served by a warm tier fronting this directory.

        A :class:`TieredCache` whose in-memory tier satisfies a lookup calls
        this so the cross-process event log keeps counting one event per
        lookup -- campaign-level hit/miss/compile totals stay comparable
        whether or not a warm session sat in front of the directory.
        """
        self.hits += 1
        self._log_event("hit", key)

    # ------------------------------------------------------------ maintenance

    def entries(self) -> Dict[str, int]:
        """Cache entries and their sizes in bytes."""
        return {p.stem: p.stat().st_size for p in self.directory.glob("*.mpiwasm")}

    def clear(self) -> int:
        """Delete all cached artifacts (and locks, and the event log);
        returns the number of artifacts removed.  Tolerates concurrent
        removals -- another process releasing its lock mid-clear is fine."""
        removed = 0
        for p in self.directory.glob("*.mpiwasm"):
            try:
                p.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        for p in self.directory.glob("*.lock"):
            try:
                p.unlink()
            except FileNotFoundError:
                pass
        try:
            self._events_path.unlink()
        except FileNotFoundError:
            pass
        return removed


class InMemoryCache(_CacheStatsMixin):
    """Process-local artifact cache used when no cache directory is configured."""

    def __init__(self) -> None:
        self._store: Dict[str, CompiledModule] = {}
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.last_hit_tier: Optional[str] = None

    def contains(self, key: str) -> bool:
        """Whether an artifact for ``key`` is cached."""
        return key in self._store

    def store(self, key: str, compiled: CompiledModule) -> None:
        """Keep a compilation artifact in memory."""
        self._store[key] = compiled

    def load(self, key: str, module: Module) -> Optional[CompiledModule]:
        """Load a cached artifact (``None`` on miss)."""
        cached = self._store.get(key)
        if cached is None or cached.ir_version != IR_VERSION:
            self.misses += 1
            self.last_hit_tier = None
            return None
        self.hits += 1
        self.last_hit_tier = "memory"
        return CompiledModule(
            backend_name=cached.backend_name,
            module=module,
            compile_seconds=0.0,
            artifact=cached.artifact,
            function_count=cached.function_count,
            ir_version=cached.ir_version,
        )

    def load_or_compute(
        self, key: str, module: Module, compute: Callable[[], CompiledModule]
    ) -> Tuple[CompiledModule, bool]:
        """Return ``(artifact, was_hit)``, compiling on a miss.

        Same contract as :meth:`FileSystemCache.load_or_compute`, minus the
        cross-process coordination (this cache never crosses a process).
        """
        cached = self.load(key, module)
        if cached is not None:
            return cached, True
        compiled = compute()
        self.store(key, compiled)
        self.compiles += 1
        return compiled, False

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        n = len(self._store)
        self._store.clear()
        return n


class TieredCache(_CacheStatsMixin):
    """A session-lifetime in-memory tier fronting the shared on-disk cache.

    ``repro.api.Session`` hands one of these to its embedders: lookups are
    served from ``memory`` first (no disk round-trip, no pickling), falling
    back to ``disk``'s cross-process compile-once path on a memory miss; every
    artifact obtained from the disk tier is promoted into memory so the next
    job in the same session skips the filesystem entirely.

    Stats contract: exactly one hit-or-miss is recorded per lookup, and a
    memory-tier hit is reported to the disk tier's event log (see
    :meth:`FileSystemCache.log_external_hit`), so campaign-wide counters are
    identical with or without a warm session in front.
    """

    def __init__(self, memory: InMemoryCache, disk: Optional[FileSystemCache] = None):
        self.memory = memory
        self.disk = disk
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.last_hit_tier: Optional[str] = None

    def contains(self, key: str) -> bool:
        """Whether either tier holds an artifact for ``key``."""
        return self.memory.contains(key) or (self.disk is not None and self.disk.contains(key))

    def store(self, key: str, compiled: CompiledModule) -> None:
        """Publish an artifact to both tiers."""
        self.memory.store(key, compiled)
        if self.disk is not None:
            self.disk.store(key, compiled)

    def load(self, key: str, module: Module) -> Optional[CompiledModule]:
        """Load from memory, then disk (promoting on a disk hit)."""
        cached = self.memory.load(key, module)
        if cached is not None:
            self.hits += 1
            self.last_hit_tier = "memory"
            if self.disk is not None:
                self.disk.log_external_hit(key)
            return cached
        if self.disk is None:
            self.misses += 1
            self.last_hit_tier = None
            return None
        cached = self.disk.load(key, module)
        if cached is None:
            self.misses += 1
            self.last_hit_tier = None
            return None
        self.memory.store(key, cached)
        self.hits += 1
        self.last_hit_tier = "fs"
        return cached

    def load_or_compute(
        self, key: str, module: Module, compute: Callable[[], CompiledModule]
    ) -> Tuple[CompiledModule, bool]:
        """Same contract as :meth:`FileSystemCache.load_or_compute`."""
        cached = self.memory.load(key, module)
        if cached is not None:
            self.hits += 1
            self.last_hit_tier = "memory"
            if self.disk is not None:
                self.disk.log_external_hit(key)
            return cached, True
        if self.disk is None:
            compiled = compute()
            self.memory.store(key, compiled)
            self.misses += 1
            self.compiles += 1
            self.last_hit_tier = None
            return compiled, False
        compiled, was_hit = self.disk.load_or_compute(key, module, compute)
        self.memory.store(key, compiled)
        if was_hit:
            self.hits += 1
            self.last_hit_tier = "fs"
        else:
            self.misses += 1
            self.compiles += 1
            self.last_hit_tier = None
        return compiled, was_hit

    def clear(self) -> int:
        """Clear the memory tier only (the disk tier is shared state)."""
        return self.memory.clear()
