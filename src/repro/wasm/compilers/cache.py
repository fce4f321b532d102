"""Content-addressed ahead-of-time compilation cache (§3.3).

MPIWasm offsets the LLVM back-end's long compile times by caching the
generated shared object in the filesystem, keyed by a Blake-3 hash of the
Wasm module.  Since the lowering refactor *every* back-end produces a
serializable artifact (a scan record for Singlepass, lowered IR for
Cranelift, generated Python source for LLVM), so the cache is useful for all
three -- repeated launches of the same application skip the compile-time
lowering and code generation.

Keys are a ``blake2b`` hash over module bytes + back-end name + IR version
(Blake-3 is not packaged offline; the only property used is collision-
resistant content addressing, so the substitution is behaviour-preserving).
Including :data:`repro.wasm.lowering.IR_VERSION` in the key means an IR
format change transparently invalidates stale artifacts instead of loading
them into a newer runtime.

This module is the only one that knows the on-disk record: a ``blake2b``
digest of the body, then the body, a pickled dict of the compiled module's
fields.  A record that does not check out -- a flipped bit, a truncation, a
file in an older format, an undecodable or malformed body -- is a miss: the
module is compiled again and the record republished.

A lookup returns ``(compiled, tier)``: the tier that served it (``"memory"``
or ``"fs"``), or ``None`` on a miss, so the tier is truthy exactly on a hit.
The store keeps no count of its own: the caller records each lookup in the
job's or session's :class:`~repro.sim.metrics.MetricsRegistry`, which is the
one record of cache use (a campaign sums its jobs').
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

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


#: Bytes of the ``blake2b`` digest that starts every on-disk record.
DIGEST_SIZE = 32


def _digest(body) -> bytes:
    return hashlib.blake2b(body, digest_size=DIGEST_SIZE).digest()


def decode_record(raw: bytes) -> Optional[Dict[str, Any]]:
    """The record ``raw`` holds, or ``None`` when it is corrupt."""
    body = memoryview(raw)[DIGEST_SIZE:]
    if _digest(body) != raw[:DIGEST_SIZE]:
        return None
    try:
        record = pickle.loads(body)
    except Exception:
        # Unpickling fails in many ways (a record whose classes have since
        # moved raises ImportError or AttributeError); every one leaves the
        # record unusable, which is a miss, not an error.
        return None
    if not (isinstance(record, dict) and isinstance(record.get("backend"), str)
            and isinstance(record.get("function_count"), int) and "artifact" in record):
        return None
    return record


class FileSystemCache:
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
      artifact or a complete one -- never a torn read.  A failed publish
      removes its temporary file.
    * **Each module compiles once.**  :meth:`load_or_compute` guards the
      compile step with a per-key lock file (``O_CREAT | O_EXCL``); losers
      wait for the winner's publish instead of recompiling.  A crashed
      winner's stale lock is broken after :data:`LOCK_TIMEOUT` seconds.
    * **The directory holds artifacts and locks only.**  Lookups are not
      logged here; each one is counted once, by its caller, in the metrics
      of the job that made it, and a campaign sums its jobs' metrics.
    """

    #: Seconds after which another process's compile lock is considered stale.
    LOCK_TIMEOUT = 60.0
    #: Polling interval while waiting for a concurrent compiler's publish.
    LOCK_POLL = 0.005

    def __init__(self, directory: Union[Path, str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tmp_counter = itertools.count()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.mpiwasm"

    def _lock_path(self, key: str) -> Path:
        return self.directory / f"{key}.lock"

    # ------------------------------------------------------------ store/load

    def store(self, key: str, compiled: CompiledModule) -> Path:
        """Persist a compilation artifact under ``key`` (atomic publish)."""
        body = pickle.dumps({
            "backend": compiled.backend_name,
            "ir_version": compiled.ir_version,
            "compile_seconds": compiled.compile_seconds,
            "function_count": compiled.function_count,
            "artifact": compiled.artifact,
        })
        path = self._path(key)
        # Private temporary name (pid + per-instance counter), then an atomic
        # rename: concurrent readers never observe a partially written file.
        tmp = self.directory / f"{key}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_digest(body))
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def read(self, key: str) -> Tuple[bytes, Optional[Dict[str, Any]]]:
        """``key``'s raw record bytes and the record they decode to (``None``
        when corrupt); raises :class:`FileNotFoundError` when there is none."""
        raw = self._path(key).read_bytes()
        return raw, decode_record(raw)

    def _read(self, key: str, module: Module) -> Optional[CompiledModule]:
        """The artifact for ``key``; ``None`` when it is absent, unreadable,
        corrupt or from an older IR (each a miss that recompiles)."""
        try:
            _raw, record = self.read(key)
        except OSError:
            return None
        if record is None or record.get("ir_version", IR_VERSION) != IR_VERSION:
            return None
        return CompiledModule(
            backend_name=record["backend"],
            module=module,
            compile_seconds=0.0,  # cache hits skip compilation
            artifact=record["artifact"],
            function_count=record["function_count"],
            ir_version=IR_VERSION,
        )

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
    ) -> Tuple[CompiledModule, Optional[str]]:
        """Return ``(artifact, tier)`` -- ``"fs"`` on a hit, ``None`` on a
        miss; compile via ``compute`` at most once across every process
        sharing this directory.

        A call that got the artifact without compiling -- even by waiting out
        a concurrent compiler -- is a hit; a call that ran ``compute`` is a
        miss.
        """
        compiled = self._read(key, module)
        if compiled is not None:
            return compiled, "fs"
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
                        return compiled, "fs"
                    time.sleep(self.LOCK_POLL)
                if time.monotonic() >= deadline:
                    # Liveness backstop: the holder is wedged well past the
                    # stale threshold -- compile without the lock.
                    break
            # Re-check under the lock: the previous holder may have published
            # between our read and the acquire.
            compiled = self._read(key, module)
            if compiled is not None:
                return compiled, "fs"
            compiled = compute()
            self.store(key, compiled)
            return compiled, None
        finally:
            if acquired:
                self._release(lock)

    # ------------------------------------------------------------ maintenance

    def entries(self) -> Dict[str, int]:
        """Cache entries and their sizes in bytes."""
        return {p.stem: p.stat().st_size for p in self.directory.glob("*.mpiwasm")}

    def clear(self) -> int:
        """Delete all cached artifacts (and locks); returns the number of
        artifacts removed.  Tolerates concurrent removals -- another process
        releasing its lock mid-clear is fine."""
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
        return removed


class InMemoryCache:
    """The session's artifact store: process memory, optionally in front of
    one on-disk cache.

    A lookup tries memory first; on a memory miss it goes to ``disk``'s
    compile-once :meth:`FileSystemCache.load_or_compute` (straight to
    ``compute`` without a disk) and keeps what it got, so the next job of
    the session skips the filesystem.
    """

    def __init__(self, disk: Optional[FileSystemCache] = None) -> None:
        self.disk = disk
        self._store: Dict[str, CompiledModule] = {}

    def fronting(self, disk: FileSystemCache) -> "InMemoryCache":
        """A store that shares this one's memory, in front of ``disk``."""
        front = InMemoryCache(disk)
        front._store = self._store
        return front

    def store(self, key: str, compiled: CompiledModule) -> None:
        """Keep a compilation artifact in memory."""
        self._store[key] = compiled

    def load_or_compute(
        self, key: str, module: Module, compute: Callable[[], CompiledModule]
    ) -> Tuple[CompiledModule, Optional[str]]:
        """Return ``(artifact, tier)``: ``"memory"``, ``"fs"``, or ``None``
        when ``compute`` ran."""
        cached = self._store.get(key)
        if cached is not None:
            return replace(cached, module=module, compile_seconds=0.0), "memory"
        if self.disk is None:
            compiled, tier = compute(), None
        else:
            compiled, tier = self.disk.load_or_compute(key, module, compute)
        self._store[key] = compiled
        return compiled, tier

    def clear(self) -> int:
        """Drop the memory (never the disk: it is shared state); returns the
        number of entries removed."""
        n = len(self._store)
        self._store.clear()
        return n
