"""``wasi_snapshot_preview1`` host functions.

Implements the WASI system interface the paper's modules import (Listing 1):
``fd_write``, ``fd_read``, ``fd_seek``, ``fd_close``, ``path_open``,
``proc_exit``, ``args_*``, ``environ_*``, ``clock_time_get`` and
``random_get``, over the virtual filesystem in :mod:`repro.wasi.vfs`.

All functions follow the WASI ABI: scatter/gather iovecs, results written
through out-pointers in linear memory, and an errno returned as ``i32``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.wasi.errno import EBADF, SUCCESS, WasiError
from repro.wasi.vfs import VirtualFilesystem
from repro.wasm.errors import ExitTrap
from repro.wasm.runtime import ImportObject, Instance
from repro.wasm.types import FuncType

NAMESPACE = "wasi_snapshot_preview1"

# path_open oflags / fdflags / rights bits (subset used by wasi-libc).
OFLAG_CREAT = 1 << 0
OFLAG_DIRECTORY = 1 << 1
OFLAG_EXCL = 1 << 2
OFLAG_TRUNC = 1 << 3
FDFLAG_APPEND = 1 << 0
RIGHT_FD_READ = 1 << 1
RIGHT_FD_WRITE = 1 << 6

#: Signatures of the imports below, parsed once at import time (not per rank).
_SIGNATURES: Dict[str, FuncType] = {
    name: FuncType.of(params, results)
    for name, (params, results) in {
        "args_sizes_get": (["i32", "i32"], ["i32"]),
        "args_get": (["i32", "i32"], ["i32"]),
        "environ_sizes_get": (["i32", "i32"], ["i32"]),
        "environ_get": (["i32", "i32"], ["i32"]),
        "clock_time_get": (["i32", "i64", "i32"], ["i32"]),
        "random_get": (["i32", "i32"], ["i32"]),
        "fd_write": (["i32", "i32", "i32", "i32"], ["i32"]),
        "fd_read": (["i32", "i32", "i32", "i32"], ["i32"]),
        "fd_seek": (["i32", "i64", "i32", "i32"], ["i32"]),
        "fd_close": (["i32"], ["i32"]),
        "fd_filestat_get": (["i32", "i32"], ["i32"]),
        "fd_prestat_get": (["i32", "i32"], ["i32"]),
        "fd_prestat_dir_name": (["i32", "i32", "i32"], ["i32"]),
        "path_open": (["i32", "i32", "i32", "i32", "i32", "i64", "i64", "i32", "i32"], ["i32"]),
        "path_unlink_file": (["i32", "i32", "i32"], ["i32"]),
        "proc_exit": (["i32"], []),
        "sched_yield": ([], ["i32"]),
    }.items()
}


class WasiEnvironment:
    """Per-instance WASI state: args, environment, clock and the VFS.

    The clock is supplied by the embedder so that guest-visible time is the
    *simulated* time of the rank running the module, keeping benchmark
    self-timing consistent with the cluster model.
    """

    def __init__(
        self,
        args: Sequence[str] = (),
        environ: Optional[Dict[str, str]] = None,
        vfs: Optional[VirtualFilesystem] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.args = ["wasm-app", *args] if not args or args[0] != "wasm-app" else list(args)
        self.environ = dict(environ or {})
        self.vfs = vfs or VirtualFilesystem()
        self.clock = clock or (lambda: 0.0)
        self.exit_code: Optional[int] = None
        self._prng_state = 0x9E3779B97F4A7C15

    # ------------------------------------------------------------------ helpers

    def _args_blob(self) -> List[bytes]:
        return [a.encode("utf-8") + b"\x00" for a in self.args]

    def _environ_blob(self) -> List[bytes]:
        return [f"{k}={v}".encode("utf-8") + b"\x00" for k, v in sorted(self.environ.items())]

    def _next_random(self) -> int:
        # xorshift64*: deterministic, seedable, good enough for guest PRNG needs.
        x = self._prng_state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self._prng_state = x & 0xFFFFFFFFFFFFFFFF
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF


def _iovec_gather(memory, iovs_ptr: int, iovs_len: int) -> List[tuple]:
    """Decode a WASI iovec array into (pointer, length) pairs."""
    out = []
    for i in range(iovs_len):
        base = iovs_ptr + 8 * i
        ptr = memory.load_int(base, 4)
        length = memory.load_int(base + 4, 4)
        out.append((ptr, length))
    return out


def build_wasi_imports(env: WasiEnvironment, imports: ImportObject) -> ImportObject:
    """Register WASI, over ``env``, on ``imports``; returns ``imports``."""

    def register(name: str, fn) -> None:
        imports.register(NAMESPACE, name, _SIGNATURES[name], fn)

    # ----------------------------------------------------------- args / environ

    def args_sizes_get(instance: Instance, argc_ptr: int, argv_buf_size_ptr: int) -> int:
        blobs = env._args_blob()
        instance.memory.store_int(argc_ptr, len(blobs), 4)
        instance.memory.store_int(argv_buf_size_ptr, sum(len(b) for b in blobs), 4)
        return SUCCESS

    def args_get(instance: Instance, argv_ptr: int, argv_buf_ptr: int) -> int:
        offset = argv_buf_ptr
        for i, blob in enumerate(env._args_blob()):
            instance.memory.store_int(argv_ptr + 4 * i, offset, 4)
            instance.memory.write(offset, blob)
            offset += len(blob)
        return SUCCESS

    def environ_sizes_get(instance: Instance, count_ptr: int, buf_size_ptr: int) -> int:
        blobs = env._environ_blob()
        instance.memory.store_int(count_ptr, len(blobs), 4)
        instance.memory.store_int(buf_size_ptr, sum(len(b) for b in blobs), 4)
        return SUCCESS

    def environ_get(instance: Instance, environ_ptr: int, buf_ptr: int) -> int:
        offset = buf_ptr
        for i, blob in enumerate(env._environ_blob()):
            instance.memory.store_int(environ_ptr + 4 * i, offset, 4)
            instance.memory.write(offset, blob)
            offset += len(blob)
        return SUCCESS

    register("args_sizes_get", args_sizes_get)
    register("args_get", args_get)
    register("environ_sizes_get", environ_sizes_get)
    register("environ_get", environ_get)

    # ------------------------------------------------------------------- clocks

    def clock_time_get(instance: Instance, clock_id: int, precision: int, time_ptr: int) -> int:
        nanos = int(env.clock() * 1e9)
        instance.memory.store_int(time_ptr, nanos, 8)
        return SUCCESS

    register("clock_time_get", clock_time_get)

    # ------------------------------------------------------------------- random

    def random_get(instance: Instance, buf_ptr: int, buf_len: int) -> int:
        remaining = buf_len
        offset = buf_ptr
        while remaining > 0:
            chunk = env._next_random().to_bytes(8, "little")[: min(8, remaining)]
            instance.memory.write(offset, chunk)
            offset += len(chunk)
            remaining -= len(chunk)
        return SUCCESS

    register("random_get", random_get)

    # --------------------------------------------------------------------- fds

    def fd_write(instance: Instance, fd: int, iovs_ptr: int, iovs_len: int, nwritten_ptr: int) -> int:
        try:
            total = 0
            for ptr, length in _iovec_gather(instance.memory, iovs_ptr, iovs_len):
                total += env.vfs.fd_write(fd, instance.memory.read(ptr, length))
            instance.memory.store_int(nwritten_ptr, total, 4)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    def fd_read(instance: Instance, fd: int, iovs_ptr: int, iovs_len: int, nread_ptr: int) -> int:
        try:
            total = 0
            for ptr, length in _iovec_gather(instance.memory, iovs_ptr, iovs_len):
                data = env.vfs.fd_read(fd, length)
                instance.memory.write(ptr, data)
                total += len(data)
                if len(data) < length:
                    break
            instance.memory.store_int(nread_ptr, total, 4)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    def fd_seek(instance: Instance, fd: int, offset: int, whence: int, newoffset_ptr: int) -> int:
        try:
            new = env.vfs.fd_seek(fd, offset, whence)
            instance.memory.store_int(newoffset_ptr, new, 8)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    def fd_close(instance: Instance, fd: int) -> int:
        try:
            env.vfs.fd_close(fd)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    def fd_filestat_get(instance: Instance, fd: int, stat_ptr: int) -> int:
        try:
            size = env.vfs.fd_filesize(fd)
        except WasiError as exc:
            return exc.errno
        instance.memory.write(stat_ptr, bytes(64))
        instance.memory.store_int(stat_ptr + 32, size, 8)
        return SUCCESS

    def fd_prestat_get(instance: Instance, fd: int, prestat_ptr: int) -> int:
        index = fd - env.vfs.FIRST_PREOPEN_FD
        preopens = env.vfs.preopens()
        if not 0 <= index < len(preopens):
            return EBADF
        name = preopens[index].guest_path.encode("utf-8")
        instance.memory.store_int(prestat_ptr, 0, 4)              # tag: dir
        instance.memory.store_int(prestat_ptr + 4, len(name), 4)  # name length
        return SUCCESS

    def fd_prestat_dir_name(instance: Instance, fd: int, path_ptr: int, path_len: int) -> int:
        index = fd - env.vfs.FIRST_PREOPEN_FD
        preopens = env.vfs.preopens()
        if not 0 <= index < len(preopens):
            return EBADF
        name = preopens[index].guest_path.encode("utf-8")[:path_len]
        instance.memory.write(path_ptr, name)
        return SUCCESS

    register("fd_write", fd_write)
    register("fd_read", fd_read)
    register("fd_seek", fd_seek)
    register("fd_close", fd_close)
    register("fd_filestat_get", fd_filestat_get)
    register("fd_prestat_get", fd_prestat_get)
    register("fd_prestat_dir_name", fd_prestat_dir_name)

    # -------------------------------------------------------------------- paths

    def path_open(
        instance: Instance,
        dirfd: int,
        dirflags: int,
        path_ptr: int,
        path_len: int,
        oflags: int,
        rights_base: int,
        rights_inheriting: int,
        fdflags: int,
        fd_ptr: int,
    ) -> int:
        path = instance.memory.read(path_ptr, path_len).decode("utf-8", errors="replace")
        try:
            fd = env.vfs.path_open(
                dirfd,
                path,
                create=bool(oflags & OFLAG_CREAT),
                truncate=bool(oflags & OFLAG_TRUNC),
                append=bool(fdflags & FDFLAG_APPEND),
                read=bool(rights_base & RIGHT_FD_READ) or not (rights_base & RIGHT_FD_WRITE),
                write=bool(rights_base & RIGHT_FD_WRITE),
                directory=bool(oflags & OFLAG_DIRECTORY),
            )
            instance.memory.store_int(fd_ptr, fd, 4)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    def path_unlink_file(instance: Instance, dirfd: int, path_ptr: int, path_len: int) -> int:
        path = instance.memory.read(path_ptr, path_len).decode("utf-8", errors="replace")
        try:
            env.vfs.unlink(dirfd, path)
            return SUCCESS
        except WasiError as exc:
            return exc.errno

    register("path_open", path_open)
    register("path_unlink_file", path_unlink_file)

    # --------------------------------------------------------------------- proc

    def proc_exit(instance: Instance, code: int):
        env.exit_code = code
        instance.exit_code = code
        raise ExitTrap(code)

    register("proc_exit", proc_exit)

    def sched_yield(instance: Instance) -> int:
        return SUCCESS

    register("sched_yield", sched_yield)

    return imports
