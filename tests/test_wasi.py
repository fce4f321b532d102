"""Tests for the WASI layer: virtual filesystem, isolation, host functions."""

from __future__ import annotations

import pytest

from repro.wasi.errno import EACCES, EBADF, ENOENT, ENOTCAPABLE, SUCCESS, WasiError, errno_name
from repro.wasi.snapshot_preview1 import WasiEnvironment, build_wasi_imports
from repro.wasi.vfs import VirtualFilesystem
from repro.wasm import FuncType, ImportObject, Instance, ModuleBuilder
from repro.wasm.errors import ExitTrap


# ------------------------------------------------------------------------- vfs


def test_preopen_and_create_write_read_roundtrip():
    vfs = VirtualFilesystem()
    vfs.preopen("/work")
    dirfd = vfs.preopen_fd(0)
    # Create the subdirectory first (path_open does not mkdir -p), then the file.
    subdir_fd = vfs.path_open(dirfd, "out", create=True, directory=True, write=True)
    assert subdir_fd > dirfd
    fd = vfs.path_open(dirfd, "out/data.bin", create=True, write=True, read=True)
    assert vfs.fd_write(fd, b"hello") == 5
    vfs.fd_seek(fd, 0, 0)
    assert vfs.fd_read(fd, 10) == b"hello"
    assert vfs.fd_filesize(fd) == 5
    vfs.fd_close(fd)
    with pytest.raises(WasiError):
        vfs.fd_read(fd, 1)  # closed


def test_missing_intermediate_directory_raises_enoent():
    vfs = VirtualFilesystem()
    vfs.preopen("/data")
    with pytest.raises(WasiError) as excinfo:
        vfs.path_open(vfs.preopen_fd(0), "a/b/c.txt", create=True, write=True)
    assert excinfo.value.errno == ENOENT


def test_path_escape_is_rejected():
    vfs = VirtualFilesystem()
    vfs.preopen("/sandbox")
    with pytest.raises(WasiError) as excinfo:
        vfs.path_open(vfs.preopen_fd(0), "../etc/passwd", create=False)
    assert excinfo.value.errno == ENOTCAPABLE


def test_read_only_preopen_blocks_writes():
    vfs = VirtualFilesystem()
    vfs.preopen("/ro", read=True, write=False)
    dirfd = vfs.preopen_fd(0)
    with pytest.raises(WasiError) as excinfo:
        vfs.path_open(dirfd, "new.txt", create=True, write=True)
    assert excinfo.value.errno == ENOTCAPABLE


def test_virtual_directory_tree_hides_host_paths():
    vfs = VirtualFilesystem()
    pre = vfs.preopen("/home/alice/results/deep/path")
    # The module only ever sees a single root-level component (§3.4).
    assert pre.guest_path == "/home"
    vfs2 = VirtualFilesystem()
    assert vfs2.preopen("results").guest_path == "/results"


def test_stdout_stderr_capture_and_unlink():
    vfs = VirtualFilesystem()
    vfs.preopen("/w")
    vfs.fd_write(1, b"out\n")
    vfs.fd_write(2, b"err\n")
    assert vfs.stdout_text() == "out\n"
    assert vfs.stderr_text() == "err\n"
    fd = vfs.path_open(vfs.preopen_fd(0), "tmp.txt", create=True, write=True)
    vfs.fd_close(fd)
    vfs.unlink(vfs.preopen_fd(0), "tmp.txt")
    with pytest.raises(WasiError):
        vfs.path_open(vfs.preopen_fd(0), "tmp.txt", create=False)


def test_seek_whence_variants_and_errors():
    vfs = VirtualFilesystem()
    vfs.preopen("/w")
    fd = vfs.path_open(vfs.preopen_fd(0), "f", create=True, write=True, read=True)
    vfs.fd_write(fd, b"0123456789")
    assert vfs.fd_seek(fd, 2, 0) == 2
    assert vfs.fd_seek(fd, 3, 1) == 5
    assert vfs.fd_seek(fd, -1, 2) == 9
    with pytest.raises(WasiError):
        vfs.fd_seek(fd, -100, 0)
    with pytest.raises(WasiError):
        vfs.fd_seek(999, 0, 0)
    assert errno_name(EBADF) == "EBADF"


def test_cannot_close_preopen_or_stdio():
    vfs = VirtualFilesystem()
    vfs.preopen("/w")
    vfs.fd_close(1)  # silently ignored for stdio
    with pytest.raises(WasiError):
        vfs.fd_close(vfs.preopen_fd(0))


# -------------------------------------------------------- wasi host functions


def _wasi_instance(env: WasiEnvironment):
    """A minimal module importing the WASI functions used below."""
    mb = ModuleBuilder()
    mb.add_memory(4)
    for name, params, results in (
        ("fd_write", ["i32", "i32", "i32", "i32"], ["i32"]),
        ("fd_read", ["i32", "i32", "i32", "i32"], ["i32"]),
        ("proc_exit", ["i32"], []),
        ("args_sizes_get", ["i32", "i32"], ["i32"]),
        ("args_get", ["i32", "i32"], ["i32"]),
        ("clock_time_get", ["i32", "i64", "i32"], ["i32"]),
        ("random_get", ["i32", "i32"], ["i32"]),
        ("environ_sizes_get", ["i32", "i32"], ["i32"]),
    ):
        mb.import_function("wasi_snapshot_preview1", name, params, results)
    f = mb.function("noop", export=True)
    f.emit("nop")
    module = mb.build()
    return Instance(module, build_wasi_imports(env, ImportObject()))


def test_fd_write_through_iovecs():
    env = WasiEnvironment()
    inst = _wasi_instance(env)
    mem = inst.exported_memory()
    mem.write(1000, b"hello ")
    mem.write(1010, b"world\n")
    # Two iovecs at address 64: (1000, 6) and (1010, 6).
    mem.store_int(64, 1000, 4); mem.store_int(68, 6, 4)
    mem.store_int(72, 1010, 4); mem.store_int(76, 6, 4)
    fd_write = inst.host_call("wasi_snapshot_preview1", "fd_write")
    assert fd_write(1, 64, 2, 128) == [SUCCESS]
    assert mem.load_int(128, 4) == 12
    assert env.vfs.stdout_text() == "hello world\n"


def test_args_and_clock_and_random():
    env = WasiEnvironment(args=["app", "--size", "4"], clock=lambda: 1.5)
    inst = _wasi_instance(env)
    mem = inst.exported_memory()
    sizes = inst.host_call("wasi_snapshot_preview1", "args_sizes_get")
    assert sizes(16, 20) == [SUCCESS]
    argc = mem.load_int(16, 4)
    assert argc == 4  # "wasm-app" + the three user args
    clock = inst.host_call("wasi_snapshot_preview1", "clock_time_get")
    assert clock(0, 0, 32) == [SUCCESS]
    assert mem.load_int(32, 8) == int(1.5e9)
    random_get = inst.host_call("wasi_snapshot_preview1", "random_get")
    assert random_get(200, 16) == [SUCCESS]
    assert mem.read(200, 16) != bytes(16)


def test_proc_exit_raises_exit_trap_and_records_code():
    env = WasiEnvironment()
    inst = _wasi_instance(env)
    proc_exit = inst.host_call("wasi_snapshot_preview1", "proc_exit")
    with pytest.raises(ExitTrap) as excinfo:
        proc_exit(3)
    assert excinfo.value.exit_code == 3
    assert env.exit_code == 3
    assert inst.exit_code == 3
