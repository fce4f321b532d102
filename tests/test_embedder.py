"""Tests for the MPIWasm embedder: translations, imports, cache, isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run
from repro.core import (
    AddressTranslator,
    DatatypeTranslator,
    EmbedderConfig,
    Env,
    GuestResult,
    HandleTable,
    MPIWasm,
    TranslationOverheadModel,
)
from repro.wasm.compilers.cache import InMemoryCache, module_hash
from repro.core.datatype_translation import DatatypeTranslationError
from repro.mpi import datatypes as host_datatypes
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import compile_guest
from repro.wasm.errors import MemoryOutOfBoundsTrap
from repro.wasm.memory import LinearMemory
from repro.wasm.types import Limits, MemoryType


# -------------------------------------------------------- address translation


def test_address_translation_is_zero_copy():
    memory = LinearMemory(MemoryType(Limits(1)))
    translator = AddressTranslator(memory)
    assert translator.is_zero_copy(128, 64)
    view = translator.to_host(256, 16)
    view[:4] = b"wasm"
    assert memory.read(256, 4) == b"wasm"
    assert translator.from_host(view) == 256


def test_address_translation_bounds_checked():
    memory = LinearMemory(MemoryType(Limits(1)))
    translator = AddressTranslator(memory)
    with pytest.raises(MemoryOutOfBoundsTrap):
        translator.to_host(65536 - 4, 8)
    with pytest.raises(MemoryOutOfBoundsTrap):
        translator.to_host(-4, 8)
    with pytest.raises(MemoryOutOfBoundsTrap):
        translator.to_host(5_000_000_000, 8)
    # Regression: a negative byte count must be rejected outright, not be
    # interpreted as a from-the-end Python slice of the linear memory.
    with pytest.raises(MemoryOutOfBoundsTrap):
        translator.to_host(256, -8)


# -------------------------------------------------------- datatype translation


def test_datatype_translation_guest_to_host_and_back():
    translator = DatatypeTranslator(TranslationOverheadModel())
    dt = translator.datatype(abi.MPI_DOUBLE)
    assert dt.name == "MPI_DOUBLE" and dt.size == 8
    assert translator.guest_handle_for(dt) == abi.MPI_DOUBLE
    assert translator.op(abi.MPI_SUM).name == "MPI_SUM"
    with pytest.raises(DatatypeTranslationError):
        translator.datatype(999)
    with pytest.raises(DatatypeTranslationError):
        translator.op(999)


def test_bulk_handle_array_translation_round_trips():
    from repro.core.memory_translation import read_handle_array, write_handle_array

    memory = LinearMemory(MemoryType(Limits(1)))
    handles = [7, 0, 2**32 - 1, 42]
    write_handle_array(memory, 512, handles)
    back = read_handle_array(memory, 512, len(handles))
    assert back.dtype == np.dtype("<u4") and back.tolist() == handles
    # The read is a defensive copy: mutating it must not touch guest memory.
    back[0] = 99
    assert read_handle_array(memory, 512, 1).tolist() == [7]
    assert read_handle_array(memory, 512, 0).size == 0


def test_datatype_translator_bulk_casts_are_vectorized():
    translator = DatatypeTranslator(TranslationOverheadModel())
    raw = np.arange(8, dtype="<i4").tobytes()
    viewed = translator.as_ndarray(raw, abi.MPI_INT, 8)
    assert viewed.tolist() == list(range(8))
    widened = translator.cast_array(raw, abi.MPI_INT, abi.MPI_DOUBLE, 8)
    assert widened.dtype == np.dtype("<f8") and widened.tolist() == list(range(8))


def test_translation_latency_matches_figure6_calibration():
    model = TranslationOverheadModel()
    # Small messages: the calibrated per-datatype base values (85-105 ns).
    assert model.datatype_cost("MPI_BYTE", 64) == pytest.approx(85.44e-9)
    assert model.datatype_cost("MPI_LONG", 64) == pytest.approx(104.79e-9)
    # The knee above 256 KiB (read-lock acquisition) adds measurable latency.
    small = model.datatype_cost("MPI_DOUBLE", 1024)
    large = model.datatype_cost("MPI_DOUBLE", 4 * 1024 * 1024)
    assert large > small + 40e-9
    # Ordering of the datatypes follows the paper (BYTE/CHAR cheapest, LONG priciest).
    assert model.datatype_cost("MPI_CHAR", 8) < model.datatype_cost("MPI_INT", 8)
    assert model.datatype_cost("MPI_INT", 8) < model.datatype_cost("MPI_LONG", 8)


def test_handle_table_register_lookup_release():
    table = HandleTable(first_handle=16)
    h1 = table.register("objA")
    h2 = table.register("objB")
    assert (h1, h2) == (16, 17)
    assert table.lookup(h1) == "objA"
    assert table.contains(h2)
    table.release(h1)
    assert not table.contains(h1)
    with pytest.raises(KeyError):
        table.lookup(h1)
    assert len(table) == 1


# ----------------------------------------------------------------------- cache


def test_compilation_cache_hits_on_identical_module():
    cache = InMemoryCache()
    config = EmbedderConfig(compiler_backend="cranelift")
    program = GuestProgram(name="cached", main=lambda api, args: 0)
    app = compile_guest(program)
    embedder = MPIWasm(config, cache=cache)
    first = embedder.compile_module(app.wasm_bytes, app.module)
    assert not embedder.last_cache_hit and first.compile_seconds > 0
    second = embedder.compile_module(app.wasm_bytes, app.module)
    assert embedder.last_cache_hit and second.compile_seconds == 0.0
    assert cache.hits == 1 and cache.misses == 1


def test_module_hash_changes_with_content_and_backend():
    a = module_hash(b"module-bytes", "llvm")
    assert a == module_hash(b"module-bytes", "llvm")
    assert a != module_hash(b"module-bytes!", "llvm")
    assert a != module_hash(b"module-bytes", "cranelift")


def test_filesystem_cache_round_trip(tmp_path):
    from repro.wasm.compilers.cache import FileSystemCache
    from repro.wasm.compilers import get_backend

    program = GuestProgram(name="fs-cached", main=lambda api, args: 0)
    app = compile_guest(program)
    compiled = get_backend("llvm").compile(app.module)
    cache = FileSystemCache(tmp_path)
    key = module_hash(app.wasm_bytes, "llvm")
    cache.store(key, compiled)
    assert cache.contains(key)
    loaded = cache.load(key, app.module)
    assert loaded is not None and loaded.backend_name == "llvm"
    assert loaded.artifact == compiled.artifact
    assert cache.entries()
    assert cache.clear() == 1


# ---------------------------------------------------------- guest MPI imports


def _two_rank_guest(body):
    """Run ``body(api, rank, size)`` under MPIWasm on two Graviton2 ranks."""
    program = GuestProgram(name="import-test", main=None)

    def main(api, args):
        api.mpi_init()
        result = body(api, api.rank(), api.size())
        api.mpi_finalize()
        return result

    program.main = main
    return run(program, 2, machine="graviton2",
               config=EmbedderConfig(compiler_backend="cranelift"))


def test_guest_send_recv_with_status_and_get_count():
    def body(api, rank, size):
        ptr, arr = api.alloc_array(8, abi.MPI_INT)
        if rank == 0:
            arr[:] = np.arange(8)
            api.send(ptr, 8, abi.MPI_INT, 1, 42)
            return None
        status = api.recv(ptr, 8, abi.MPI_INT, 0, 42)
        return (arr.tolist(), status["source"], status["tag"], status["count_bytes"])

    job = _two_rank_guest(body)
    data, source, tag, count_bytes = job.return_values()[1]
    assert data == list(range(8))
    assert (source, tag, count_bytes) == (0, 42, 32)


def test_guest_collectives_and_wildcards():
    def body(api, rank, size):
        send_ptr, send = api.alloc_array(4, abi.MPI_DOUBLE, fill=float(rank + 1))
        recv_ptr, recv = api.alloc_array(4, abi.MPI_DOUBLE)
        api.allreduce(send_ptr, recv_ptr, 4, abi.MPI_DOUBLE, abi.MPI_SUM)
        allred = recv.tolist()

        bcast_ptr, bcast_arr = api.alloc_array(4, abi.MPI_INT, fill=rank * 7)
        api.bcast(bcast_ptr, 4, abi.MPI_INT, 1)

        gather_ptr, gather_arr = api.alloc_array(size, abi.MPI_INT)
        one_ptr, one = api.alloc_array(1, abi.MPI_INT, fill=rank + 10)
        api.gather(one_ptr, 1, abi.MPI_INT, gather_ptr, 1, abi.MPI_INT, 0)
        return (allred, bcast_arr.tolist(), gather_arr.tolist() if rank == 0 else None)

    job = _two_rank_guest(body)
    allred0, bcast0, gathered = job.return_values()[0]
    assert allred0 == [3.0, 3.0, 3.0, 3.0]
    assert bcast0 == [7, 7, 7, 7]
    assert gathered == [10, 11]


def test_guest_isend_wait_and_alloc_mem():
    def body(api, rank, size):
        # MPI_Alloc_mem must route through the module's exported malloc (§3.7)
        # and hand back a pointer inside the 32-bit linear memory.
        ptr = api.alloc_mem(64)
        assert 0 < ptr < 4 * 1024 * 1024 * 1024
        arr = api.ndarray(ptr, 8, abi.MPI_DOUBLE)
        if rank == 0:
            arr[:] = 2.5
            req = api.isend(ptr, 8, abi.MPI_DOUBLE, 1, 3)
            api.wait(req)
        else:
            req = api.irecv(ptr, 8, abi.MPI_DOUBLE, 0, 3)
            api.wait(req)
            assert arr.tolist() == [2.5] * 8
        api.free_mem(ptr)
        return True

    assert all(_two_rank_guest(body).return_values())


def test_guest_mpi_test_poll_until_complete():
    def body(api, rank, size):
        data_ptr, data = api.alloc_array(4, abi.MPI_INT)
        if rank == 0:
            # Block on a go-signal first, so rank 1 is guaranteed to observe
            # at least one incomplete MPI_Test before the payload is sent.
            go_ptr, _ = api.alloc_array(1, abi.MPI_INT)
            api.recv(go_ptr, 1, abi.MPI_INT, 1, 1)
            data[:] = [5, 6, 7, 8]
            api.send(data_ptr, 4, abi.MPI_INT, 1, 2)
            return None
        req = api.irecv(data_ptr, 4, abi.MPI_INT, 0, 2)
        first_flag, first_status = api.test(req)
        go_ptr, _ = api.alloc_array(1, abi.MPI_INT, fill=1)
        api.send(go_ptr, 1, abi.MPI_INT, 0, 1)
        polls = 0
        while True:
            polls += 1
            flag, status = api.test(req)
            if flag:
                break
            api.env.runtime.ctx.yield_turn()  # let rank 0 make progress
        # The completed handle was released host side: a further MPI_Test
        # behaves like MPI_REQUEST_NULL (immediately complete, empty status).
        stale_flag, _ = api.test(req)
        return (data.tolist(), status["source"], status["tag"],
                first_flag, first_status, polls, stale_flag)

    job = _two_rank_guest(body)
    data, source, tag, first_flag, first_status, polls, stale_flag = job.return_values()[1]
    assert data == [5, 6, 7, 8]
    assert (source, tag) == (0, 2)
    assert first_flag is False and first_status is None
    assert polls >= 1
    assert stale_flag is True
    assert job.rank_results[1].call_counts["MPI_Test"] == polls + 2


def test_guest_comm_split_and_dup():
    def body(api, rank, size):
        new_comm = api.comm_split(abi.MPI_COMM_WORLD, color=0, key=size - rank)
        assert new_comm >= abi.FIRST_USER_COMM
        # key reverses the order, so world rank 0 becomes local rank 1.
        local_rank = api.rank(new_comm)
        dup = api.comm_dup(abi.MPI_COMM_WORLD)
        return (local_rank, api.size(dup))

    job = _two_rank_guest(body)
    assert job.return_values()[0] == (1, 2)
    assert job.return_values()[1] == (0, 2)


def test_guest_wtime_and_processor_name_and_stdout():
    def body(api, rank, size):
        t0 = api.wtime()
        api.barrier()
        t1 = api.wtime()
        api.print(f"rank {rank} ready")
        return t1 >= t0

    job = _two_rank_guest(body)
    assert all(job.return_values())
    assert "rank 0 ready" in job.stdout


def test_embedder_records_call_counts_and_translation_metrics():
    def body(api, rank, size):
        ptr, _ = api.alloc_array(16, abi.MPI_DOUBLE, fill=1.0)
        out_ptr, _ = api.alloc_array(16, abi.MPI_DOUBLE)
        for _ in range(3):
            api.allreduce(ptr, out_ptr, 16, abi.MPI_DOUBLE, abi.MPI_SUM)
        return None

    job = _two_rank_guest(body)
    result: GuestResult = job.rank_results[0]
    assert result.call_counts["MPI_Allreduce"] == 3
    assert result.call_counts["MPI_Init"] == 1
    series = job.metrics.series("embedder.translation.MPI_DOUBLE")
    assert series.count >= 6          # two ranks x three calls
    assert 50e-9 < series.mean < 300e-9


def test_wasm_run_is_slower_than_native_but_close():
    from repro.benchmarks_suite import make_imb_program

    program = make_imb_program("pingpong", message_sizes=(64, 4096), iterations=3)
    wasm = run(program, 2, machine="graviton2")
    native = run(program, 2, machine="graviton2", mode="native")
    assert wasm.makespan > native.makespan
    # The overhead must stay modest (the paper reports ~5% GM for PingPong).
    assert wasm.makespan < native.makespan * 2.0


def test_guest_exit_code_via_proc_exit():
    program = GuestProgram(name="exit-3", main=None)

    def main(api, args):
        api.mpi_init()
        api.env.wasi.vfs.fd_write(1, b"bye\n")
        from repro.wasm.errors import ExitTrap

        raise ExitTrap(3)

    program.main = main
    job = run(program, 1, machine="graviton2")
    assert job.exit_codes() == [3]
    assert "bye" in job.stdout
