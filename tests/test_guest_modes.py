"""One guest API, two execution modes.

Each ``BENCHMARKS`` entry runs at 2 and 4 ranks in ``mode="native"`` and in
``mode="wasm"``; the makespan, the per-rank exit codes and the per-rank values
its ``main`` returned are pinned with ``==`` against
``tests/golden/guest_modes.json``.  Virtual time is deterministic, so a moved
native number names a place where the two modes' bindings of the guest API
differ, and a moved wasm number a change to the embedder's translation.  A
deliberate change regenerates the file with ``pytest tests/test_guest_modes.py
--update-golden``.

Both modes run the guest against the same ``GuestAPI`` and the same
``env.MPI_*`` host functions, so a guest sees the same stdout and the same
error codes in each; native mode compiles nothing and executes no Wasm.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.registry import BENCHMARKS
from repro.mpi import errors
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.sim.engine import RankFailedError
from repro.wasm.errors import LinkError, MemoryOutOfBoundsTrap

GOLDEN = Path(__file__).parent / "golden" / "guest_modes.json"

MODES = ("native", "wasm")
NRANKS = (2, 4)


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serialisable: {value!r}")


@pytest.fixture(scope="module")
def session():
    with Session(backend="cranelift") as session:
        yield session


def _measure(session: Session, name: str) -> dict:
    out = {}
    for mode in MODES:
        for nranks in NRANKS:
            job = session.run(name, nranks, mode=mode)
            out[f"{mode}:np{nranks}"] = {
                "makespan_s": job.makespan,
                "exit_codes": job.exit_codes(),
                "return_values": job.return_values(),
            }
    # Through JSON, as the file holds it: integer keys become strings.
    return json.loads(json.dumps(out, default=_plain))


@pytest.mark.parametrize("name", BENCHMARKS.names())
def test_benchmark_output_is_golden_in_both_modes(name, session, request):
    measured = _measure(session, name)
    if request.config.getoption("--update-golden"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[name] = measured
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert json.loads(GOLDEN.read_text())[name] == measured


@pytest.mark.parametrize("mode", MODES)
def test_job_stdout_is_rank_zeros_output(mode, session):
    def main(api, args):
        api.mpi_init()
        api.print("hello from %d" % api.rank())
        api.mpi_finalize()
        return 0

    job = session.run(GuestProgram(name="hello", main=main), 2, mode=mode)
    assert job.stdout == "hello from 0\n"


#: A handle no datatype and no communicator has.
UNKNOWN_HANDLE = 999


@pytest.mark.parametrize("mode", MODES)
def test_bad_calls_return_the_same_error_code_in_both_modes(mode, session):
    def main(api, args):
        api.mpi_init()
        send, _ = api.alloc_array(4, abi.MPI_DOUBLE, fill=1.0)
        recv, values = api.alloc_array(4, abi.MPI_DOUBLE)
        codes = [
            api.allreduce(send, recv, -1, abi.MPI_DOUBLE, abi.MPI_SUM),
            api.allreduce(send, recv, 4, UNKNOWN_HANDLE, abi.MPI_SUM),
            api.allreduce(send, recv, 4, abi.MPI_DOUBLE, abi.MPI_SUM, UNKNOWN_HANDLE),
            api.allreduce(send, recv, 4, abi.MPI_DOUBLE, abi.MPI_SUM),
        ]
        api.mpi_finalize()
        return codes, values.tolist()

    job = session.run(GuestProgram(name="bad-calls", main=main), 2, mode=mode)
    for codes, values in job.return_values():
        assert codes == [errors.MPI_ERR_COUNT, errors.MPI_ERR_TYPE, errors.MPI_ERR_COMM,
                         errors.MPI_SUCCESS]
        assert values == [2.0] * 4


@pytest.mark.parametrize("mode", MODES)
def test_testall_reuses_one_scratch_region(mode, session):
    """``GuestAPI.testall`` stages its handle and status arrays in one reused
    region: the guest allocator never frees, so after the first of 1 000
    calls the heap top stays where it is."""
    def main(api, args):
        api.mpi_init()
        buf, values = api.alloc_array(2, abi.MPI_INT)
        handles = [api.irecv(buf, 1, abi.MPI_INT, 0, 1),
                   api.irecv(buf + 4, 1, abi.MPI_INT, 0, 2)]
        assert api.testall(handles) == (False, [])
        top = api.malloc(0)
        for _ in range(999):
            api.testall(handles)
        grown = api.malloc(0) - top
        src, data = api.alloc_array(2, abi.MPI_INT)
        data[:] = [7, 8]
        api.send(src, 1, abi.MPI_INT, 0, 1)
        api.send(src + 4, 1, abi.MPI_INT, 0, 2)
        flag, statuses = api.testall(handles)
        api.mpi_finalize()
        return grown, flag, [s["tag"] for s in statuses], values.tolist()

    job = session.run(GuestProgram(name="testall-heap", main=main), 1, mode=mode)
    assert job.return_values() == [(0, True, [1, 2], [7, 8])]


@pytest.mark.parametrize("offset", [0, -8], ids=["past-the-end", "straddling"])
@pytest.mark.parametrize("mode", MODES)
def test_out_of_bounds_status_pointer_traps(mode, offset, session):
    """The status write-back of an import and ``GuestAPI.read_status`` are
    bounds-checked over the whole 16-byte ``MPI_Status``: a pointer at or
    straddling the end of memory traps, it is never a short write or read."""
    def main(api, args):
        api.mpi_init()
        status_ptr = api.instance.exported_memory().size + offset
        if args == ["read"]:
            return api.read_status(status_ptr)
        buf, _ = api.alloc_array(1, abi.MPI_INT, fill=3)
        return api._call("MPI_Sendrecv", buf, 1, abi.MPI_INT, 0, 5, buf, 1, abi.MPI_INT, 0, 5,
                         abi.MPI_COMM_WORLD, status_ptr)

    for how in ("write", "read"):
        with pytest.raises(RankFailedError) as excinfo:
            session.run(GuestProgram(name="bad-status", main=main), 1, mode=mode,
                        guest_args=[how])
        assert isinstance(excinfo.value.original, MemoryOutOfBoundsTrap)


def test_native_mode_compiles_nothing_and_runs_no_wasm():
    def main(api, args):
        api.mpi_init()
        try:
            api.call_kernel("hpcg_ddot", 0, 0, 0)
        except LinkError:
            raised = True
        else:
            raised = False
        api.mpi_finalize()
        return raised

    with Session(backend="cranelift") as session:
        job = session.run(GuestProgram(name="kernel-call", main=main), 2, mode="native")
        nbc = session.run("iallreduce", 2, mode="native")
        assert session.cache_summary()["hits"] == session.cache_summary()["misses"] == 0
    assert job.return_values() == [True, True]
    snapshot = nbc.metrics.snapshot()
    assert snapshot["series"] and snapshot["counters"]
    assert not [name for kind in snapshot.values() for name in kind
                if name.startswith("embedder.")]
