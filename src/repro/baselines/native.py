"""Native execution baseline.

The "Native" series of every figure in the paper is the benchmark compiled
with clang -O3 and run directly under the host MPI library.  Here the same
guest program runs against :class:`NativeAPI`, which exposes the *same
interface* as :class:`repro.core.guest_api.GuestAPI` but is backed by plain
NumPy buffers and direct calls into the host MPI runtime -- no linear memory,
no handle translation, no embedder overhead.  The difference between a
``mode="wasm"`` and a ``mode="native"`` job is therefore exactly the embedder
layer the paper evaluates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mpi.algorithms.registry import CONTRACTS
from repro.mpi.communicator import Communicator
from repro.mpi.pt2pt import ANY_SOURCE, ANY_TAG
from repro.mpi.runtime import MPIRuntime
from repro.toolchain import mpi_header as abi

_NP_DTYPES: Dict[int, str] = {
    abi.MPI_BYTE: "uint8",
    abi.MPI_CHAR: "int8",
    abi.MPI_INT: "int32",
    abi.MPI_UNSIGNED: "uint32",
    abi.MPI_LONG: "int64",
    abi.MPI_LONG_LONG: "int64",
    abi.MPI_FLOAT: "float32",
    abi.MPI_DOUBLE: "float64",
}


def _host_datatype(guest_handle: int):
    return abi.HOST_DATATYPES[guest_handle]


def _host_op(guest_handle: int):
    return abi.HOST_OPS[guest_handle]


def _entry_points(collective: str, define):
    """``NativeAPI.<c>`` and ``NativeAPI.i<c>`` from one definition.

    ``define(run)`` returns the method: it translates guest handles into the
    arguments of the runtime method ``run`` (a buffer handle becomes the
    whole buffer; the runtime takes the extent it needs) and returns what a
    guest expects -- ``MPI_SUCCESS`` where ``run`` returns nothing, else the
    host request object.  It is instantiated with ``MPIRuntime.<c>`` and
    ``MPIRuntime.i<c>``.
    """
    blocking = define(getattr(MPIRuntime, collective))
    nonblocking = define(getattr(MPIRuntime, "i" + collective))
    blocking_name, nonblocking_name = CONTRACTS[collective].mpi_names
    blocking.__name__, nonblocking.__name__ = collective, "i" + collective
    blocking.__doc__ = f"``{blocking_name}``."
    nonblocking.__doc__ = f"``{nonblocking_name}``; returns the host request object."
    return blocking, nonblocking


class NativeAPI:
    """GuestAPI-compatible interface backed directly by the host MPI library.

    Guest "pointers" are integer indices into a private buffer table; each
    buffer is a NumPy byte array.  Datatype/op handles use the same guest
    integers so benchmark code is byte-for-byte identical between the native
    and Wasm paths.
    """

    # Re-exported constants, mirroring GuestAPI.
    MPI_COMM_WORLD = abi.MPI_COMM_WORLD
    MPI_ANY_SOURCE = abi.MPI_ANY_SOURCE
    MPI_ANY_TAG = abi.MPI_ANY_TAG
    MPI_SUM = abi.MPI_SUM
    MPI_MAX = abi.MPI_MAX
    MPI_MIN = abi.MPI_MIN
    MPI_BYTE = abi.MPI_BYTE
    MPI_CHAR = abi.MPI_CHAR
    MPI_INT = abi.MPI_INT
    MPI_LONG = abi.MPI_LONG
    MPI_FLOAT = abi.MPI_FLOAT
    MPI_DOUBLE = abi.MPI_DOUBLE

    def __init__(self, runtime: MPIRuntime):
        self.runtime = runtime
        self._buffers: Dict[int, np.ndarray] = {}
        self._next_ptr = 16
        self._comms: Dict[int, Communicator] = {}
        self._next_comm = abi.FIRST_USER_COMM
        self._stdout: List[str] = []
        self.elapsed_virtual = 0.0

    # ------------------------------------------------------------------ memory

    def malloc(self, nbytes: int) -> int:
        """Allocate a host buffer and return its handle ("pointer")."""
        ptr = self._next_ptr
        self._next_ptr += max(int(nbytes), 1) + 16
        self._buffers[ptr] = np.zeros(int(nbytes), dtype=np.uint8)
        return ptr

    def free(self, ptr: int) -> None:
        """Release a buffer."""
        self._buffers.pop(ptr, None)

    def _buffer(self, ptr: int, nbytes: int) -> np.ndarray:
        buf = self._buffers.get(ptr)
        if buf is None:
            raise KeyError(f"unknown native buffer handle {ptr}")
        if nbytes > buf.nbytes:
            raise ValueError(f"buffer {ptr} has {buf.nbytes} bytes, {nbytes} requested")
        return buf[:nbytes]

    def view(self, ptr: int, nbytes: int) -> memoryview:
        """Writable view of a buffer."""
        return memoryview(self._buffer(ptr, nbytes))

    def ndarray(self, ptr: int, count: int, guest_datatype: int) -> np.ndarray:
        """Typed view of a buffer."""
        dtype = np.dtype(_NP_DTYPES[guest_datatype])
        return self._buffer(ptr, count * dtype.itemsize).view(dtype)[:count]

    def alloc_array(self, count: int, guest_datatype: int, fill: Optional[float] = None) -> Tuple[int, np.ndarray]:
        """Allocate and view an array; returns (handle, NumPy view)."""
        size = abi.datatype_size(guest_datatype) * count
        ptr = self.malloc(size)
        arr = self.ndarray(ptr, count, guest_datatype)
        if fill is not None:
            arr[:] = fill
        return ptr, arr

    # -------------------------------------------------------------------- misc

    def print(self, text: str) -> None:
        """Record a line of output (native stdout)."""
        self._stdout.append(text)

    def stdout(self) -> str:
        """Everything printed so far."""
        return "\n".join(self._stdout) + ("\n" if self._stdout else "")

    def compute(self, seconds: float) -> None:
        """Advance the rank's virtual clock by modelled compute time."""
        if seconds > 0:
            self.runtime.ctx.advance(seconds)

    def call_kernel(self, export_name: str, *args) -> List:
        """Native builds have no Wasm kernels; the guests fall back to NumPy."""
        raise NotImplementedError("native execution has no Wasm kernels")

    # --------------------------------------------------------------------- MPI

    def _comm(self, handle: int) -> Communicator:
        if handle == abi.MPI_COMM_WORLD:
            return self.runtime.comm_world
        if handle == abi.MPI_COMM_SELF:
            return self.runtime.comm_self
        return self._comms[handle]

    @staticmethod
    def _source(value: int) -> int:
        return ANY_SOURCE if value == abi.MPI_ANY_SOURCE else value

    @staticmethod
    def _tag(value: int) -> int:
        return ANY_TAG if value == abi.MPI_ANY_TAG else value

    def mpi_init(self) -> int:
        """``MPI_Init``."""
        self.runtime.init()
        return abi.MPI_SUCCESS

    def mpi_finalize(self) -> int:
        """``MPI_Finalize``."""
        self.runtime.finalize()
        return abi.MPI_SUCCESS

    def rank(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_rank``."""
        return self.runtime.comm_rank(self._comm(comm))

    def size(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_size``."""
        return self.runtime.comm_size(self._comm(comm))

    def wtime(self) -> float:
        """``MPI_Wtime``."""
        return self.runtime.wtime()

    def send(self, buf, count, datatype, dest, tag, comm=abi.MPI_COMM_WORLD) -> int:
        dt = _host_datatype(datatype)
        self.runtime.send(self._buffer(buf, count * dt.size), count, dt, dest, tag, self._comm(comm))
        return abi.MPI_SUCCESS

    def recv(self, buf, count, datatype, source, tag, comm=abi.MPI_COMM_WORLD) -> Dict[str, int]:
        dt = _host_datatype(datatype)
        status = self.runtime.recv(
            self._buffer(buf, count * dt.size), count, dt, self._source(source), self._tag(tag), self._comm(comm)
        )
        return {"source": status.source, "tag": status.tag, "error": status.error,
                "count_bytes": status.count_bytes}

    def sendrecv(self, sendbuf, sendcount, sendtype, dest, sendtag,
                 recvbuf, recvcount, recvtype, source, recvtag,
                 comm=abi.MPI_COMM_WORLD) -> Dict[str, int]:
        st = _host_datatype(sendtype)
        rt = _host_datatype(recvtype)
        status = self.runtime.sendrecv(
            self._buffer(sendbuf, sendcount * st.size), sendcount, st, dest, sendtag,
            self._buffer(recvbuf, recvcount * rt.size), recvcount, rt,
            self._source(source), self._tag(recvtag), self._comm(comm),
        )
        return {"source": status.source, "tag": status.tag, "error": status.error,
                "count_bytes": status.count_bytes}

    def isend(self, buf, count, datatype, dest, tag, comm=abi.MPI_COMM_WORLD):
        dt = _host_datatype(datatype)
        return self.runtime.isend(self._buffer(buf, count * dt.size), count, dt, dest, tag, self._comm(comm))

    def irecv(self, buf, count, datatype, source, tag, comm=abi.MPI_COMM_WORLD):
        dt = _host_datatype(datatype)
        return self.runtime.irecv(
            self._buffer(buf, count * dt.size), count, dt, self._source(source), self._tag(tag), self._comm(comm)
        )

    def wait(self, request) -> Dict[str, int]:
        status = self.runtime.wait(request)
        return {"source": status.source, "tag": status.tag, "error": status.error,
                "count_bytes": status.count_bytes}

    def test(self, request) -> Tuple[bool, Optional[Dict[str, int]]]:
        """``MPI_Test`` over a host request object (never blocks)."""
        flag, status = self.runtime.test(request)
        if not flag:
            return False, None
        return True, {"source": status.source, "tag": status.tag, "error": status.error,
                      "count_bytes": status.count_bytes}

    def waitany(self, requests) -> Tuple[int, Dict[str, int]]:
        """``MPI_Waitany`` over host request objects."""
        index, status = self.runtime.waitany(list(requests))
        return index, {"source": status.source, "tag": status.tag, "error": status.error,
                       "count_bytes": status.count_bytes}

    def testall(self, requests) -> Tuple[bool, List[Dict[str, int]]]:
        """``MPI_Testall`` over host request objects."""
        flag, statuses = self.runtime.testall(list(requests))
        rows = [{"source": s.source, "tag": s.tag, "error": s.error,
                 "count_bytes": s.count_bytes} for s in statuses] if flag else []
        return flag, rows

    def set_collective_algorithm(self, collective: str, algorithm: Optional[str]) -> None:
        """Force one collective's algorithm (``None`` restores the table)."""
        self.runtime.world.collectives.force(collective, algorithm)

    def collective_algorithm(self, collective: str) -> Optional[str]:
        """The algorithm currently forced for ``collective`` (None = table)."""
        return self.runtime.world.collectives.forced().get(collective)

    def record_nbc_overlap(self, collective: str, overlap: float) -> None:
        """Record one communication/computation overlap sample (0..1)."""
        self.runtime.world.metrics.record_nbc_overlap(collective, overlap)

    # One definition per collective, in the guest's argument order (see
    # ``_entry_points``).  An unknown buffer handle reaches the runtime as "not
    # supplied": MPI_ERR_BUFFER if the call needs it, ignored if it is the
    # root-only buffer on another rank.

    def _define_barrier(run):
        def barrier(self, comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._comm(comm)) or abi.MPI_SUCCESS
        return barrier

    def _define_bcast(run):
        def bcast(self, buf, count, datatype, root, comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._buffers.get(buf), count, _host_datatype(datatype),
                       root, self._comm(comm)) or abi.MPI_SUCCESS
        return bcast

    def _define_reduce(run):
        def reduce(self, sendbuf, recvbuf, count, datatype, op, root, comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._buffers.get(sendbuf), self._buffers.get(recvbuf), count,
                       _host_datatype(datatype), _host_op(op), root,
                       self._comm(comm)) or abi.MPI_SUCCESS
        return reduce

    def _define_allreduce(run):
        def allreduce(self, sendbuf, recvbuf, count, datatype, op, comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._buffers.get(sendbuf), self._buffers.get(recvbuf), count,
                       _host_datatype(datatype), _host_op(op), self._comm(comm)) or abi.MPI_SUCCESS
        return allreduce

    def _define_rooted_blocks(run):
        def blocks(self, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root,
                   comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._buffers.get(sendbuf), sendcount, _host_datatype(sendtype),
                       self._buffers.get(recvbuf), recvcount, _host_datatype(recvtype), root,
                       self._comm(comm)) or abi.MPI_SUCCESS
        return blocks

    def _define_blocks(run):
        def blocks(self, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
                   comm=abi.MPI_COMM_WORLD):
            return run(self.runtime, self._buffers.get(sendbuf), sendcount, _host_datatype(sendtype),
                       self._buffers.get(recvbuf), recvcount, _host_datatype(recvtype),
                       self._comm(comm)) or abi.MPI_SUCCESS
        return blocks

    barrier, ibarrier = _entry_points("barrier", _define_barrier)
    bcast, ibcast = _entry_points("bcast", _define_bcast)
    reduce, ireduce = _entry_points("reduce", _define_reduce)
    allreduce, iallreduce = _entry_points("allreduce", _define_allreduce)
    gather, igather = _entry_points("gather", _define_rooted_blocks)
    scatter, iscatter = _entry_points("scatter", _define_rooted_blocks)
    allgather, iallgather = _entry_points("allgather", _define_blocks)
    alltoall, ialltoall = _entry_points("alltoall", _define_blocks)

    def comm_split(self, comm: int, color: int, key: int) -> int:
        new_comm = self.runtime.comm_split(self._comm(comm), color, key)
        if new_comm is None:
            return abi.MPI_COMM_NULL
        handle = self._next_comm
        self._next_comm += 1
        self._comms[handle] = new_comm
        return handle

    def comm_dup(self, comm: int) -> int:
        new_comm = self.runtime.comm_dup(self._comm(comm))
        handle = self._next_comm
        self._next_comm += 1
        self._comms[handle] = new_comm
        return handle

    def alloc_mem(self, nbytes: int) -> int:
        """``MPI_Alloc_mem``: a plain host allocation on the native path."""
        return self.malloc(nbytes)

    def free_mem(self, ptr: int) -> int:
        """``MPI_Free_mem``."""
        self.free(ptr)
        return abi.MPI_SUCCESS


# --------------------------------------------------------- the "native" mode

from repro.api.registry import register_mode  # noqa: E402
from repro.api.session import JobResult, execute_job  # noqa: E402
from repro.toolchain.wasicc import CompiledApplication  # noqa: E402


@register_mode("native")
def run_native_mode(session, app, *, nranks, preset, ranks_per_node, config,
                    guest_args) -> JobResult:
    """``Session.run(mode="native")``: the no-embedder baseline.

    The guest program's ``main`` executes directly against :class:`NativeAPI`
    -- plain NumPy buffers, direct calls into the host MPI runtime -- so the
    difference to a ``mode="wasm"`` job of the same application is exactly
    the embedder layer the paper evaluates.  Registered through the unified
    mode registry; ``Session`` discovers it like any third-party mode.
    """
    program = app.program if isinstance(app, CompiledApplication) else session._guest_program(app)

    def program_factory(world, metrics):
        def make_rank_program(rank: int):
            def rank_program(ctx):
                runtime = MPIRuntime(world, ctx)
                api = NativeAPI(runtime)
                start = ctx.now
                value = program.main(api, list(guest_args))
                api.elapsed_virtual = ctx.now - start
                return value

            return rank_program

        return make_rank_program

    rank_results, makespan, metrics = execute_job(
        preset, nranks, ranks_per_node, config.collective_algorithms, program_factory
    )
    return JobResult(
        nranks=nranks,
        machine=preset.name,
        mode="native",
        rank_results=rank_results,
        makespan=makespan,
        metrics=metrics,
        stdout="",
    )
