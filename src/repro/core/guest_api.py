"""Guest-side API handed to Python-main guest programs.

The benchmark guests in :mod:`repro.benchmarks_suite` are written against this
handle instead of C; every operation it offers corresponds one-to-one to what
the compiled C code would do inside the Wasm sandbox:

* ``malloc``/``free`` call the module's *exported Wasm functions* (the bump
  allocator emitted by :mod:`repro.toolchain.wasicc`), so allocation really
  executes Wasm code under the selected compiler back-end,
* buffers are regions of the module's linear memory, addressed by 32-bit
  guest pointers and viewed zero-copy as NumPy arrays,
* every MPI function goes through the embedder's ``env.MPI_*`` host
  implementations -- including handle translation, address translation and
  overhead accounting -- via the same code path a Wasm ``call`` of the import
  would take,
* ``print`` goes through WASI ``fd_write`` to the captured stdout.

The one (documented) substitution is that the guest's own compute statements
run as Python instead of Wasm bytecode; compute *kernels* that matter for the
experiments (HPCG, Table 1) are provided as real Wasm functions through
``GuestProgram.build_kernels`` and invoked with :meth:`call_kernel`.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.env import Env
from repro.core.memory_translation import write_handle_array
from repro.mpi.algorithms.registry import CONTRACTS
from repro.toolchain import mpi_header as abi
from repro.wasm.runtime import Instance

#: Map guest datatype handles to NumPy dtypes (for the ndarray helpers).
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


def _entry_points(call, nbc_call, collective: str, define):
    """``GuestAPI.<c>`` and ``GuestAPI.i<c>`` from one definition.

    ``define(call, name)`` returns the method: the collective's guest-side
    signature, whose arguments it hands to ``call`` in the import's order.
    It is instantiated with ``GuestAPI._call`` and ``MPI_<C>`` (returns the
    error code), and with ``GuestAPI._nbc_call`` and ``MPI_I<c>`` (the same
    arguments plus a request slot; returns the guest request handle).
    """
    blocking_name, nonblocking_name = CONTRACTS[collective].mpi_names
    blocking, nonblocking = define(call, blocking_name), define(nbc_call, nonblocking_name)
    blocking.__name__, nonblocking.__name__ = collective, "i" + collective
    blocking.__doc__ = f"``{blocking_name}``."
    nonblocking.__doc__ = f"``{nonblocking_name}``; returns the guest request handle."
    return blocking, nonblocking


class GuestAPI:
    """What a guest program can touch: its memory, MPI and WASI."""

    def __init__(self, instance: Instance, env: Env):
        self.instance = instance
        self.env = env
        self._import_index: Dict[str, int] = {}
        for i, imp in enumerate(instance.module.imported_functions()):
            self._import_index[f"{imp.module}.{imp.name}"] = i
        self._scratch_status = self.malloc(abi.STATUS_SIZE_BYTES)
        self._scratch_i32 = self.malloc(16)

    # re-exported ABI constants for guest convenience
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

    # ------------------------------------------------------------------ memory

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` in linear memory via the module's Wasm ``malloc``."""
        [ptr] = self.instance.invoke("malloc", int(nbytes))
        return int(ptr)

    def free(self, guest_ptr: int) -> None:
        """Release an allocation via the module's Wasm ``free``."""
        self.instance.invoke("free", int(guest_ptr))

    def view(self, guest_ptr: int, nbytes: int) -> memoryview:
        """Writable zero-copy byte view of guest memory."""
        return self.instance.exported_memory().view(guest_ptr, nbytes)

    def ndarray(self, guest_ptr: int, count: int, guest_datatype: int) -> np.ndarray:
        """Zero-copy NumPy view of ``count`` elements of a guest datatype."""
        dtype = _NP_DTYPES.get(guest_datatype)
        if dtype is None:
            raise KeyError(f"no NumPy dtype for guest datatype handle {guest_datatype}")
        return self.instance.exported_memory().ndarray(guest_ptr, count, dtype)

    def alloc_array(self, count: int, guest_datatype: int, fill: Optional[float] = None) -> Tuple[int, np.ndarray]:
        """Allocate and view an array; returns (guest pointer, NumPy view)."""
        size = abi.datatype_size(guest_datatype) * count
        ptr = self.malloc(size)
        arr = self.ndarray(ptr, count, guest_datatype)
        if fill is not None:
            arr[:] = fill
        return ptr, arr

    # -------------------------------------------------------------------- WASI

    def print(self, text: str) -> None:
        """Write a line to the module's captured stdout (via the WASI VFS)."""
        self.env.wasi.vfs.fd_write(1, (text + "\n").encode("utf-8"))

    def stdout(self) -> str:
        """Everything the guest printed so far."""
        return self.env.wasi.vfs.stdout_text()

    # --------------------------------------------------------------------- MPI

    def _call(self, name: str, *args) -> int:
        index = self._import_index.get(f"env.{name}")
        if index is None:
            raise KeyError(f"module does not import env.{name}")
        results = self.instance.call_function(index, list(args))
        return results[0] if results else 0

    def mpi_init(self) -> int:
        """``MPI_Init(NULL, NULL)``."""
        return self._call("MPI_Init", 0, 0)

    def mpi_finalize(self) -> int:
        """``MPI_Finalize()``."""
        return self._call("MPI_Finalize")

    def rank(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_rank``."""
        self._call("MPI_Comm_rank", comm, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4, signed=True))

    def size(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_size``."""
        self._call("MPI_Comm_size", comm, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4, signed=True))

    def wtime(self) -> float:
        """``MPI_Wtime`` (simulated seconds)."""
        index = self._import_index["env.MPI_Wtime"]
        [t] = self.instance.call_function(index, [])
        return float(t)

    def send(self, buf: int, count: int, datatype: int, dest: int, tag: int,
             comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Send``."""
        return self._call("MPI_Send", buf, count, datatype, dest, tag, comm)

    def recv(self, buf: int, count: int, datatype: int, source: int, tag: int,
             comm: int = abi.MPI_COMM_WORLD) -> Dict[str, int]:
        """``MPI_Recv``; returns the decoded ``MPI_Status``."""
        self._call("MPI_Recv", buf, count, datatype, source, tag, comm, self._scratch_status)
        return self.read_status(self._scratch_status)

    def sendrecv(self, sendbuf: int, sendcount: int, sendtype: int, dest: int, sendtag: int,
                 recvbuf: int, recvcount: int, recvtype: int, source: int, recvtag: int,
                 comm: int = abi.MPI_COMM_WORLD) -> Dict[str, int]:
        """``MPI_Sendrecv``; returns the decoded ``MPI_Status``."""
        self._call("MPI_Sendrecv", sendbuf, sendcount, sendtype, dest, sendtag,
                   recvbuf, recvcount, recvtype, source, recvtag, comm, self._scratch_status)
        return self.read_status(self._scratch_status)

    def isend(self, buf: int, count: int, datatype: int, dest: int, tag: int,
              comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Isend``; returns the guest request handle."""
        self._call("MPI_Isend", buf, count, datatype, dest, tag, comm, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4))

    def irecv(self, buf: int, count: int, datatype: int, source: int, tag: int,
              comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Irecv``; returns the guest request handle."""
        self._call("MPI_Irecv", buf, count, datatype, source, tag, comm, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4))

    def wait(self, request_handle: int) -> Dict[str, int]:
        """``MPI_Wait`` on a guest request handle."""
        memory = self.instance.exported_memory()
        memory.store_int(self._scratch_i32, request_handle, 4)
        self._call("MPI_Wait", self._scratch_i32, self._scratch_status)
        return self.read_status(self._scratch_status)

    def test(self, request_handle: int) -> Tuple[bool, Optional[Dict[str, int]]]:
        """``MPI_Test`` on a guest request handle (never blocks).

        Returns ``(flag, status)``; when ``flag`` is true the request has
        completed and been released host side -- treat the handle as
        ``MPI_REQUEST_NULL`` from then on, exactly like the C API.  When
        false, ``status`` is ``None`` (the standard leaves it undefined).
        """
        memory = self.instance.exported_memory()
        memory.store_int(self._scratch_i32, request_handle, 4)
        flag_ptr = self._scratch_i32 + 4
        self._call("MPI_Test", self._scratch_i32, flag_ptr, self._scratch_status)
        flag = bool(memory.load_int(flag_ptr, 4))
        if not flag:
            return False, None
        return True, self.read_status(self._scratch_status)

    def waitany(self, request_handles: Sequence[int]) -> Tuple[int, Dict[str, int]]:
        """``MPI_Waitany`` on guest request handles.

        Returns ``(index, status)``; the completed handle is released host
        side (``MPI_UNDEFINED`` index when no handle was active).  Callers
        iterating should treat the returned slot as ``MPI_REQUEST_NULL`` from
        then on, exactly like the C API.
        """
        memory = self.instance.exported_memory()
        n = len(request_handles)
        arr_ptr = self.malloc(max(4 * n, 4))
        write_handle_array(memory, arr_ptr, request_handles)
        self._call("MPI_Waitany", n, arr_ptr, self._scratch_i32, self._scratch_status)
        index = int(memory.load_int(self._scratch_i32, 4, signed=True))
        self.free(arr_ptr)
        return index, self.read_status(self._scratch_status)

    def testall(self, request_handles: Sequence[int]) -> Tuple[bool, List[Dict[str, int]]]:
        """``MPI_Testall`` on guest request handles.

        Returns ``(flag, statuses)``; when ``flag`` is true every handle has
        been completed and released, and ``statuses`` has one entry per
        handle.  When false, ``statuses`` is empty (the standard leaves them
        undefined).
        """
        memory = self.instance.exported_memory()
        n = len(request_handles)
        arr_ptr = self.malloc(max(4 * n, 4))
        statuses_ptr = self.malloc(max(abi.STATUS_SIZE_BYTES * n, 4))
        write_handle_array(memory, arr_ptr, request_handles)
        self._call("MPI_Testall", n, arr_ptr, self._scratch_i32, statuses_ptr)
        flag = bool(memory.load_int(self._scratch_i32, 4))
        statuses = (
            [self.read_status(statuses_ptr + abi.STATUS_SIZE_BYTES * i) for i in range(n)]
            if flag
            else []
        )
        self.free(statuses_ptr)
        self.free(arr_ptr)
        return flag, statuses

    def _nbc_call(self, name: str, *args) -> int:
        """Issue a non-blocking collective import; returns the request handle."""
        self._call(name, *args, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4))

    # One definition per collective: its guest-side signature, which is also
    # the argument order of the import (see ``_entry_points``).

    def _define_barrier(call, name):
        def barrier(self, comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, comm)
        return barrier

    def _define_bcast(call, name):
        def bcast(self, buf: int, count: int, datatype: int, root: int,
                  comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, buf, count, datatype, root, comm)
        return bcast

    def _define_reduce(call, name):
        def reduce(self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int,
                   root: int, comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, sendbuf, recvbuf, count, datatype, op, root, comm)
        return reduce

    def _define_allreduce(call, name):
        def allreduce(self, sendbuf: int, recvbuf: int, count: int, datatype: int, op: int,
                      comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, sendbuf, recvbuf, count, datatype, op, comm)
        return allreduce

    def _define_rooted_blocks(call, name):
        def blocks(self, sendbuf: int, sendcount: int, sendtype: int, recvbuf: int,
                   recvcount: int, recvtype: int, root: int,
                   comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
                        root, comm)
        return blocks

    def _define_blocks(call, name):
        def blocks(self, sendbuf: int, sendcount: int, sendtype: int, recvbuf: int,
                   recvcount: int, recvtype: int, comm: int = abi.MPI_COMM_WORLD) -> int:
            return call(self, name, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
                        comm)
        return blocks

    _pair = functools.partial(_entry_points, _call, _nbc_call)
    barrier, ibarrier = _pair("barrier", _define_barrier)
    bcast, ibcast = _pair("bcast", _define_bcast)
    reduce, ireduce = _pair("reduce", _define_reduce)
    allreduce, iallreduce = _pair("allreduce", _define_allreduce)
    gather, igather = _pair("gather", _define_rooted_blocks)
    scatter, iscatter = _pair("scatter", _define_rooted_blocks)
    allgather, iallgather = _pair("allgather", _define_blocks)
    alltoall, ialltoall = _pair("alltoall", _define_blocks)

    def comm_split(self, comm: int, color: int, key: int) -> int:
        """``MPI_Comm_split``; returns the new guest communicator handle."""
        self._call("MPI_Comm_split", comm, color & 0xFFFFFFFF, key, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4, signed=True))

    def comm_dup(self, comm: int) -> int:
        """``MPI_Comm_dup``; returns the new guest communicator handle."""
        self._call("MPI_Comm_dup", comm, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4, signed=True))

    def alloc_mem(self, nbytes: int) -> int:
        """``MPI_Alloc_mem`` (routed through the module's exported malloc)."""
        self._call("MPI_Alloc_mem", nbytes, abi.MPI_INFO_NULL, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4))

    def free_mem(self, guest_ptr: int) -> int:
        """``MPI_Free_mem``."""
        return self._call("MPI_Free_mem", guest_ptr)

    def read_status(self, status_ptr: int) -> Dict[str, int]:
        """Decode a guest ``MPI_Status`` structure."""
        memory = self.instance.exported_memory()
        return {
            "source": int(memory.load_int(status_ptr + abi.STATUS_SOURCE_OFFSET, 4, signed=True)),
            "tag": int(memory.load_int(status_ptr + abi.STATUS_TAG_OFFSET, 4, signed=True)),
            "error": int(memory.load_int(status_ptr + abi.STATUS_ERROR_OFFSET, 4, signed=True)),
            "count_bytes": int(memory.load_int(status_ptr + abi.STATUS_COUNT_OFFSET, 4, signed=True)),
        }

    # ------------------------------------------------------------ Wasm kernels

    def call_kernel(self, export_name: str, *args) -> List:
        """Invoke a Wasm-defined kernel function exported by the module."""
        return self.instance.invoke(export_name, *args)

    # --------------------------------------------------------------- simulation

    def set_collective_algorithm(self, collective: str, algorithm: Optional[str]) -> None:
        """Force the algorithm used for one collective (``None`` restores the
        decision table).

        A simulator-side hook, not an MPI call: it is the in-run equivalent of
        relaunching the job with ``REPRO_COLL_ALGO=collective:algorithm``.
        Because the selector is shared by all ranks, call it at a point where
        every rank is synchronised (e.g. straight after a barrier) and from
        every rank, so each rank's subsequent collectives agree.
        """
        self.env.runtime.world.collectives.force(collective, algorithm)

    def collective_algorithm(self, collective: str) -> Optional[str]:
        """The algorithm currently forced for ``collective`` (None = table)."""
        return self.env.runtime.world.collectives.forced().get(collective)

    def compute(self, seconds: float) -> None:
        """Advance this rank's virtual clock by modelled compute time.

        Guests use this to account for work whose wall-clock cost is modelled
        (e.g. the per-iteration FLOP count of HPCG at figure scale) rather
        than executed instruction-by-instruction.
        """
        if seconds > 0:
            self.env.runtime.ctx.advance(seconds)

    def record_nbc_overlap(self, collective: str, overlap: float) -> None:
        """Record one communication/computation overlap sample (0..1).

        The IMB-NBC style benchmark calls this per iteration; samples land in
        this instance's metrics and are merged into the job's registry.
        """
        self.env.metrics.record_nbc_overlap(collective, overlap)
