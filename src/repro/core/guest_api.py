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
  overhead accounting -- by calling the callable the instance bound for the
  import, the one a Wasm ``call`` of it reaches through
  ``Instance.call_function``,
* ``print`` goes through WASI ``fd_write`` to the captured stdout.

The one (documented) substitution is that the guest's own compute statements
run as Python instead of Wasm bytecode; compute *kernels* that matter for the
experiments (HPCG, Table 1) are provided as real Wasm functions through
``GuestProgram.build_kernels`` and invoked with :meth:`call_kernel`.

The same class is the guest interface of native mode (the paper's "Native"
series): there the "instance" is a :class:`HostHeap`, which binds the same
``env.MPI_*`` host functions to itself the same way, with the ``Env``'s
translation costs off, so the only difference between the two modes is the
embedder's Wasm call and translation overhead.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.env import Env
from repro.core.memory_translation import write_handle_array
from repro.core.mpi_imports import ENV_NAMESPACE, register_mpi_imports
from repro.mpi.algorithms.registry import CONTRACTS
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import HEAP_BASE
from repro.wasm.errors import LinkError
from repro.wasm.memory import PAGE_SIZE, LinearMemory
from repro.wasm.runtime import ImportObject, Instance
from repro.wasm.types import Limits, MemoryType


def _entry_points(call, nbc_call, collective: str, define):
    """``GuestAPI.<c>`` and ``GuestAPI.i<c>`` from one definition.

    ``define(call, name)`` returns the method: the collective's guest-side
    signature, whose arguments it hands to ``call`` in the import's order.
    It is instantiated with ``GuestAPI._call`` and ``MPI_<C>`` (returns the
    error code), and with ``GuestAPI._call_out`` and ``MPI_I<c>`` (the same
    arguments plus a request slot; returns the guest request handle).
    """
    blocking_name, nonblocking_name = CONTRACTS[collective].mpi_names
    blocking, nonblocking = define(call, blocking_name), define(nbc_call, nonblocking_name)
    blocking.__name__, nonblocking.__name__ = collective, "i" + collective
    blocking.__doc__ = f"``{blocking_name}``."
    nonblocking.__doc__ = f"``{nonblocking_name}``; returns the guest request handle."
    return blocking, nonblocking


class HostHeap:
    """Native mode's stand-in for a Wasm instance: no module, no Wasm code.

    It holds a linear memory sized like the guest program's (the ``Env``'s
    memory) and a host-side copy of wasicc's bump allocator (the heap starts
    at ``HEAP_BASE``, every allocation is 8-byte aligned, memory grows on
    demand, ``free`` does nothing).  It binds the ``env.MPI_*`` host
    functions to itself as an instance binds its imports
    (:meth:`host_call`), and offers what they use of an instance --
    ``exported_memory()``, ``has_export`` and ``invoke("malloc"|"free")`` --
    so they and the status write-back run unchanged.
    """

    def __init__(self, program: GuestProgram, env: Env):
        self.memory = env.memory = LinearMemory(
            MemoryType(Limits(program.memory_pages, program.max_memory_pages)))
        self.imports = ImportObject()
        register_mpi_imports(self.imports, env)
        self._top = HEAP_BASE

    def host_call(self, namespace: str, name: str) -> Callable:
        """``namespace.name`` bound to this heap (see ``Instance.host_call``)."""
        host = self.imports.lookup(namespace, name)
        if host is None:
            raise KeyError(f"module does not import {namespace}.{name}")
        return host.bind(self)

    def exported_memory(self) -> LinearMemory:
        """The heap's linear memory."""
        return self.memory

    def has_export(self, name: str) -> bool:
        """Only the allocator pair is "exported"."""
        return name in ("malloc", "free")

    def invoke(self, export_name: str, *args) -> List:
        """``malloc``/``free``; any other name raises :class:`LinkError`."""
        if export_name == "malloc":
            return [self._malloc(int(args[0]))]
        if export_name == "free":
            return []
        raise LinkError(f"native mode runs no Wasm: no function {export_name!r} to call")

    def _malloc(self, nbytes: int) -> int:
        ptr = (self._top + 7) & ~7
        self._top = ptr + nbytes
        if self._top > self.memory.size:
            # Like the Wasm allocator, a failed grow goes unnoticed here and
            # traps at the first access past the end.
            self.memory.grow(-(-(self._top - self.memory.size) // PAGE_SIZE))
        return ptr


class GuestAPI:
    """What a guest program can touch: its memory, MPI and WASI.

    ``instance`` is the rank's Wasm instance, or a :class:`HostHeap` in
    native mode.  :attr:`native` tells the two apart for guests whose code
    differs between the modes: a native guest has no Wasm kernels to call.
    """

    def __init__(self, instance: Union[Instance, HostHeap], env: Env):
        self.instance = instance
        self.env = env
        #: ``True`` in native mode: MPI calls skip the Wasm import and its
        #: translation costs, and :meth:`call_kernel` raises.
        self.native = isinstance(instance, HostHeap)
        #: ``env.MPI_*`` callables by name, each looked up on its first call.
        self._mpi: Dict[str, Callable] = {}
        self._scratch_status = self.malloc(abi.STATUS_SIZE_BYTES)
        self._scratch_i32 = self.malloc(16)
        # waitany/testall arrays: reused, as the guest allocator never frees.
        self._scratch_array, self._scratch_array_bytes = 0, 0

    # ------------------------------------------------------------------ memory

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` in linear memory via the module's Wasm ``malloc``."""
        [ptr] = self.instance.invoke("malloc", int(nbytes))
        return int(ptr)

    def free(self, guest_ptr: int) -> None:
        """Release an allocation via the module's Wasm ``free``."""
        self.instance.invoke("free", int(guest_ptr))

    def _array_scratch(self, nbytes: int) -> int:
        """Guest pointer to at least ``nbytes`` of reusable scratch memory."""
        if nbytes > self._scratch_array_bytes:
            self._scratch_array = self.malloc(nbytes)
            self._scratch_array_bytes = nbytes
        return self._scratch_array

    def view(self, guest_ptr: int, nbytes: int) -> memoryview:
        """Writable zero-copy byte view of guest memory."""
        return self.instance.exported_memory().view(guest_ptr, nbytes)

    def ndarray(self, guest_ptr: int, count: int, guest_datatype: int) -> np.ndarray:
        """Zero-copy NumPy view of ``count`` elements of a guest datatype
        (one whose NumPy dtype has its size: not ``MPI_LONG_DOUBLE``)."""
        datatype = abi.HOST_DATATYPES.get(guest_datatype)
        if datatype is None or datatype.numpy().itemsize != datatype.size:
            raise KeyError(f"no NumPy dtype for guest datatype handle {guest_datatype}")
        return self.instance.exported_memory().ndarray(guest_ptr, count, datatype.numpy())

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
        try:
            call = self._mpi[name]
        except KeyError:
            call = self._mpi[name] = self.instance.host_call(ENV_NAMESPACE, name)
        return call(*args)[0]

    def _call_out(self, name: str, *args, signed: bool = False) -> int:
        """Call an import whose last parameter is an ``int *`` it writes; returns
        that value (for ``MPI_I<c>``: the guest request handle)."""
        self._call(name, *args, self._scratch_i32)
        return int(self.instance.exported_memory().load_int(self._scratch_i32, 4, signed=signed))

    def mpi_init(self) -> int:
        """``MPI_Init(NULL, NULL)``."""
        return self._call("MPI_Init", 0, 0)

    def mpi_finalize(self) -> int:
        """``MPI_Finalize()``."""
        return self._call("MPI_Finalize")

    def rank(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_rank``."""
        return self._call_out("MPI_Comm_rank", comm, signed=True)

    def size(self, comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Comm_size``."""
        return self._call_out("MPI_Comm_size", comm, signed=True)

    def wtime(self) -> float:
        """``MPI_Wtime`` (simulated seconds)."""
        return float(self._call("MPI_Wtime"))

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
        return self._call_out("MPI_Isend", buf, count, datatype, dest, tag, comm)

    def irecv(self, buf: int, count: int, datatype: int, source: int, tag: int,
              comm: int = abi.MPI_COMM_WORLD) -> int:
        """``MPI_Irecv``; returns the guest request handle."""
        return self._call_out("MPI_Irecv", buf, count, datatype, source, tag, comm)

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
        arr_ptr = self._array_scratch(max(4 * n, 4))
        write_handle_array(memory, arr_ptr, request_handles)
        self._call("MPI_Waitany", n, arr_ptr, self._scratch_i32, self._scratch_status)
        index = int(memory.load_int(self._scratch_i32, 4, signed=True))
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
        arr_ptr = self._array_scratch(max((4 + abi.STATUS_SIZE_BYTES) * n, 4))
        statuses_ptr = arr_ptr + 4 * n
        write_handle_array(memory, arr_ptr, request_handles)
        self._call("MPI_Testall", n, arr_ptr, self._scratch_i32, statuses_ptr)
        flag = bool(memory.load_int(self._scratch_i32, 4))
        statuses = (
            [self.read_status(statuses_ptr + abi.STATUS_SIZE_BYTES * i) for i in range(n)]
            if flag
            else []
        )
        return flag, statuses

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

    _pair = functools.partial(_entry_points, _call, _call_out)
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
        return self._call_out("MPI_Comm_split", comm, color & 0xFFFFFFFF, key, signed=True)

    def comm_dup(self, comm: int) -> int:
        """``MPI_Comm_dup``; returns the new guest communicator handle."""
        return self._call_out("MPI_Comm_dup", comm, signed=True)

    def alloc_mem(self, nbytes: int) -> int:
        """``MPI_Alloc_mem`` (routed through the module's exported malloc)."""
        return self._call_out("MPI_Alloc_mem", nbytes, abi.MPI_INFO_NULL)

    def free_mem(self, guest_ptr: int) -> int:
        """``MPI_Free_mem``."""
        return self._call("MPI_Free_mem", guest_ptr)

    def read_status(self, status_ptr: int) -> Dict[str, int]:
        """Decode a guest ``MPI_Status`` structure."""
        source, tag, error, count_bytes = self.instance.exported_memory().load_struct(
            status_ptr, abi.STATUS_INTS)
        return {"source": source, "tag": tag, "error": error, "count_bytes": count_bytes}

    # ------------------------------------------------------------ Wasm kernels

    def call_kernel(self, export_name: str, *args) -> List:
        """Invoke a Wasm-defined kernel function exported by the module
        (native mode has none: :class:`HostHeap` raises ``LinkError``)."""
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
        the ``Env``'s metrics: the rank's, merged into the job's registry
        after the run, or in native mode the job's registry itself.
        """
        self.env.metrics.record_nbc_overlap(collective, overlap)
