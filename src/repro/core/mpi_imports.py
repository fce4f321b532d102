"""Implementations of the ``env.MPI_*`` imports (§3.7).

For every function of the guest MPI ABI (:mod:`repro.toolchain.mpi_header`)
this module registers a host function that

1. charges the embedder's trampoline + translation overhead to the rank's
   virtual clock (the quantities Figure 6 measures),
2. translates guest handles (communicators, datatypes, ops, requests) to host
   objects through the per-instance :class:`repro.core.env.Env`,
3. translates guest buffer pointers to zero-copy host views of the module's
   linear memory (§3.5),
4. defers the actual operation to the host MPI library
   (:class:`repro.mpi.runtime.MPIRuntime`), and
5. writes results (statuses, output handles) back into guest memory, returning
   ``MPI_SUCCESS`` or the appropriate error code as an ``i32``.

``MPI_Alloc_mem``/``MPI_Free_mem`` are the exception described in §3.7: they
are implemented by calling the module's own exported ``malloc``/``free`` so
the returned address lies inside the module's 32-bit address space.

The host functions use only ``exported_memory()``, ``host_state``,
``has_export`` and ``invoke("malloc"|"free")`` of the instance they are
handed, so native mode runs them over a
:class:`repro.core.guest_api.HostHeap` instead, with the ``Env``'s
translation costs off.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from repro.core.env import Env
from repro.core.memory_translation import (
    AddressTranslator,
    read_handle_array,
    write_handle_array,
)
from repro.mpi.algorithms.registry import CONTRACTS
from repro.mpi.errors import MPIError
from repro.mpi.pt2pt import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.runtime import MPIRuntime
from repro.mpi.status import Request, Status
from repro.toolchain import mpi_header as abi
from repro.wasm.runtime import HostFunction, ImportObject, Instance
from repro.wasm.types import FuncType

ENV_NAMESPACE = "env"


def _env_of(instance: Instance) -> Env:
    env = instance.host_state.get(Env.HOST_STATE_KEY)
    if env is None:
        raise MPIError("module instance has no MPIWasm Env attached")
    return env


def _translator(instance: Instance) -> AddressTranslator:
    translator = instance.host_state.get("mpiwasm.translator")
    if translator is None:
        translator = AddressTranslator(instance.exported_memory())
        instance.host_state["mpiwasm.translator"] = translator
    return translator


def _guest_source(value: int) -> int:
    """Map guest wildcard/sentinel source ranks to host-side values."""
    if value == abi.MPI_ANY_SOURCE:
        return ANY_SOURCE
    if value == abi.MPI_PROC_NULL:
        return PROC_NULL
    return value


def _guest_tag(value: int) -> int:
    return ANY_TAG if value == abi.MPI_ANY_TAG else value


def _signed(value: int) -> int:
    """Interpret a u32 from Wasm as a signed C int."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


def _write_status(instance: Instance, status_ptr: int, status: Status) -> None:
    """Write an ``MPI_Status`` structure into guest memory (if requested)."""
    if status_ptr in (0, abi.MPI_STATUS_IGNORE):
        return
    instance.exported_memory().store_struct(
        status_ptr, abi.STATUS_WORDS, status.source & 0xFFFFFFFF, status.tag & 0xFFFFFFFF,
        status.error & 0xFFFFFFFF, status.count_bytes & 0xFFFFFFFF)


def _live_requests(env: Env, memory, requests_ptr: int, count: int):
    """Collect the live host requests of a guest ``MPI_Request`` array.

    Returns ``(requests, slots)`` where ``slots[i]`` is the array index of
    ``requests[i]``; null and stale handles are skipped, as the array
    functions require.
    """
    requests: List[Request] = []
    slots: List[int] = []
    # One bulk read of the whole handle array, then a pure-Python filter --
    # the guest memory round trip is vectorized, the liveness check is not.
    for i, handle in enumerate(read_handle_array(memory, requests_ptr, count)):
        handle = int(handle)
        if handle == abi.MPI_REQUEST_NULL or not env.requests.contains(handle):
            continue
        requests.append(env.requests.lookup(handle))
        slots.append(i)
    return requests, slots


def _wrap(env_fn: Callable) -> Callable:
    """Convert host-side MPI exceptions into guest-visible error codes."""

    def wrapper(instance: Instance, *args):
        try:
            return env_fn(instance, *args)
        except KeyError:
            return abi.MPI_ERR_OTHER
        except MPIError as exc:
            return getattr(exc, "code", abi.MPI_ERR_OTHER) or abi.MPI_ERR_OTHER

    return wrapper


def build_mpi_imports() -> Dict[str, Callable]:
    """Build the table of host implementations keyed by import name."""

    impl: Dict[str, Callable] = {}

    def define(name: str):
        def decorator(fn: Callable) -> Callable:
            impl[name] = _wrap(fn)
            return fn

        return decorator

    # ------------------------------------------------------------ init / meta

    @define("MPI_Init")
    def mpi_init(instance, argc_ptr, argv_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Init")
        env.charge_overhead("MPI_Init", "MPI_BYTE", 0, n_datatype_args=0)
        env.runtime.init()
        return abi.MPI_SUCCESS

    @define("MPI_Initialized")
    def mpi_initialized(instance, flag_ptr):
        env = _env_of(instance)
        instance.exported_memory().store_int(flag_ptr, 1 if env.runtime.is_initialized() else 0, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Finalize")
    def mpi_finalize(instance):
        env = _env_of(instance)
        env.note_call("MPI_Finalize")
        env.charge_overhead("MPI_Finalize", "MPI_BYTE", 0, n_datatype_args=0)
        env.runtime.finalize()
        env.finalized = True
        return abi.MPI_SUCCESS

    @define("MPI_Abort")
    def mpi_abort(instance, comm_handle, errorcode):
        env = _env_of(instance)
        env.note_call("MPI_Abort")
        env.runtime.abort(errorcode=_signed(errorcode))
        return abi.MPI_SUCCESS  # pragma: no cover - abort raises

    @define("MPI_Comm_rank")
    def mpi_comm_rank(instance, comm_handle, rank_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Comm_rank")
        env.charge_overhead("MPI_Comm_rank", "MPI_BYTE", 0, n_datatype_args=0)
        comm = env.resolve_comm(_signed(comm_handle))
        instance.exported_memory().store_int(rank_ptr, env.runtime.comm_rank(comm), 4)
        return abi.MPI_SUCCESS

    @define("MPI_Comm_size")
    def mpi_comm_size(instance, comm_handle, size_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Comm_size")
        env.charge_overhead("MPI_Comm_size", "MPI_BYTE", 0, n_datatype_args=0)
        comm = env.resolve_comm(_signed(comm_handle))
        instance.exported_memory().store_int(size_ptr, env.runtime.comm_size(comm), 4)
        return abi.MPI_SUCCESS

    @define("MPI_Get_processor_name")
    def mpi_get_processor_name(instance, name_ptr, resultlen_ptr):
        env = _env_of(instance)
        name = env.runtime.get_processor_name()[: abi.MPI_MAX_PROCESSOR_NAME - 1]
        written = instance.exported_memory().write_cstring(name_ptr, name)
        instance.exported_memory().store_int(resultlen_ptr, written - 1, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Wtime")
    def mpi_wtime(instance):
        env = _env_of(instance)
        return env.runtime.wtime()

    @define("MPI_Wtick")
    def mpi_wtick(instance):
        env = _env_of(instance)
        return env.runtime.wtick()

    @define("MPI_Type_size")
    def mpi_type_size(instance, datatype_handle, size_ptr):
        env = _env_of(instance)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        instance.exported_memory().store_int(size_ptr, datatype.size, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Get_count")
    def mpi_get_count(instance, status_ptr, datatype_handle, count_ptr):
        env = _env_of(instance)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        count_bytes = instance.exported_memory().load_int(status_ptr + abi.STATUS_COUNT_OFFSET, 4)
        count = count_bytes // datatype.size if datatype.size else 0
        instance.exported_memory().store_int(count_ptr, count, 4)
        return abi.MPI_SUCCESS

    # ------------------------------------------------------------ point-to-point

    def _register_request(instance, env, request, request_ptr) -> int:
        handle = env.requests.register(request)
        instance.exported_memory().store_int(request_ptr, handle, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Send")
    def mpi_send(instance, buf, count, datatype_handle, dest, tag, comm_handle):
        env = _env_of(instance)
        env.note_call("MPI_Send")
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        nbytes = count * datatype.size
        env.charge_overhead("MPI_Send", datatype.name, nbytes)
        comm = env.resolve_comm(_signed(comm_handle))
        view = _translator(instance).to_host(buf, nbytes)
        env.runtime.send(view, count, datatype, _guest_source(_signed(dest)), _signed(tag), comm)
        return abi.MPI_SUCCESS

    @define("MPI_Recv")
    def mpi_recv(instance, buf, count, datatype_handle, source, tag, comm_handle, status_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Recv")
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        nbytes = count * datatype.size
        env.charge_overhead("MPI_Recv", datatype.name, nbytes)
        comm = env.resolve_comm(_signed(comm_handle))
        view = _translator(instance).to_host(buf, nbytes)
        status = env.runtime.recv(
            view, count, datatype, _guest_source(_signed(source)), _guest_tag(_signed(tag)), comm
        )
        _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    @define("MPI_Sendrecv")
    def mpi_sendrecv(
        instance,
        sendbuf, sendcount, sendtype_handle, dest, sendtag,
        recvbuf, recvcount, recvtype_handle, source, recvtag,
        comm_handle, status_ptr,
    ):
        env = _env_of(instance)
        env.note_call("MPI_Sendrecv")
        sendcount = _signed(sendcount)
        recvcount = _signed(recvcount)
        sendtype = env.resolve_datatype(_signed(sendtype_handle))
        recvtype = env.resolve_datatype(_signed(recvtype_handle))
        send_bytes = sendcount * sendtype.size
        env.charge_overhead("MPI_Sendrecv", sendtype.name, send_bytes, n_datatype_args=2)
        comm = env.resolve_comm(_signed(comm_handle))
        translator = _translator(instance)
        send_view = translator.to_host(sendbuf, send_bytes)
        recv_view = translator.to_host(recvbuf, recvcount * recvtype.size)
        status = env.runtime.sendrecv(
            send_view, sendcount, sendtype, _guest_source(_signed(dest)), _signed(sendtag),
            recv_view, recvcount, recvtype, _guest_source(_signed(source)), _guest_tag(_signed(recvtag)),
            comm,
        )
        _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    @define("MPI_Isend")
    def mpi_isend(instance, buf, count, datatype_handle, dest, tag, comm_handle, request_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Isend")
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        nbytes = count * datatype.size
        env.charge_overhead("MPI_Isend", datatype.name, nbytes)
        comm = env.resolve_comm(_signed(comm_handle))
        view = _translator(instance).to_host(buf, nbytes)
        request = env.runtime.isend(view, count, datatype, _guest_source(_signed(dest)), _signed(tag), comm)
        return _register_request(instance, env, request, request_ptr)

    @define("MPI_Irecv")
    def mpi_irecv(instance, buf, count, datatype_handle, source, tag, comm_handle, request_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Irecv")
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        nbytes = count * datatype.size
        env.charge_overhead("MPI_Irecv", datatype.name, nbytes)
        comm = env.resolve_comm(_signed(comm_handle))
        view = _translator(instance).to_host(buf, nbytes)
        request = env.runtime.irecv(
            view, count, datatype, _guest_source(_signed(source)), _guest_tag(_signed(tag)), comm
        )
        return _register_request(instance, env, request, request_ptr)

    @define("MPI_Test")
    def mpi_test(instance, request_ptr, flag_ptr, status_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Test")
        env.charge_overhead("MPI_Test", "MPI_BYTE", 0, n_datatype_args=0)
        memory = instance.exported_memory()
        handle = memory.load_int(request_ptr, 4)
        if handle == abi.MPI_REQUEST_NULL or not env.requests.contains(handle):
            # Null/stale requests test as complete with an empty status.
            memory.store_int(flag_ptr, 1, 4)
            _write_status(instance, status_ptr, Status())
            return abi.MPI_SUCCESS
        request: Request = env.requests.lookup(handle)
        flag, status = env.runtime.test(request)
        memory.store_int(flag_ptr, 1 if flag else 0, 4)
        if flag:
            env.requests.release(handle)
            memory.store_int(request_ptr, abi.MPI_REQUEST_NULL, 4)
            _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    @define("MPI_Wait")
    def mpi_wait(instance, request_ptr, status_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Wait")
        env.charge_overhead("MPI_Wait", "MPI_BYTE", 0, n_datatype_args=0)
        memory = instance.exported_memory()
        handle = memory.load_int(request_ptr, 4)
        if handle == abi.MPI_REQUEST_NULL or not env.requests.contains(handle):
            _write_status(instance, status_ptr, Status())
            return abi.MPI_SUCCESS
        request: Request = env.requests.lookup(handle)
        status = env.runtime.wait(request)
        env.requests.release(handle)
        memory.store_int(request_ptr, abi.MPI_REQUEST_NULL, 4)
        _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    @define("MPI_Waitall")
    def mpi_waitall(instance, count, requests_ptr, statuses_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Waitall")
        env.charge_overhead("MPI_Waitall", "MPI_BYTE", 0, n_datatype_args=0)
        memory = instance.exported_memory()
        count = _signed(count)
        handles = read_handle_array(memory, requests_ptr, count)
        for i, handle in enumerate(handles):
            handle = int(handle)
            if handle == abi.MPI_REQUEST_NULL or not env.requests.contains(handle):
                continue
            request: Request = env.requests.lookup(handle)
            status = env.runtime.wait(request)
            env.requests.release(handle)
            handles[i] = abi.MPI_REQUEST_NULL
            if statuses_ptr not in (0, abi.MPI_STATUS_IGNORE):
                _write_status(instance, statuses_ptr + abi.STATUS_SIZE_BYTES * i, status)
        # Null handles go back in one vectorized store, not N store_ints.
        write_handle_array(memory, requests_ptr, handles)
        return abi.MPI_SUCCESS

    @define("MPI_Waitany")
    def mpi_waitany(instance, count, requests_ptr, index_ptr, status_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Waitany")
        env.charge_overhead("MPI_Waitany", "MPI_BYTE", 0, n_datatype_args=0)
        memory = instance.exported_memory()
        count = _signed(count)
        live, slots = _live_requests(env, memory, requests_ptr, count)
        if not live:
            memory.store_int(index_ptr, abi.MPI_UNDEFINED & 0xFFFFFFFF, 4)
            _write_status(instance, status_ptr, Status())
            return abi.MPI_SUCCESS
        which, status = env.runtime.waitany(live)
        slot = slots[which]
        handle = memory.load_int(requests_ptr + 4 * slot, 4)
        env.requests.release(handle)
        memory.store_int(requests_ptr + 4 * slot, abi.MPI_REQUEST_NULL, 4)
        memory.store_int(index_ptr, slot & 0xFFFFFFFF, 4)
        _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    @define("MPI_Testall")
    def mpi_testall(instance, count, requests_ptr, flag_ptr, statuses_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Testall")
        env.charge_overhead("MPI_Testall", "MPI_BYTE", 0, n_datatype_args=0)
        memory = instance.exported_memory()
        count = _signed(count)
        live, slots = _live_requests(env, memory, requests_ptr, count)
        flag, statuses = env.runtime.testall(live)
        memory.store_int(flag_ptr, 1 if flag else 0, 4)
        if flag:
            # Release every completed request and write back null handles
            # plus the statuses at their original slots.
            by_slot = dict(zip(slots, statuses))
            for i, handle in enumerate(read_handle_array(memory, requests_ptr, count)):
                handle = int(handle)
                if handle != abi.MPI_REQUEST_NULL and env.requests.contains(handle):
                    env.requests.release(handle)
                if statuses_ptr not in (0, abi.MPI_STATUS_IGNORE):
                    _write_status(
                        instance,
                        statuses_ptr + abi.STATUS_SIZE_BYTES * i,
                        by_slot.get(i, Status()),
                    )
            if count > 0:
                # Null the whole handle array in one vectorized fill.
                translator = _translator(instance)
                translator.to_host_ndarray(requests_ptr, count, "<u4").fill(
                    abi.MPI_REQUEST_NULL
                )
        return abi.MPI_SUCCESS

    @define("MPI_Iprobe")
    def mpi_iprobe(instance, source, tag, comm_handle, flag_ptr, status_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Iprobe")
        comm = env.resolve_comm(_signed(comm_handle))
        found, status = env.runtime.iprobe(_guest_source(_signed(source)), _guest_tag(_signed(tag)), comm)
        instance.exported_memory().store_int(flag_ptr, 1 if found else 0, 4)
        if found:
            _write_status(instance, status_ptr, status)
        return abi.MPI_SUCCESS

    # --------------------------------------------------------------- collectives
    #
    # One decoder per collective turns the guest's arguments into those of
    # the runtime method: handles -> host objects, the embedder overhead
    # charged under the calling import's name, guest pointers -> resolvers
    # the runtime calls with the extent it needs (so no extent is computed
    # here, and a negative count is rejected before any pointer is
    # translated).  A NULL pointer for the buffer only the root uses becomes
    # None: "not supplied", MPI_ERR_BUFFER at the root.  MPI_<C> and MPI_I<c>
    # -- the same arguments plus the request slot -- are both registered from
    # the one decoder.

    def collective(name: str):
        run, post = getattr(MPIRuntime, name), getattr(MPIRuntime, "i" + name)
        blocking_name, nonblocking_name = CONTRACTS[name].mpi_names

        def decorator(decode: Callable) -> Callable:
            def blocking(instance, *args):
                env = _env_of(instance)
                env.note_call(blocking_name)
                run(env.runtime, *decode(instance, env, blocking_name, *args))
                return abi.MPI_SUCCESS

            def nonblocking(instance, *args):
                env = _env_of(instance)
                env.note_call(nonblocking_name)
                request = post(env.runtime, *decode(instance, env, nonblocking_name, *args[:-1]))
                return _register_request(instance, env, request, args[-1])

            impl[blocking_name] = _wrap(blocking)
            impl[nonblocking_name] = _wrap(nonblocking)
            return decode

        return decorator

    @collective("barrier")
    def decode_barrier(instance, env, name, comm_handle):
        env.charge_overhead(name, "MPI_BYTE", 0, n_datatype_args=0)
        return (env.resolve_comm(_signed(comm_handle)),)

    @collective("bcast")
    def decode_bcast(instance, env, name, buf, count, datatype_handle, root, comm_handle):
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        env.charge_overhead(name, datatype.name, count * datatype.size)
        comm = env.resolve_comm(_signed(comm_handle))
        return partial(_translator(instance).to_host, buf), count, datatype, _signed(root), comm

    @collective("reduce")
    def decode_reduce(instance, env, name, sendbuf, recvbuf, count, datatype_handle, op_handle,
                      root, comm_handle):
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        op = env.resolve_op(_signed(op_handle))
        env.charge_overhead(name, datatype.name, count * datatype.size)
        comm = env.resolve_comm(_signed(comm_handle))
        to_host = _translator(instance).to_host
        return (partial(to_host, sendbuf), partial(to_host, recvbuf) if recvbuf else None,
                count, datatype, op, _signed(root), comm)

    @collective("allreduce")
    def decode_allreduce(instance, env, name, sendbuf, recvbuf, count, datatype_handle,
                         op_handle, comm_handle):
        count = _signed(count)
        datatype = env.resolve_datatype(_signed(datatype_handle))
        op = env.resolve_op(_signed(op_handle))
        env.charge_overhead(name, datatype.name, count * datatype.size)
        comm = env.resolve_comm(_signed(comm_handle))
        to_host = _translator(instance).to_host
        return partial(to_host, sendbuf), partial(to_host, recvbuf), count, datatype, op, comm

    def typed_blocks(env, name, sendcount, sendtype_handle, recvcount, recvtype_handle,
                     charge_received=False):
        """The (count, datatype) pairs of the gather family; the overhead is
        charged for one block as sent (as received, for scatter)."""
        sendcount, recvcount = _signed(sendcount), _signed(recvcount)
        sendtype = env.resolve_datatype(_signed(sendtype_handle))
        recvtype = env.resolve_datatype(_signed(recvtype_handle))
        count, datatype = (recvcount, recvtype) if charge_received else (sendcount, sendtype)
        env.charge_overhead(name, datatype.name, count * datatype.size, n_datatype_args=2)
        return sendcount, sendtype, recvcount, recvtype

    @collective("gather")
    def decode_gather(instance, env, name, sendbuf, sendcount, sendtype_handle, recvbuf,
                      recvcount, recvtype_handle, root, comm_handle):
        sendcount, sendtype, recvcount, recvtype = typed_blocks(
            env, name, sendcount, sendtype_handle, recvcount, recvtype_handle)
        comm = env.resolve_comm(_signed(comm_handle))
        to_host = _translator(instance).to_host
        return (partial(to_host, sendbuf), sendcount, sendtype,
                partial(to_host, recvbuf) if recvbuf else None, recvcount, recvtype,
                _signed(root), comm)

    @collective("scatter")
    def decode_scatter(instance, env, name, sendbuf, sendcount, sendtype_handle, recvbuf,
                       recvcount, recvtype_handle, root, comm_handle):
        sendcount, sendtype, recvcount, recvtype = typed_blocks(
            env, name, sendcount, sendtype_handle, recvcount, recvtype_handle, charge_received=True)
        comm = env.resolve_comm(_signed(comm_handle))
        to_host = _translator(instance).to_host
        return (partial(to_host, sendbuf) if sendbuf else None, sendcount, sendtype,
                partial(to_host, recvbuf), recvcount, recvtype, _signed(root), comm)

    @collective("allgather")
    @collective("alltoall")
    def decode_all_blocks(instance, env, name, sendbuf, sendcount, sendtype_handle, recvbuf,
                          recvcount, recvtype_handle, comm_handle):
        sendcount, sendtype, recvcount, recvtype = typed_blocks(
            env, name, sendcount, sendtype_handle, recvcount, recvtype_handle)
        comm = env.resolve_comm(_signed(comm_handle))
        to_host = _translator(instance).to_host
        return (partial(to_host, sendbuf), sendcount, sendtype,
                partial(to_host, recvbuf), recvcount, recvtype, comm)

    # -------------------------------------------------------------- communicators

    @define("MPI_Comm_split")
    def mpi_comm_split(instance, comm_handle, color, key, newcomm_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Comm_split")
        env.charge_overhead("MPI_Comm_split", "MPI_BYTE", 0, n_datatype_args=0)
        comm = env.resolve_comm(_signed(comm_handle))
        new_comm = env.runtime.comm_split(comm, _signed(color), _signed(key))
        if new_comm is None:
            handle = abi.MPI_COMM_NULL
        else:
            handle = env.register_comm(new_comm)
        instance.exported_memory().store_int(newcomm_ptr, handle & 0xFFFFFFFF, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Comm_dup")
    def mpi_comm_dup(instance, comm_handle, newcomm_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Comm_dup")
        env.charge_overhead("MPI_Comm_dup", "MPI_BYTE", 0, n_datatype_args=0)
        comm = env.resolve_comm(_signed(comm_handle))
        new_comm = env.runtime.comm_dup(comm)
        handle = env.register_comm(new_comm)
        instance.exported_memory().store_int(newcomm_ptr, handle, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Comm_free")
    def mpi_comm_free(instance, comm_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Comm_free")
        memory = instance.exported_memory()
        handle = _signed(memory.load_int(comm_ptr, 4))
        if handle >= abi.FIRST_USER_COMM and env.comms.contains(handle):
            env.runtime.comm_free(env.comms.lookup(handle))
            env.comms.release(handle)
        memory.store_int(comm_ptr, abi.MPI_COMM_NULL & 0xFFFFFFFF, 4)
        return abi.MPI_SUCCESS

    # --------------------------------------------------------------------- memory

    @define("MPI_Alloc_mem")
    def mpi_alloc_mem(instance, size, info, baseptr_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Alloc_mem")
        env.charge_overhead("MPI_Alloc_mem", "MPI_BYTE", 0, n_datatype_args=0)
        if not instance.has_export("malloc"):
            return abi.MPI_ERR_OTHER
        # §3.7: defer to the module's own allocator so the address is a valid
        # 32-bit module address rather than a 64-bit host address.
        [guest_ptr] = instance.invoke("malloc", _signed(size))
        instance.exported_memory().store_int(baseptr_ptr, guest_ptr, 4)
        return abi.MPI_SUCCESS

    @define("MPI_Free_mem")
    def mpi_free_mem(instance, guest_ptr):
        env = _env_of(instance)
        env.note_call("MPI_Free_mem")
        if not instance.has_export("free"):
            return abi.MPI_ERR_OTHER
        instance.invoke("free", guest_ptr)
        return abi.MPI_SUCCESS

    return impl


def _build_host_functions() -> Dict[str, HostFunction]:
    implementations = build_mpi_imports()
    functions = {}
    for name, (params, results) in abi.MPI_SIGNATURES.items():
        fn = implementations.get(name)
        if fn is None:  # pragma: no cover - table integrity guard
            raise MPIError(f"no host implementation for {name}")
        functions[name] = HostFunction(
            name=f"{ENV_NAMESPACE}.{name}", func_type=FuncType.of(params, results), callable=fn
        )
    return functions


#: Every ``env.MPI_*`` import by name, built once at import time: the
#: implementations take the calling instance as their first argument and
#: close over nothing per rank, so all ranks -- and native mode's
#: ``GuestAPI``, which calls them directly -- share them.
MPI_HOST_FUNCTIONS = _build_host_functions()


def register_mpi_imports(imports: ImportObject) -> None:
    """Register all ``env.MPI_*`` host functions on an import object."""
    imports.register_module(ENV_NAMESPACE, MPI_HOST_FUNCTIONS)
