"""The embedder's per-instance ``Env`` state (§3.7).

MPIWasm keeps one ``Env`` structure per executing module holding everything
its import implementations need: the module's memory base (for address
translation), the handle tables mapping guest integers to host MPI objects
(communicators, requests), the host MPI runtime for this rank, the WASI
environment, and the instrumentation that the datatype-translation experiment
(Figure 6) reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import EmbedderConfig, TranslationOverheadModel
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import Datatype
from repro.mpi.errors import InvalidCommunicatorError, InvalidDatatypeError, InvalidOpError
from repro.mpi.ops import Op
from repro.mpi.runtime import MPIRuntime
from repro.mpi.status import Request
from repro.sim.metrics import MetricsRegistry
from repro.toolchain import mpi_header as abi
from repro.wasi.snapshot_preview1 import WasiEnvironment


class HandleTable:
    """Maps guest integer handles to host objects (and back).

    MPIWasm "internally uses IDs to identify data structures that it creates
    on behalf of the module" (§3.6); this is that table.  Handles start at a
    configurable base so predefined guest constants (``MPI_COMM_WORLD`` = 0,
    ``MPI_COMM_SELF`` = 1) never collide with dynamically created ones.
    """

    def __init__(self, first_handle: int):
        self._next = first_handle
        self._objects: Dict[int, object] = {}

    def register(self, obj: object) -> int:
        """Store ``obj`` and return its fresh guest handle."""
        handle = self._next
        self._next += 1
        self._objects[handle] = obj
        return handle

    def lookup(self, handle: int) -> object:
        """Host object for ``handle`` (KeyError if unknown)."""
        return self._objects[handle]

    def contains(self, handle: int) -> bool:
        """Whether the handle is live."""
        return handle in self._objects

    def release(self, handle: int) -> None:
        """Drop a handle (idempotent)."""
        self._objects.pop(handle, None)

    def __len__(self) -> int:
        return len(self._objects)


@dataclass
class Env:
    """Global state of one embedder instance (one MPI rank running one module)."""

    runtime: MPIRuntime
    config: EmbedderConfig
    wasi: WasiEnvironment
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    comms: HandleTable = field(default_factory=lambda: HandleTable(abi.FIRST_USER_COMM))
    requests: HandleTable = field(default_factory=lambda: HandleTable(1))
    #: Number of MPI calls the module has made (per function name).
    call_counts: Dict[str, int] = field(default_factory=dict)
    finalized: bool = False
    #: (import name, datatype name, datatype args) -> the ``add`` of each
    #: metric series :meth:`charge_overhead` records into, resolved on first use.
    _overhead_sinks: Dict[Tuple[str, str, int], Tuple[Callable[[float], None], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    HOST_STATE_KEY = "mpiwasm.env"

    # ------------------------------------------------------------ communicator

    def resolve_comm(self, guest_handle: int) -> Communicator:
        """Translate a guest communicator handle into the host communicator."""
        if guest_handle == abi.MPI_COMM_WORLD:
            return self.runtime.comm_world
        if guest_handle == abi.MPI_COMM_SELF:
            return self.runtime.comm_self
        try:
            return self.comms.lookup(guest_handle)
        except KeyError:
            raise InvalidCommunicatorError(
                f"unknown guest communicator handle {guest_handle}") from None

    def register_comm(self, comm: Communicator) -> int:
        """Store a newly created communicator; returns its guest handle."""
        return self.comms.register(comm)

    def resolve_datatype(self, guest_handle: int) -> Datatype:
        """Translate a guest datatype handle into the host datatype object."""
        datatype = abi.HOST_DATATYPES.get(guest_handle)
        if datatype is None:
            raise InvalidDatatypeError(f"unknown guest datatype handle {guest_handle}")
        return datatype

    def resolve_op(self, guest_handle: int) -> Op:
        """Translate a guest reduction-op handle into the host op object."""
        op = abi.HOST_OPS.get(guest_handle)
        if op is None:
            raise InvalidOpError(f"unknown guest op handle {guest_handle}")
        return op

    # -------------------------------------------------------------- accounting

    def note_call(self, name: str) -> None:
        """Count one MPI call made by the module."""
        self.call_counts[name] = self.call_counts.get(name, 0) + 1

    def charge_overhead(self, name: str, datatype_name: str, message_bytes: int,
                        n_datatype_args: int = 1) -> float:
        """Charge the embedder's translation overhead for one MPI call.

        Advances the rank's virtual clock, records the datatype translation
        sample for Figure 6, and returns the charged time in seconds.
        """
        overheads: TranslationOverheadModel = self.config.overheads
        cost = overheads.call_cost(n_datatype_args, datatype_name, message_bytes)
        self.runtime.ctx.advance(cost)
        key = (name, datatype_name, n_datatype_args)
        sinks = self._overhead_sinks.get(key)
        if sinks is None:
            # Series are created in the order they are first recorded into,
            # which is the order a snapshot lists them in.
            names = ((f"embedder.translation.{datatype_name}", "embedder.translation.all")
                     if n_datatype_args else ())
            sinks = self._overhead_sinks[key] = tuple(
                self.metrics.series(series).add
                for series in (*names, f"embedder.call_overhead.{name}"))
        if n_datatype_args:
            per_type = overheads.datatype_cost(datatype_name, message_bytes)
            sinks[0](per_type)
            sinks[1](per_type)
        sinks[-1](cost)
        return cost
