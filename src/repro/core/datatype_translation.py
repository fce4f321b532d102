"""MPI datatype/handle translation (§3.6) and its instrumentation (Figure 6).

The MPI standard does not fix an ABI: ``MPI_Datatype``, ``MPI_Op`` and
``MPI_Comm`` are whatever the host library says they are.  Because a Wasm
module must stay portable across MPI libraries *and* architectures, MPIWasm
presents all of these to the guest as 32-bit integers and translates them to
host objects on every call.  This module packages that translation together
with the latency bookkeeping that reproduces Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import TranslationOverheadModel
from repro.mpi import datatypes as host_datatypes
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op
from repro.sim.metrics import MetricsRegistry
from repro.toolchain import mpi_header as abi


class DatatypeTranslationError(KeyError):
    """A guest handle did not correspond to any known host object."""


# Inverted handle table so the host->guest direction is one dict probe, not a
# linear scan of GUEST_DATATYPE_NAMES per translated argument.
_GUEST_HANDLE_BY_NAME: Dict[str, int] = {
    name: handle for handle, name in abi.GUEST_DATATYPE_NAMES.items()
}


@dataclass
class DatatypeTranslator:
    """Stateless guest-handle -> host-object translation with latency tracking."""

    overheads: TranslationOverheadModel
    metrics: Optional[MetricsRegistry] = None

    # ------------------------------------------------------------- translation

    def datatype(self, guest_handle: int) -> Datatype:
        """Host datatype for a guest handle."""
        datatype = abi.HOST_DATATYPES.get(guest_handle)
        if datatype is None:
            raise DatatypeTranslationError(f"unknown guest datatype handle {guest_handle}")
        return datatype

    def op(self, guest_handle: int) -> Op:
        """Host reduction op for a guest handle."""
        op = abi.HOST_OPS.get(guest_handle)
        if op is None:
            raise DatatypeTranslationError(f"unknown guest op handle {guest_handle}")
        return op

    def guest_handle_for(self, datatype: Datatype) -> int:
        """Inverse translation (host datatype -> guest handle)."""
        handle = _GUEST_HANDLE_BY_NAME.get(datatype.name)
        if handle is None:
            raise DatatypeTranslationError(f"datatype {datatype.name} has no guest handle")
        return handle

    # --------------------------------------------------------------- bulk casts

    def as_ndarray(self, buffer, guest_handle: int, count: int) -> np.ndarray:
        """View a guest buffer as ``count`` elements of the handle's dtype.

        One ``np.frombuffer`` call replaces any per-element unpack loop: the
        returned array aliases ``buffer`` (zero-copy when ``buffer`` is a
        writable view of linear memory).
        """
        dt = self.datatype(guest_handle)
        return np.frombuffer(buffer, dtype=dt.numpy(), count=count)

    def cast_array(self, buffer, src_handle: int, dst_handle: int, count: int) -> np.ndarray:
        """Bulk-convert ``count`` elements between two guest datatypes.

        The whole buffer is reinterpreted and cast in two vectorized NumPy
        operations -- the replacement for element-at-a-time ``struct`` codec
        round-trips when staging mixed-type reduction buffers.
        """
        src = self.as_ndarray(buffer, src_handle, count)
        return src.astype(self.datatype(dst_handle).numpy(), copy=True)

    # ------------------------------------------------------------------ timing

    def translation_latency(self, datatype: Datatype, message_bytes: int) -> float:
        """Latency (seconds) of translating one datatype argument.

        This is the quantity Figure 6 reports per datatype and message size:
        a near-constant cost per datatype with a visible increase beyond the
        256 KiB threshold where acquiring the ``Env`` read lock starts to
        contend with the in-flight large-message path.
        """
        latency = self.overheads.datatype_cost(datatype.name, message_bytes)
        if self.metrics is not None:
            self.metrics.record(f"embedder.translation.{datatype.name}", latency)
            self.metrics.record("embedder.translation.all", latency)
        return latency

    def sweep(self, datatype_names: Tuple[str, ...], message_sizes: Tuple[int, ...]) -> Dict[str, Dict[int, float]]:
        """Latency table over datatypes and message sizes (Figure 6 series)."""
        table: Dict[str, Dict[int, float]] = {}
        for name in datatype_names:
            dt = host_datatypes.by_name(name)
            table[name] = {size: self.translation_latency(dt, size) for size in message_sizes}
        return table
