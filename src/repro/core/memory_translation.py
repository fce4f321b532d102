"""Wasm <-> host memory address translation (§3.5).

The guest only holds 32-bit offsets into its linear memory; the host MPI
library needs buffers it can read and write directly.  MPIWasm records the
module's memory base address and converts guest pointers by plain offset
arithmetic, handing the host library a pointer *into* the module's memory --
no copy is made in either direction ("zero-copy memory operations").

The Python analogue of a host pointer is a writable ``memoryview`` obtained
from the module's :class:`repro.wasm.memory.LinearMemory`.  The translation is
bounds-checked exactly as §3.5 argues it must be ("since the size of the
linear memory is always known, MPIWasm can perform runtime bound checks for
all memory accesses"), so a malicious or buggy guest pointer can never expose
embedder memory.
"""

from __future__ import annotations

import numpy as np

from repro.wasm.errors import MemoryOutOfBoundsTrap
from repro.wasm.memory import LinearMemory


class AddressTranslator:
    """Translates guest (wasm32) pointers to host buffer views and back."""

    def __init__(self, memory: LinearMemory):
        self.memory = memory

    # ---------------------------------------------------------------- to host

    def to_host(self, guest_ptr: int, nbytes: int) -> memoryview:
        """Writable host view of ``nbytes`` at guest address ``guest_ptr``.

        Raises :class:`MemoryOutOfBoundsTrap` when the range does not lie
        inside the module's linear memory -- the embedder-side bound check.
        """
        if guest_ptr < 0 or guest_ptr > 0xFFFFFFFF or nbytes < 0:
            raise MemoryOutOfBoundsTrap(guest_ptr, nbytes, self.memory.size)
        return self.memory.view(guest_ptr, nbytes)

    def to_host_ndarray(self, guest_ptr: int, count: int, dtype) -> np.ndarray:
        """Zero-copy NumPy view of ``count`` elements at ``guest_ptr``."""
        return self.memory.ndarray(guest_ptr, count, dtype)

    # -------------------------------------------------------------- from host

    def from_host(self, view: memoryview) -> int:
        """Guest address of a view previously produced by :meth:`to_host`.

        The real embedder subtracts the module's base pointer; here the
        equivalent is locating the view's offset inside the linear memory
        buffer.  Only views created by :meth:`to_host` are valid arguments.
        """
        base = self.memory.view(0, self.memory.size)
        if view.nbytes == 0:
            return 0
        # memoryview does not expose its offset directly; recover it through
        # the buffer protocol by comparing addresses via the ctypes-free route.
        target = np.frombuffer(view, dtype=np.uint8)
        whole = np.frombuffer(base, dtype=np.uint8)
        offset = target.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
        if offset < 0 or offset + view.nbytes > self.memory.size:
            raise MemoryOutOfBoundsTrap(offset, view.nbytes, self.memory.size)
        return int(offset)

    # ------------------------------------------------------------------ checks

    def is_zero_copy(self, guest_ptr: int, nbytes: int) -> bool:
        """Verify that :meth:`to_host` aliases the module memory (no copy).

        Used by tests to assert the zero-copy property: writing through the
        returned view must be visible to the guest immediately.
        """
        if nbytes == 0:
            return True
        view = self.to_host(guest_ptr, nbytes)
        original = self.memory.read(guest_ptr, 1)
        probe = (original[0] ^ 0xFF) & 0xFF
        view[0] = probe
        visible = self.memory.read(guest_ptr, 1)[0] == probe
        view[0] = original[0]
        return visible


# --------------------------------------------------------- bulk handle arrays
#
# MPI array calls (Waitall/Testall/Waitany) move arrays of 32-bit guest
# handles across the boundary.  These helpers replace the per-element
# ``load_int``/``store_int`` loops with one vectorized NumPy cast over the
# whole array; handles are little-endian u32 regardless of host endianness.

_HANDLE_DTYPE = np.dtype("<u4")


def read_handle_array(memory: LinearMemory, guest_ptr: int, count: int) -> np.ndarray:
    """Bulk-read ``count`` guest u32 handles as a host-owned copy."""
    if count <= 0:
        return np.empty(0, dtype=_HANDLE_DTYPE)
    return memory.ndarray(guest_ptr, count, _HANDLE_DTYPE).copy()


def write_handle_array(memory: LinearMemory, guest_ptr: int, values) -> None:
    """Bulk-write u32 handles into guest memory in one vectorized store."""
    arr = np.asarray(values, dtype=_HANDLE_DTYPE)
    if arr.size == 0:
        return
    memory.ndarray(guest_ptr, arr.size, _HANDLE_DTYPE)[:] = arr
