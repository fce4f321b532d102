"""Linear memory with bounds-checked access.

A Wasm module's memory is a contiguous, byte-addressable array grown in
64 KiB pages, addressed with 32-bit offsets (which is why the paper notes the
4 GiB per-module limit, §3.8).  All loads and stores are bounds-checked and
raise :class:`MemoryOutOfBoundsTrap` on violation -- the software-fault-
isolation property of the Wasm sandbox.

The embedder's zero-copy path (§3.5) is exposed through :meth:`view`:
a writable ``memoryview`` of a region of the linear memory that can be handed
straight to the host MPI library, which is exactly how MPIWasm passes guest
buffers to OpenMPI without copying.

Storage is one anonymous private ``mmap`` that reserves the memory's declared
maximum up front, the way Wasmtime reserves linear memory:

* **The base never moves.**  ``memory.grow`` only raises the bound every
  access is checked against, so a view or ``ndarray`` handed out before a
  grow stays valid -- and sees later writes -- after it, for as long as the
  host holds it.
* **Pages are zeroed lazily.**  The kernel maps a page, zero-filled, on its
  first touch; creating a memory writes nothing, and pages the guest never
  uses cost address space, not resident memory.
* **The reservation caps growth.**  A memory without a declared maximum
  reserves :data:`DEFAULT_RESERVED_PAGES` (or its minimum, if larger); a host
  that refuses the reservation (strict overcommit) gets the minimum only.
  Growing past the reservation returns -1, which the spec allows
  ``memory.grow`` to answer at any time.
"""

from __future__ import annotations

import mmap
import struct

import numpy as np

from repro.wasm.errors import MemoryOutOfBoundsTrap, Trap
from repro.wasm.types import MemoryType

PAGE_SIZE = MemoryType.PAGE_SIZE

#: Pages reserved for a memory that declares no maximum: the toolchain's
#: default maximum, 256 MiB of address space.
DEFAULT_RESERVED_PAGES = 4096

# Pre-compiled scalar codecs: parsing "<f"/"<d" format strings on every load
# and store is measurable on the interpreter's hot path.
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


def _reserve(pages: int) -> mmap.mmap:
    """Anonymous private mapping of ``pages`` pages (at least one byte: an
    empty mapping is not allowed), zero-filled by the kernel on first touch."""
    return mmap.mmap(-1, pages * PAGE_SIZE or 1, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


class LinearMemory:
    """A bounds-checked linear memory that grows in place."""

    def __init__(self, memory_type: MemoryType):
        memory_type.validate()
        self.type = memory_type
        limits = memory_type.limits
        self._pages = limits.minimum
        reserved = (
            limits.maximum
            if limits.maximum is not None
            else max(DEFAULT_RESERVED_PAGES, limits.minimum)
        )
        try:
            self._buffer = _reserve(reserved)
        except OSError:
            reserved = limits.minimum
            self._buffer = _reserve(reserved)
        self._max_pages = reserved

    # ------------------------------------------------------------------- sizes

    @property
    def pages(self) -> int:
        """Current size in 64 KiB pages (``memory.size``)."""
        return self._pages

    @property
    def size(self) -> int:
        """Current size in bytes."""
        return self._pages * PAGE_SIZE

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``; returns the old page count or -1 on failure.

        The pages are already reserved, so growing moves nothing and copies
        nothing: it raises the bound :meth:`_check` enforces, and every view
        taken before stays valid.  A request past the reservation (the
        declared maximum, or the cap described in the module docstring)
        returns -1 and leaves the memory unchanged; it never raises.
        """
        if delta_pages < 0:
            return -1
        new_pages = self._pages + delta_pages
        if new_pages > self._max_pages:
            return -1
        old = self._pages
        self._pages = new_pages
        return old

    # ---------------------------------------------------------------- raw access

    def _check(self, address: int, nbytes: int) -> None:
        if address < 0 or nbytes < 0 or address + nbytes > self.size:
            raise MemoryOutOfBoundsTrap(address, nbytes, self.size)

    def read(self, address: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` out of memory (bounds-checked)."""
        self._check(address, nbytes)
        return self._buffer[address : address + nbytes]

    def write(self, address: int, data: bytes) -> None:
        """Copy ``data`` into memory (bounds-checked)."""
        self._check(address, len(data))
        self._buffer[address : address + len(data)] = data

    def view(self, address: int, nbytes: int) -> memoryview:
        """Writable zero-copy view of a memory region (bounds-checked).

        This is the host-address-translation primitive of §3.5: the embedder
        converts a 32-bit guest pointer into a host view by offsetting into
        the module's base buffer, and the host MPI library reads/writes the
        guest's buffer directly.
        """
        self._check(address, nbytes)
        return memoryview(self._buffer)[address : address + nbytes]

    def ndarray(self, address: int, count: int, dtype) -> np.ndarray:
        """Zero-copy NumPy view of ``count`` elements of ``dtype`` at ``address``."""
        dt = np.dtype(dtype)
        self._check(address, count * dt.itemsize)
        return np.frombuffer(self._buffer, dtype=dt, count=count, offset=address)

    def fill(self, address: int, value: int, nbytes: int) -> None:
        """memset-style fill (bounds-checked)."""
        self._check(address, nbytes)
        self._buffer[address : address + nbytes] = bytes([value & 0xFF]) * nbytes

    def copy_within(self, dst: int, src: int, nbytes: int) -> None:
        """memmove-style copy inside the memory (bounds-checked, overlap-safe).

        This is the ``memory.copy`` primitive; overlapping ranges behave like
        ``memmove``, as the bulk-memory proposal requires.
        """
        self._check(dst, nbytes)
        self._check(src, nbytes)
        self._buffer.move(dst, src, nbytes)

    # ------------------------------------------------------------ scalar access

    def load_int(self, address: int, nbytes: int, signed: bool = False) -> int:
        """Load a little-endian integer of ``nbytes`` bytes."""
        self._check(address, nbytes)
        return int.from_bytes(self._buffer[address : address + nbytes], "little", signed=signed)

    def store_int(self, address: int, value: int, nbytes: int) -> None:
        """Store a little-endian integer of ``nbytes`` bytes (wraps silently)."""
        mask = (1 << (8 * nbytes)) - 1
        self.write(address, (value & mask).to_bytes(nbytes, "little"))

    def load_struct(self, address: int, layout: struct.Struct) -> tuple:
        """Unpack one ``layout`` record at ``address`` (one bounds check)."""
        self._check(address, layout.size)
        return layout.unpack_from(self._buffer, address)

    def store_struct(self, address: int, layout: struct.Struct, *values) -> None:
        """Pack ``values`` as one ``layout`` record at ``address`` (one
        bounds check: an out-of-range record traps before any byte is
        written)."""
        self._check(address, layout.size)
        layout.pack_into(self._buffer, address, *values)

    def load_f32(self, address: int) -> float:
        """Load an IEEE-754 single."""
        self._check(address, 4)
        return _F32.unpack_from(self._buffer, address)[0]

    def store_f32(self, address: int, value: float) -> None:
        """Store an IEEE-754 single."""
        self._check(address, 4)
        _F32.pack_into(self._buffer, address, value)

    def load_f64(self, address: int) -> float:
        """Load an IEEE-754 double."""
        self._check(address, 8)
        return _F64.unpack_from(self._buffer, address)[0]

    def store_f64(self, address: int, value: float) -> None:
        """Store an IEEE-754 double."""
        self._check(address, 8)
        _F64.pack_into(self._buffer, address, value)

    # ---------------------------------------------------------- string helpers

    def read_cstring(self, address: int, max_len: int = 1 << 20) -> str:
        """Read a NUL-terminated UTF-8 string (bounds-checked)."""
        self._check(address, 0)
        end = self._buffer.find(b"\x00", address, min(self.size, address + max_len + 1))
        if end < 0:
            raise Trap(f"unterminated string at address {address}")
        return self._buffer[address:end].decode("utf-8", errors="replace")

    def write_cstring(self, address: int, text: str) -> int:
        """Write a NUL-terminated UTF-8 string; returns bytes written."""
        raw = text.encode("utf-8") + b"\x00"
        self.write(address, raw)
        return len(raw)
