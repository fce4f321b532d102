"""MPI reduction operations of the host library.

Like datatypes, ``MPI_Op`` handles are opaque to applications; on the host
side they are objects carrying a NumPy-vectorised combine function, on the
guest side plain integers translated by the embedder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.mpi.datatypes import Datatype


@dataclass(frozen=True)
class Op:
    """One MPI reduction operation.

    Attributes
    ----------
    name:
        MPI name, e.g. ``"MPI_SUM"``.
    fn:
        Element-wise combine, a binary NumPy ufunc:
        ``fn(accumulator, contribution) -> combined``.  Both arguments are
        NumPy arrays of the same dtype and shape; :meth:`reduce_bytes`
        applies it in place (``out=`` the accumulator).
    commutative:
        Whether the operation is commutative (all predefined ops are).
    """

    name: str
    fn: np.ufunc
    commutative: bool = True

    def apply(self, acc: np.ndarray, contribution: np.ndarray) -> np.ndarray:
        """Combine ``contribution`` into ``acc`` and return the result."""
        return self.fn(acc, contribution)

    def reduce_bytes(self, acc: bytearray, contribution: bytes, datatype: Datatype, count: int) -> None:
        """Combine raw byte buffers in place, viewing them as ``datatype``.

        This is the path the matching engine and collectives use: buffers are
        raw bytes (possibly views into a Wasm module's linear memory), and the
        datatype provides the element interpretation.  ``acc`` must be
        writable; it is combined through a NumPy view of its own bytes, so a
        ufunc op allocates no temporary.
        """
        dt = datatype.numpy()
        nbytes = count * datatype.size
        a = np.frombuffer(memoryview(acc)[:nbytes], dtype=dt)
        b = np.frombuffer(memoryview(contribution)[:nbytes], dtype=dt)
        self.fn(a, b, out=a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Op({self.name})"


SUM = Op("MPI_SUM", np.add)
PROD = Op("MPI_PROD", np.multiply)
MAX = Op("MPI_MAX", np.maximum)
MIN = Op("MPI_MIN", np.minimum)
# The logical ops yield booleans; ``out=`` casts them to the datatype's 0/1.
LAND = Op("MPI_LAND", np.logical_and)
LOR = Op("MPI_LOR", np.logical_or)
LXOR = Op("MPI_LXOR", np.logical_xor)
BAND = Op("MPI_BAND", np.bitwise_and)
BOR = Op("MPI_BOR", np.bitwise_or)
BXOR = Op("MPI_BXOR", np.bitwise_xor)

PREDEFINED: Dict[str, Op] = {
    op.name: op
    for op in (SUM, PROD, MAX, MIN, LAND, LOR, LXOR, BAND, BOR, BXOR)
}


def by_name(name: str) -> Op:
    """Look up a predefined reduction op by its MPI name."""
    try:
        return PREDEFINED[name]
    except KeyError as exc:
        raise KeyError(f"unknown MPI op {name!r}") from exc
