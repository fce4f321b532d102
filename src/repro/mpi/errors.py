"""MPI error classes and error codes.

The MPI standard reports failures through integer error codes; the host-side
library here raises exceptions carrying those codes, and the embedder converts
them back into the integer codes a Wasm guest expects (the guest-side ABI in
:mod:`repro.toolchain.mpi_header` defines the same constants).
"""

from __future__ import annotations

# Error codes per the MPI-2.2 standard (values match common implementations).
MPI_SUCCESS = 0
MPI_ERR_BUFFER = 1
MPI_ERR_COUNT = 2
MPI_ERR_TYPE = 3
MPI_ERR_TAG = 4
MPI_ERR_COMM = 5
MPI_ERR_RANK = 6
MPI_ERR_REQUEST = 7
MPI_ERR_ROOT = 8
MPI_ERR_OP = 9
MPI_ERR_ARG = 12
MPI_ERR_TRUNCATE = 14
MPI_ERR_OTHER = 15
MPI_ERR_INTERN = 16
MPI_ERR_NO_MEM = 19


class MPIError(RuntimeError):
    """Base class for MPI failures raised by the host library.

    Attributes
    ----------
    code:
        The MPI error code corresponding to this failure.
    """

    code = MPI_ERR_OTHER

    def __init__(self, message: str, code: int | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InvalidRankError(MPIError):
    """A rank argument was outside the communicator."""

    code = MPI_ERR_RANK


class InvalidCountError(MPIError):
    """A count argument was negative or inconsistent with the buffer."""

    code = MPI_ERR_COUNT


class InvalidTagError(MPIError):
    """A tag argument was negative (and not a wildcard)."""

    code = MPI_ERR_TAG


class InvalidDatatypeError(MPIError):
    """A datatype handle did not name a known datatype."""

    code = MPI_ERR_TYPE


class InvalidOpError(MPIError):
    """A reduction-op handle did not name a known operation."""

    code = MPI_ERR_OP


class InvalidCommunicatorError(MPIError):
    """A communicator handle did not name a live communicator."""

    code = MPI_ERR_COMM


class InvalidRootError(MPIError):
    """A collective root argument was outside the communicator."""

    code = MPI_ERR_ROOT


class TruncationError(MPIError):
    """A receive buffer was too small for the matched message."""

    code = MPI_ERR_TRUNCATE


class NotInitializedError(MPIError):
    """An MPI call was made before ``MPI_Init`` or after ``MPI_Finalize``."""

    code = MPI_ERR_OTHER
