"""Guest-side MPI ABI -- the custom ``mpi.h`` of §3.2.

The paper adds a custom ``mpi.h`` to the WASI-SDK in which every opaque MPI
type (``MPI_Comm``, ``MPI_Datatype``, ``MPI_Op``, ``MPI_Request``) is a plain
32-bit integer, and the MPI functions are declared so that the clang Wasm
backend turns them into imports in the ``env`` namespace (Listing 2/3).

This module is the single source of truth for that ABI on both sides:

* the toolchain (:mod:`repro.toolchain.wasicc`) uses :data:`MPI_SIGNATURES`
  to declare the imports of a guest module,
* the embedder (:mod:`repro.core.mpi_imports`) uses the same table to register
  its host implementations, and the handle constants below to translate guest
  integers into host objects (§3.6).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.mpi import datatypes as host_datatypes
from repro.mpi import ops as host_ops
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op

# ----------------------------------------------------------------- constants

MPI_SUCCESS = 0
MPI_ERR_OTHER = 15

# Communicator handles as seen by the guest.
MPI_COMM_NULL = -1
MPI_COMM_WORLD = 0
MPI_COMM_SELF = 1
# Handles >= FIRST_USER_COMM are created by Comm_split/Comm_dup at run time.
FIRST_USER_COMM = 16

# Wildcards / sentinels (guest-side values; translated by the embedder).
MPI_ANY_SOURCE = -1
MPI_ANY_TAG = -1
MPI_PROC_NULL = -2
MPI_STATUS_IGNORE = 0
MPI_REQUEST_NULL = 0
MPI_UNDEFINED = -32766
MPI_IN_PLACE = -3
MPI_INFO_NULL = 0

# Datatype handles (guest integers) -> host datatype names.
MPI_DATATYPE_NULL = 0
MPI_BYTE = 1
MPI_CHAR = 2
MPI_SIGNED_CHAR = 3
MPI_UNSIGNED_CHAR = 4
MPI_SHORT = 5
MPI_UNSIGNED_SHORT = 6
MPI_INT = 7
MPI_UNSIGNED = 8
MPI_LONG = 9
MPI_UNSIGNED_LONG = 10
MPI_LONG_LONG = 11
MPI_UNSIGNED_LONG_LONG = 12
MPI_FLOAT = 13
MPI_DOUBLE = 14
MPI_LONG_DOUBLE = 15
MPI_C_BOOL = 16
MPI_INT8_T = 17
MPI_INT16_T = 18
MPI_INT32_T = 19
MPI_INT64_T = 20
MPI_UINT8_T = 21
MPI_UINT16_T = 22
MPI_UINT32_T = 23
MPI_UINT64_T = 24
MPI_PACKED = 25

GUEST_DATATYPE_NAMES: Dict[int, str] = {
    MPI_BYTE: "MPI_BYTE",
    MPI_CHAR: "MPI_CHAR",
    MPI_SIGNED_CHAR: "MPI_SIGNED_CHAR",
    MPI_UNSIGNED_CHAR: "MPI_UNSIGNED_CHAR",
    MPI_SHORT: "MPI_SHORT",
    MPI_UNSIGNED_SHORT: "MPI_UNSIGNED_SHORT",
    MPI_INT: "MPI_INT",
    MPI_UNSIGNED: "MPI_UNSIGNED",
    MPI_LONG: "MPI_LONG",
    MPI_UNSIGNED_LONG: "MPI_UNSIGNED_LONG",
    MPI_LONG_LONG: "MPI_LONG_LONG",
    MPI_UNSIGNED_LONG_LONG: "MPI_UNSIGNED_LONG_LONG",
    MPI_FLOAT: "MPI_FLOAT",
    MPI_DOUBLE: "MPI_DOUBLE",
    MPI_LONG_DOUBLE: "MPI_LONG_DOUBLE",
    MPI_C_BOOL: "MPI_C_BOOL",
    MPI_INT8_T: "MPI_INT8_T",
    MPI_INT16_T: "MPI_INT16_T",
    MPI_INT32_T: "MPI_INT32_T",
    MPI_INT64_T: "MPI_INT64_T",
    MPI_UINT8_T: "MPI_UINT8_T",
    MPI_UINT16_T: "MPI_UINT16_T",
    MPI_UINT32_T: "MPI_UINT32_T",
    MPI_UINT64_T: "MPI_UINT64_T",
    MPI_PACKED: "MPI_PACKED",
}

# Reduction-op handles (guest integers) -> host op names.
MPI_OP_NULL = 0
MPI_SUM = 1
MPI_PROD = 2
MPI_MAX = 3
MPI_MIN = 4
MPI_LAND = 5
MPI_LOR = 6
MPI_LXOR = 7
MPI_BAND = 8
MPI_BOR = 9
MPI_BXOR = 10

GUEST_OP_NAMES: Dict[int, str] = {
    MPI_SUM: "MPI_SUM",
    MPI_PROD: "MPI_PROD",
    MPI_MAX: "MPI_MAX",
    MPI_MIN: "MPI_MIN",
    MPI_LAND: "MPI_LAND",
    MPI_LOR: "MPI_LOR",
    MPI_LXOR: "MPI_LXOR",
    MPI_BAND: "MPI_BAND",
    MPI_BOR: "MPI_BOR",
    MPI_BXOR: "MPI_BXOR",
}

#: Guest handle -> host object: the one table every translating layer (the
#: embedder's ``Env``, the Figure 6 translator, the native baseline) probes.
HOST_DATATYPES: Dict[int, Datatype] = {
    handle: host_datatypes.by_name(name) for handle, name in GUEST_DATATYPE_NAMES.items()
}
HOST_OPS: Dict[int, Op] = {handle: host_ops.by_name(name) for handle, name in GUEST_OP_NAMES.items()}

# Guest MPI_Status layout: four i32 fields (source, tag, error, count_bytes)
# at offsets 0, 4, 8, 12, moved as one record: the host writes four 32-bit
# words, the guest reads four C ``int``s.
STATUS_SIZE_BYTES = 16
STATUS_COUNT_OFFSET = 12
STATUS_WORDS = struct.Struct("<4I")
STATUS_INTS = struct.Struct("<4i")

MPI_MAX_PROCESSOR_NAME = 128


# ----------------------------------------------------------------- signatures

#: Wasm-level signatures of the ``env.MPI_*`` imports: name -> (params, results).
#: All handles and pointers are ``i32``; ``MPI_Wtime``/``MPI_Wtick`` return ``f64``.
MPI_SIGNATURES: Dict[str, Tuple[List[str], List[str]]] = {
    "MPI_Init": (["i32", "i32"], ["i32"]),
    "MPI_Initialized": (["i32"], ["i32"]),
    "MPI_Finalize": ([], ["i32"]),
    "MPI_Abort": (["i32", "i32"], ["i32"]),
    "MPI_Comm_rank": (["i32", "i32"], ["i32"]),
    "MPI_Comm_size": (["i32", "i32"], ["i32"]),
    "MPI_Get_processor_name": (["i32", "i32"], ["i32"]),
    "MPI_Wtime": ([], ["f64"]),
    "MPI_Wtick": ([], ["f64"]),
    "MPI_Type_size": (["i32", "i32"], ["i32"]),
    "MPI_Get_count": (["i32", "i32", "i32"], ["i32"]),
    "MPI_Send": (["i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Recv": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Sendrecv": (
        ["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"],
        ["i32"],
    ),
    "MPI_Isend": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Irecv": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Test": (["i32", "i32", "i32"], ["i32"]),
    "MPI_Wait": (["i32", "i32"], ["i32"]),
    "MPI_Waitall": (["i32", "i32", "i32"], ["i32"]),
    "MPI_Waitany": (["i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Testall": (["i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Iprobe": (["i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Ibarrier": (["i32", "i32"], ["i32"]),
    "MPI_Ibcast": (["i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Ireduce": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Iallreduce": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Igather": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Iscatter": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Iallgather": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Ialltoall": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Barrier": (["i32"], ["i32"]),
    "MPI_Bcast": (["i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Reduce": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Allreduce": (["i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Gather": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Scatter": (["i32", "i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Allgather": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Alltoall": (["i32", "i32", "i32", "i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Comm_split": (["i32", "i32", "i32", "i32"], ["i32"]),
    "MPI_Comm_dup": (["i32", "i32"], ["i32"]),
    "MPI_Comm_free": (["i32"], ["i32"]),
    "MPI_Alloc_mem": (["i32", "i32", "i32"], ["i32"]),
    "MPI_Free_mem": (["i32"], ["i32"]),
}


def datatype_size(guest_handle: int) -> int:
    """Size in bytes of a guest datatype handle (``MPI_Type_size`` semantics)."""
    datatype = HOST_DATATYPES.get(guest_handle)
    if datatype is None:
        raise KeyError(f"unknown guest datatype handle {guest_handle}")
    return datatype.size


def header_source() -> str:
    """Render the custom ``mpi.h`` as C source text (Listing 2 of the paper).

    Used for documentation and by the linker size model (the header itself
    contributes no object code, but its rendering is a convenient artefact for
    examples and tests to assert against).
    """
    lines = [
        "/* Custom mpi.h for compiling MPI applications to WebAssembly (MPI-2.2). */",
        "typedef int MPI_Comm;",
        "typedef int MPI_Datatype;",
        "typedef int MPI_Op;",
        "typedef int MPI_Request;",
        "typedef struct { int MPI_SOURCE; int MPI_TAG; int MPI_ERROR; int _count; } MPI_Status;",
        "",
        f"#define MPI_COMM_WORLD {MPI_COMM_WORLD}",
        f"#define MPI_COMM_SELF {MPI_COMM_SELF}",
        f"#define MPI_ANY_SOURCE {MPI_ANY_SOURCE}",
        f"#define MPI_ANY_TAG {MPI_ANY_TAG}",
        f"#define MPI_PROC_NULL {MPI_PROC_NULL}",
        f"#define MPI_SUCCESS {MPI_SUCCESS}",
        "",
    ]
    for handle, name in GUEST_DATATYPE_NAMES.items():
        lines.append(f"#define {name} {handle}")
    lines.append("")
    for handle, name in GUEST_OP_NAMES.items():
        lines.append(f"#define {name} {handle}")
    lines.append("")
    ctype = {"i32": "int", "i64": "long long", "f64": "double"}
    for name, (params, results) in MPI_SIGNATURES.items():
        ret = ctype[results[0]] if results else "void"
        args = ", ".join(ctype[p] for p in params) or "void"
        lines.append(f"{ret} {name}({args});")
    return "\n".join(lines) + "\n"
