"""Embedder configuration.

Collects every knob MPIWasm exposes: which compiler back-end to use, which
directories to expose to the module (the ``-d`` flag of §3.4), where the
AoT-compilation cache lives, how large the module's memory may grow, and the
calibrated overhead parameters of the translation layers (the quantities
Figure 6 measures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TranslationOverheadModel:
    """Calibrated costs of the embedder's per-call translation work.

    All values are seconds.  The datatype translation cost is the quantity the
    paper measures in Figure 6 (85-105 ns depending on the datatype, with an
    increase above 256 KiB messages attributed to read-lock acquisition on the
    shared ``Env`` structure); the trampoline cost covers Wasmer's host-call
    entry/exit; the address translation cost covers the pointer arithmetic and
    bounds check of §3.5.
    """

    trampoline: float = 38e-9
    address_translation: float = 11e-9
    datatype_base: Dict[str, float] = field(
        default_factory=lambda: {
            "MPI_BYTE": 85.44e-9,
            "MPI_CHAR": 84.72e-9,
            "MPI_INT": 99.78e-9,
            "MPI_FLOAT": 96.32e-9,
            "MPI_DOUBLE": 103.35e-9,
            "MPI_LONG": 104.79e-9,
        }
    )
    datatype_default: float = 95e-9
    # Extra latency for acquiring the Env read lock once messages exceed the
    # large-message threshold (the knee visible in Figure 6).
    large_message_threshold: int = 256 * 1024
    large_message_penalty: float = 55e-9
    # Additional growth per MiB beyond the threshold (lock hold time).
    large_message_per_mib: float = 18e-9

    def datatype_cost(self, datatype_name: str, message_bytes: int) -> float:
        """Translation cost for one datatype argument of one call."""
        base = self.datatype_base.get(datatype_name, self.datatype_default)
        if message_bytes > self.large_message_threshold:
            extra_mib = (message_bytes - self.large_message_threshold) / (1024 * 1024)
            return base + self.large_message_penalty + extra_mib * self.large_message_per_mib
        return base

    def call_cost(self, n_datatype_args: int, datatype_name: str, message_bytes: int) -> float:
        """Total embedder overhead of one MPI call (trampoline + translations)."""
        return (
            self.trampoline
            + self.address_translation
            + n_datatype_args * self.datatype_cost(datatype_name, message_bytes)
        )


@dataclass
class EmbedderConfig:
    """Configuration of one MPIWasm embedder process."""

    compiler_backend: str = "llvm"
    #: Directories exposed to the module: (guest path, writable).
    preopen_dirs: Tuple[Tuple[str, bool], ...] = (("/work", True),)
    #: On-disk AoT cache directory (the paper's per-node cache, §3.3) that
    #: the session's artifact store tiers over; ``None`` keeps artifacts in
    #: the session's in-memory tier only.  Clear a directory cache with
    #: ``FileSystemCache(path).clear()`` or by deleting the ``*.mpiwasm``
    #: files.
    cache_dir: Optional[str] = None
    enable_cache: bool = True
    memory_pages: Optional[int] = None       # override the module's declared minimum
    max_call_depth: int = 256
    overheads: TranslationOverheadModel = field(default_factory=TranslationOverheadModel)
    #: Arguments passed to the guest (argv[1:]).
    guest_args: Tuple[str, ...] = ()
    environ: Dict[str, str] = field(default_factory=dict)
    validate: bool = True
    #: Forced collective algorithms, {collective: algorithm} -- the
    #: programmatic equivalent of the ``REPRO_COLL_ALGO`` environment knob
    #: (and it wins over the environment, like MCA parameters beat env vars
    #: in Open MPI).  Empty means: let the decision table pick per call.
    collective_algorithms: Dict[str, str] = field(default_factory=dict)

    def with_backend(self, backend: str) -> "EmbedderConfig":
        """Copy of this configuration using a different compiler back-end."""
        from dataclasses import replace

        return replace(self, compiler_backend=backend)
