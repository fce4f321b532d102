"""The embedder's calibrated translation costs (the quantities Figure 6 measures).

The embedder's settings -- back-end, pre-opened directories (the ``-d`` flag
of §3.4), AoT-cache directory, memory and call-depth limits -- are fields of
:class:`repro.api.config.ResolvedConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


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


#: The embedder's translation costs: what ``Env.charge_overhead`` charges
#: per MPI call and what the figure-scale experiment models add.
OVERHEADS = TranslationOverheadModel()
