"""Interconnect and collective-operation cost models.

The paper's measurements are dominated by the behaviour of the machine's
interconnect (Intel Omni-Path at 100 Gbit/s on SuperMUC-NG, in-node shared
memory on the Graviton2 node, and a gRPC message broker for the Faasm
baseline).  This module models those transports with LogGP-style parameters:

``latency``
    end-to-end zero-byte latency (the ``L + 2o`` aggregate), in seconds,
``bandwidth``
    asymptotic per-link bandwidth in bytes/second,
``per_call_overhead``
    CPU time charged to each endpoint per MPI call (the ``o`` term),
``eager_threshold``
    message size above which the rendezvous protocol is used (the sender
    blocks until the receiver arrives),
``segment_size``
    pipelining granularity used by the collective cost models.

Closed-form collective cost functions mirror the algorithms implemented
functionally in :mod:`repro.mpi.algorithms` (binomial trees, recursive
doubling, ring and pairwise exchange), so that the analytic "model mode" used
for the paper's 768/6144-rank sweeps and the functional small-scale runs share
one parameterisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional


def _ceil_log2(n: int) -> int:
    """Smallest integer ``k`` with ``2**k >= n`` (0 for n <= 1)."""
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


@dataclass(frozen=True)
class LogGPParameters:
    """LogGP-style parameter bundle for one transport.

    All times are seconds; bandwidth is bytes per second.
    """

    latency: float
    bandwidth: float
    per_call_overhead: float
    eager_threshold: int = 65536
    segment_size: int = 65536
    # Fixed per-message software overhead added on top of the latency term
    # (protocol processing, matching); kept separate so the Wasm embedder can
    # add its own translation overhead independently.
    per_message_overhead: float = 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Time for a single message of ``nbytes`` to traverse the transport."""
        return self.latency + self.per_message_overhead + nbytes / self.bandwidth


class InterconnectModel:
    """Point-to-point timing model built from :class:`LogGPParameters`.

    Subclasses only provide parameters; the arithmetic lives here so every
    transport (Omni-Path, shared memory, TCP, gRPC) behaves consistently.
    """

    name = "generic"

    def __init__(self, params: LogGPParameters):
        self.params = params

    # ------------------------------------------------------------- point-to-point

    def send_overhead(self, nbytes: int) -> float:
        """CPU time the sender spends injecting a message."""
        return self.params.per_call_overhead

    def recv_overhead(self, nbytes: int) -> float:
        """CPU time the receiver spends extracting a message."""
        return self.params.per_call_overhead

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for ``nbytes`` (latency + serialization)."""
        return self.params.transfer_time(nbytes)

    def is_rendezvous(self, nbytes: int) -> bool:
        """Whether a message of this size uses the rendezvous protocol."""
        return nbytes > self.params.eager_threshold

    def pingpong_roundtrip(self, nbytes: int) -> float:
        """Round-trip time of the IMB PingPong pattern for one message size."""
        one_way = self.send_overhead(nbytes) + self.transfer_time(nbytes) + self.recv_overhead(nbytes)
        return 2.0 * one_way

    def uni_bandwidth(self, nbytes: int) -> float:
        """Effective uni-directional bandwidth observed by PingPong (bytes/s)."""
        half = self.pingpong_roundtrip(nbytes) / 2.0
        return nbytes / half if half > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}({self.params})"


class OmniPathModel(InterconnectModel):
    """Intel Omni-Path fabric (100 Gbit/s) as deployed on SuperMUC-NG.

    Calibrated so that the PingPong curve saturates near the ~12.8 GiB/s
    bidirectional figure reported in §4.5 of the paper and the small-message
    iteration time sits in the low single-digit microseconds.
    """

    name = "omnipath"

    def __init__(self) -> None:
        super().__init__(
            LogGPParameters(
                latency=1.05e-6,
                bandwidth=12.3e9,
                per_call_overhead=0.25e-6,
                eager_threshold=16384,
                segment_size=65536,
                per_message_overhead=0.05e-6,
            )
        )


class SharedMemoryModel(InterconnectModel):
    """Intra-node shared-memory transport (used for ranks on the same node).

    Calibrated for the Graviton2 single-node runs (~10.9 GiB/s PingPong
    bandwidth, sub-microsecond small-message latency).
    """

    name = "shm"

    def __init__(self, bandwidth: float = 11.5e9, latency: float = 0.35e-6) -> None:
        super().__init__(
            LogGPParameters(
                latency=latency,
                bandwidth=bandwidth,
                per_call_overhead=0.08e-6,
                eager_threshold=65536,
                segment_size=131072,
                per_message_overhead=0.02e-6,
            )
        )


class TcpEthernetModel(InterconnectModel):
    """Commodity 10 GbE TCP transport (cloud-datacenter baseline)."""

    name = "tcp"

    def __init__(self) -> None:
        super().__init__(
            LogGPParameters(
                latency=25e-6,
                bandwidth=1.1e9,
                per_call_overhead=2.0e-6,
                eager_threshold=16384,
                segment_size=65536,
                per_message_overhead=1.0e-6,
            )
        )


class GrpcMessagingModel(InterconnectModel):
    """gRPC-based distributed messaging transport (the Faasm/Faabric substitute).

    Each MPI message is carried by an RPC through a message broker, which adds
    serialization, scheduling, and protocol overhead on top of the TCP wire
    time.  Calibrated so the MPIWasm-vs-Faasm PingPong comparison lands near
    the paper's geometric-mean speedup of ~4.28x (Figure 7).
    """

    name = "grpc"

    def __init__(self) -> None:
        super().__init__(
            LogGPParameters(
                latency=2.6e-6,
                bandwidth=3.4e9,
                per_call_overhead=0.55e-6,
                eager_threshold=8192,
                segment_size=32768,
                per_message_overhead=0.9e-6,
            )
        )

    def transfer_time(self, nbytes: int) -> float:
        # Protobuf serialization/deserialization cost grows with payload size.
        serialization = 2.0 * nbytes * 0.05e-9
        return super().transfer_time(nbytes) + serialization


@dataclass
class CollectiveCostModel:
    """Closed-form costs of the MPI collectives over a given interconnect.

    The formulas follow the textbook algorithms that
    :mod:`repro.mpi.algorithms` implements functionally:

    * broadcast / reduce: binomial tree (``ceil(log2 p)`` rounds),
    * allreduce: recursive doubling for small messages, reduce-scatter +
      allgather (Rabenseifner) for large messages,
    * gather / scatter: binomial tree with growing segment sizes,
    * allgather: ring (``p - 1`` steps of the per-rank block),
    * alltoall: pairwise exchange (``p - 1`` steps of the per-pair block).

    ``nbytes`` always refers to the per-rank payload of the IMB benchmark for
    that routine (the x-axis of Figures 3 and 4).
    """

    interconnect: InterconnectModel
    # Per-element reduction cost (seconds per byte) for reduce-style collectives.
    reduce_compute_per_byte: float = 0.04e-9
    # Additional per-call overhead charged to every rank entering a collective.
    collective_entry_overhead: float = 0.3e-6

    def _msg(self, nbytes: int) -> float:
        p = self.interconnect.params
        return p.latency + p.per_message_overhead + 2 * p.per_call_overhead + nbytes / p.bandwidth

    def barrier(self, nranks: int) -> float:
        """Dissemination barrier: ``ceil(log2 p)`` zero-byte rounds."""
        return self.collective_entry_overhead + _ceil_log2(nranks) * self._msg(0)

    def bcast(self, nbytes: int, nranks: int) -> float:
        """Binomial-tree broadcast."""
        rounds = _ceil_log2(nranks)
        return self.collective_entry_overhead + rounds * self._msg(nbytes)

    def reduce(self, nbytes: int, nranks: int) -> float:
        """Binomial-tree reduction (communication + local combine per round)."""
        rounds = _ceil_log2(nranks)
        combine = nbytes * self.reduce_compute_per_byte
        return self.collective_entry_overhead + rounds * (self._msg(nbytes) + combine)

    def allreduce(self, nbytes: int, nranks: int) -> float:
        """Recursive doubling (small) or Rabenseifner (large) allreduce."""
        rounds = _ceil_log2(nranks)
        combine = nbytes * self.reduce_compute_per_byte
        small = self.collective_entry_overhead + rounds * (self._msg(nbytes) + combine)
        if nbytes <= self.interconnect.params.eager_threshold:
            return small
        # Reduce-scatter + allgather: 2 * (p-1)/p of the buffer moves in total,
        # spread over 2*ceil(log2 p) rounds.
        frac = (nranks - 1) / max(nranks, 1)
        large = (
            self.collective_entry_overhead
            + 2 * rounds * self._msg(int(nbytes * frac / max(rounds, 1)))
            + nbytes * frac * self.reduce_compute_per_byte
        )
        return min(small, large) if nranks > 1 else self.collective_entry_overhead

    def gather(self, nbytes: int, nranks: int) -> float:
        """Binomial-tree gather; the root receives ``(p-1) * nbytes`` in total."""
        rounds = _ceil_log2(nranks)
        total = 0.0
        for k in range(rounds):
            total += self._msg(nbytes * (2 ** k))
        return self.collective_entry_overhead + total

    def scatter(self, nbytes: int, nranks: int) -> float:
        """Binomial-tree scatter (mirror image of gather)."""
        return self.gather(nbytes, nranks)

    def allgather(self, nbytes: int, nranks: int) -> float:
        """Ring allgather: ``p - 1`` steps, each moving one rank's block."""
        if nranks <= 1:
            return self.collective_entry_overhead
        return self.collective_entry_overhead + (nranks - 1) * self._msg(nbytes)

    def alltoall(self, nbytes: int, nranks: int) -> float:
        """Pairwise-exchange alltoall: ``p - 1`` steps of the per-pair block."""
        if nranks <= 1:
            return self.collective_entry_overhead
        return self.collective_entry_overhead + (nranks - 1) * self._msg(nbytes)

    def sendrecv(self, nbytes: int, nranks: int) -> float:
        """IMB Sendrecv pattern: simultaneous send+recv around a ring."""
        return 2 * self.interconnect.params.per_call_overhead + self._msg(nbytes)

    def cost(self, routine: str, nbytes: int, nranks: int) -> float:
        """Dispatch by IMB routine name (case-insensitive)."""
        table = {
            "pingpong": lambda: self.interconnect.pingpong_roundtrip(nbytes) / 2.0,
            "sendrecv": lambda: self.sendrecv(nbytes, nranks),
            "bcast": lambda: self.bcast(nbytes, nranks),
            "broadcast": lambda: self.bcast(nbytes, nranks),
            "reduce": lambda: self.reduce(nbytes, nranks),
            "allreduce": lambda: self.allreduce(nbytes, nranks),
            "gather": lambda: self.gather(nbytes, nranks),
            "scatter": lambda: self.scatter(nbytes, nranks),
            "allgather": lambda: self.allgather(nbytes, nranks),
            "alltoall": lambda: self.alltoall(nbytes, nranks),
            "barrier": lambda: self.barrier(nranks),
        }
        key = routine.lower()
        if key not in table:
            raise KeyError(f"unknown collective routine {routine!r}")
        return table[key]()


# Registry of transports by name, used by machine presets and the launcher.
TRANSPORTS: Dict[str, type] = {
    "omnipath": OmniPathModel,
    "shm": SharedMemoryModel,
    "tcp": TcpEthernetModel,
    "grpc": GrpcMessagingModel,
}


def make_interconnect(name: str) -> InterconnectModel:
    """Instantiate a transport model by registry name."""
    try:
        return TRANSPORTS[name]()
    except KeyError as exc:
        raise KeyError(f"unknown interconnect {name!r}; known: {sorted(TRANSPORTS)}") from exc
