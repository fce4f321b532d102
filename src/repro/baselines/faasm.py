"""Faasm baseline (Figure 7).

Faasm is the only other platform that runs MPI applications compiled to Wasm.
Architecturally it is the inverse of MPIWasm: instead of deferring MPI calls
to the host MPI library over the machine's interconnect, it implements a
subset of MPI-1 on top of its own gRPC-based distributed messaging layer
(Faabric) and scheduler.  The performance consequence the paper measures is a
geometric-mean PingPong slowdown of ~4.28x versus MPIWasm.

This module models that architecture: each MPI message becomes a Faabric RPC
(serialize -> broker -> deserialize) over the :class:`GrpcMessagingModel`
transport, plus a scheduler/state-store overhead per call.  A functional
mini-executor is included so tests can check that the messaging layer really
moves bytes; the Figure 7 series come from :meth:`FaasmPlatform.pingpong_series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.machines import faasm_cloud
from repro.sim.network import GrpcMessagingModel


@dataclass
class FaasmConfig:
    """Tunables of the Faasm platform model."""

    scheduler_overhead: float = 1.1e-6      # per message: scheduler + state-store lookup
    serialization_per_byte: float = 0.05e-9  # protobuf encode+decode beyond the transport's own
    supports_user_communicators: bool = False  # the paper notes IMB cannot run on Faasm


class FaabricMessageBus:
    """Functional in-process stand-in for Faabric's point-to-point messaging."""

    def __init__(self) -> None:
        self._queues: Dict[Tuple[int, int, int], List[bytes]] = {}
        self.messages = 0

    def send(self, src: int, dst: int, tag: int, payload: bytes) -> None:
        """Enqueue a message for (dst, src, tag)."""
        self._queues.setdefault((dst, src, tag), []).append(bytes(payload))
        self.messages += 1

    def recv(self, dst: int, src: int, tag: int) -> bytes:
        """Dequeue the oldest matching message (raises if none)."""
        queue = self._queues.get((dst, src, tag), [])
        if not queue:
            raise LookupError(f"no Faabric message for dst={dst} src={src} tag={tag}")
        return queue.pop(0)

    def pending(self) -> int:
        """Number of queued messages."""
        return sum(len(q) for q in self._queues.values())


class FaasmPlatform:
    """The Faasm compute platform as needed for the Figure 7 comparison."""

    def __init__(self, config: Optional[FaasmConfig] = None):
        self.config = config or FaasmConfig()
        self.machine = faasm_cloud()
        self.transport = GrpcMessagingModel()
        self.bus = FaabricMessageBus()

    # ------------------------------------------------------------------ timing

    def message_time(self, nbytes: int) -> float:
        """One MPI message carried as a Faabric RPC."""
        transport = self.transport
        serialization = self.config.serialization_per_byte * nbytes
        return (
            transport.send_overhead(nbytes)
            + self.config.scheduler_overhead
            + transport.transfer_time(nbytes)
            + serialization
            + transport.recv_overhead(nbytes)
        )

    def pingpong_iteration_time(self, nbytes: int) -> float:
        """Half round-trip (the IMB PingPong metric) for one message size."""
        return self.message_time(nbytes)

    def pingpong_series(self, message_sizes) -> Dict[int, float]:
        """Iteration time (seconds) per message size -- the Faasm line of Figure 7."""
        return {size: self.pingpong_iteration_time(size) for size in message_sizes}

    # ------------------------------------------------------------- functional

    def run_pingpong(self, nbytes: int, iterations: int = 4) -> Tuple[float, bytes]:
        """Functionally bounce a payload between two simulated functions.

        Returns (total modelled time, final payload) so tests can check both
        data integrity and the accumulated cost.
        """
        payload = bytes((i * 31) & 0xFF for i in range(nbytes))
        total = 0.0
        for _ in range(iterations):
            self.bus.send(0, 1, 0, payload)
            payload = self.bus.recv(1, 0, 0)
            total += self.message_time(nbytes)
            self.bus.send(1, 0, 0, payload)
            payload = self.bus.recv(0, 1, 0)
            total += self.message_time(nbytes)
        return total, payload

    def supports_benchmark(self, benchmark_name: str) -> bool:
        """Whether Faasm can run a benchmark (IMB needs user communicators)."""
        needs_communicators = benchmark_name.lower() in {"imb", "sendrecv", "allreduce-comm"}
        return self.config.supports_user_communicators or not needs_communicators
