"""Machine presets mirroring the paper's two test systems.

The evaluation in the paper runs on

* **SuperMUC-NG** -- dual-socket Intel Xeon Platinum 8174 (Skylake-SP) nodes,
  48 cores per node at 3.10 GHz with AVX-512, 96 GiB of memory, an Intel
  Omni-Path 100 Gbit/s interconnect and a GPFS (Lenovo DSS-G) filesystem with
  ~200 GiB/s aggregate bandwidth, and
* an **AWS Graviton2** node -- 32 Neoverse-N1 cores at 2.50 GHz with 128-bit
  NEON SIMD and 64 GiB of memory.

Each preset captures the structural quantities the experiments depend on:
core counts and frequencies, SIMD width for native code and for Wasm
(fixed at 128 bits by the Wasm specification), sustained floating-point and
memory-bandwidth rates per core, the interconnect model, and the parallel
filesystem model.  A third preset models the cloud deployment used by the
Faasm baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.api.registry import MACHINES, register_machine
from repro.sim.filesystem import ParallelFileSystemModel
from repro.sim.network import InterconnectModel, make_interconnect


@dataclass(frozen=True)
class MachinePreset:
    """Structural description of one simulated machine.

    The floating-point rates are *sustained* HPCG-style rates (memory-bound
    sparse kernels), not peak dense rates; this is what the HPCG GFLOP/s
    figures in the paper report.
    """

    name: str
    architecture: str                      # "x86_64" or "aarch64"
    cores_per_node: int
    sockets_per_node: int
    core_frequency_hz: float
    memory_per_node_bytes: int
    native_simd_bits: int                  # 512 for Skylake-SP AVX-512, 128 for NEON
    wasm_simd_bits: int                    # the Wasm spec fixes this at 128
    # Sustained per-core rates for memory-bound sparse kernels (HPCG-like).
    sustained_gflops_per_core: float
    sustained_membw_per_core: float        # bytes/s of streaming bandwidth per core
    node_memory_bandwidth: float           # bytes/s aggregate per node
    interconnect_name: str                 # key into repro.sim.network.TRANSPORTS
    intranode_name: str = "shm"
    max_nodes: int = 1
    filesystem: ParallelFileSystemModel = field(
        default_factory=lambda: ParallelFileSystemModel.local_scratch()
    )
    # Relative single-core efficiency of AoT-compiled Wasm vs native -O3 code
    # for scalar/128-bit-vectorisable code (Table 1 / §4.5: close to native).
    wasm_scalar_efficiency: float = 0.97
    # Additional penalty applied only to code whose native version benefits
    # from SIMD wider than 128 bits (the DT benchmark discussion in §4.5).
    description: str = ""

    # -------------------------------------------------------------- factories

    def interconnect(self) -> InterconnectModel:
        """Instantiate the inter-node transport model for this machine."""
        return make_interconnect(self.interconnect_name)

    def intranode(self) -> InterconnectModel:
        """Instantiate the intra-node (shared-memory) transport model."""
        return make_interconnect(self.intranode_name)

    def total_cores(self) -> int:
        """Total core count across the machine's maximum node allocation."""
        return self.cores_per_node * self.max_nodes

    def nodes_for(self, nranks: int, ranks_per_node: Optional[int] = None) -> int:
        """Number of nodes needed to place ``nranks`` ranks."""
        rpn = ranks_per_node or self.cores_per_node
        return max(1, -(-nranks // rpn))

    def wasm_simd_penalty(self, simd_fraction: float, wasm_simd_enabled: bool = True) -> float:
        """Slowdown factor for Wasm code relative to native vectorised code.

        ``simd_fraction`` is the fraction of runtime the native binary spends
        in vectorised loops.  Native code uses ``native_simd_bits`` lanes;
        Wasm is limited to 128-bit lanes (or scalar if SIMD generation is
        disabled, reproducing the "WASM w/o SIMD" bar of Figure 5a).
        """
        if not 0.0 <= simd_fraction <= 1.0:
            raise ValueError(f"simd_fraction must be in [0, 1], got {simd_fraction}")
        wasm_bits = self.wasm_simd_bits if wasm_simd_enabled else 64
        width_ratio = self.native_simd_bits / wasm_bits
        # Amdahl-style: only the vectorised fraction slows down by the width ratio.
        slowdown = (1.0 - simd_fraction) + simd_fraction * width_ratio
        return slowdown / self.wasm_scalar_efficiency

    def with_overrides(self, **kwargs) -> "MachinePreset":
        """Return a copy of this preset with selected fields replaced."""
        return replace(self, **kwargs)


def supermuc_ng() -> MachinePreset:
    """The production HPC system used in the paper (§4.1)."""
    return MachinePreset(
        name="supermuc-ng",
        architecture="x86_64",
        cores_per_node=48,
        sockets_per_node=2,
        core_frequency_hz=3.10e9,
        memory_per_node_bytes=96 * 2**30,
        native_simd_bits=512,
        wasm_simd_bits=128,
        sustained_gflops_per_core=0.95,
        sustained_membw_per_core=4.6e9,
        node_memory_bandwidth=220e9,
        interconnect_name="omnipath",
        intranode_name="shm",
        max_nodes=128,
        filesystem=ParallelFileSystemModel.dss_g(),
        wasm_scalar_efficiency=0.97,
        description="SuperMUC-NG: Intel Xeon Platinum 8174 (Skylake-SP), Omni-Path 100 Gbit/s, GPFS/DSS-G",
    )


def graviton2() -> MachinePreset:
    """The AWS Graviton2 (Neoverse-N1) single-node system used in the paper."""
    return MachinePreset(
        name="graviton2",
        architecture="aarch64",
        cores_per_node=32,
        sockets_per_node=1,
        core_frequency_hz=2.50e9,
        memory_per_node_bytes=64 * 2**30,
        native_simd_bits=128,
        wasm_simd_bits=128,
        sustained_gflops_per_core=0.80,
        sustained_membw_per_core=5.5e9,
        node_memory_bandwidth=175e9,
        interconnect_name="shm",
        intranode_name="shm",
        max_nodes=1,
        filesystem=ParallelFileSystemModel.local_scratch(),
        wasm_scalar_efficiency=0.98,
        description="AWS EC2 Graviton2: 32x Neoverse-N1 @ 2.5 GHz, single node",
    )


def faasm_cloud() -> MachinePreset:
    """Cloud deployment assumed for the Faasm baseline (Figure 7).

    Faasm carries MPI messages over its gRPC-based Faabric messaging layer, so
    the interconnect is the :class:`GrpcMessagingModel` even when both ranks
    are co-located.
    """
    return MachinePreset(
        name="faasm-cloud",
        architecture="x86_64",
        cores_per_node=16,
        sockets_per_node=1,
        core_frequency_hz=2.60e9,
        memory_per_node_bytes=64 * 2**30,
        native_simd_bits=256,
        wasm_simd_bits=128,
        sustained_gflops_per_core=0.70,
        sustained_membw_per_core=4.0e9,
        node_memory_bandwidth=80e9,
        interconnect_name="grpc",
        intranode_name="grpc",
        max_nodes=8,
        filesystem=ParallelFileSystemModel.local_scratch(),
        wasm_scalar_efficiency=0.95,
        description="Cloud nodes running the Faasm/Faabric gRPC messaging stack",
    )


#: Live view of the unified machine registry (kept for back-compat; new
#: presets should register through ``repro.api.register_machine``).
PRESETS: Dict[str, MachinePreset] = MACHINES.entries


def _register_defaults() -> None:
    for factory in (supermuc_ng, graviton2, faasm_cloud):
        register_machine(factory(), override=True)


_register_defaults()


def get_preset(name: str) -> MachinePreset:
    """Look up a machine preset by name (``supermuc-ng``, ``graviton2``, ...).

    Unknown names raise :class:`repro.api.registry.UnknownEntryError` (a
    ``KeyError`` subclass) listing every registered preset.
    """
    return MACHINES.get(name)
