"""Cluster topology and rank placement.

A :class:`Cluster` binds a machine preset to a concrete allocation (number of
nodes, ranks per node) and answers the one question the MPI layer needs per
message: *which transport connects rank i to rank j* -- the intra-node
shared-memory model when both ranks live on the same node, the machine's
interconnect otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.machines import MachinePreset
from repro.sim.network import InterconnectModel


@dataclass(frozen=True)
class Node:
    """One compute node of the simulated allocation."""

    index: int
    cores: int
    memory_bytes: int


@dataclass(frozen=True)
class RankPlacement:
    """Placement of one MPI rank onto a node and core."""

    rank: int
    node: int
    core: int


class Cluster:
    """A concrete allocation of nodes on a machine preset.

    Parameters
    ----------
    machine:
        The machine preset (SuperMUC-NG, Graviton2, ...).
    nranks:
        Number of MPI ranks to place.
    ranks_per_node:
        Ranks placed per node (defaults to the machine's cores per node,
        matching the paper's pure-MPI configuration without oversubscription).
    """

    def __init__(
        self,
        machine: MachinePreset,
        nranks: int,
        ranks_per_node: Optional[int] = None,
    ):
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        self.machine = machine
        self.nranks = nranks
        self.ranks_per_node = ranks_per_node or machine.cores_per_node
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        self.nnodes = machine.nodes_for(nranks, self.ranks_per_node)
        if self.nnodes > machine.max_nodes:
            raise ValueError(
                f"{nranks} ranks at {self.ranks_per_node} per node need "
                f"{self.nnodes} nodes but {machine.name} provides at most {machine.max_nodes}"
            )
        self.nodes: List[Node] = [
            Node(index=i, cores=machine.cores_per_node, memory_bytes=machine.memory_per_node_bytes)
            for i in range(self.nnodes)
        ]
        self._placements: List[RankPlacement] = [
            RankPlacement(rank=r, node=r // self.ranks_per_node, core=r % self.ranks_per_node)
            for r in range(nranks)
        ]
        self._node_of: List[int] = [p.node for p in self._placements]
        self._internode: InterconnectModel = machine.interconnect()
        self._intranode: InterconnectModel = machine.intranode()

    # ------------------------------------------------------------------ queries

    def placement(self, rank: int) -> RankPlacement:
        """Placement record for ``rank``."""
        return self._placements[rank]

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        return self._node_of[rank]

    def same_node(self, a: int, b: int) -> bool:
        """Whether ranks ``a`` and ``b`` share a node."""
        return self._node_of[a] == self._node_of[b]

    def transport(self, src: int, dst: int) -> InterconnectModel:
        """Transport model connecting ``src`` to ``dst`` (called per message)."""
        node_of = self._node_of
        return self._intranode if node_of[src] == node_of[dst] else self._internode

    @property
    def interconnect(self) -> InterconnectModel:
        """The inter-node transport model (Omni-Path on SuperMUC-NG)."""
        return self._internode

    @property
    def intranode(self) -> InterconnectModel:
        """The intra-node shared-memory transport model."""
        return self._intranode

    def ranks_on_node(self, node: int) -> List[int]:
        """All ranks placed on ``node``."""
        return [p.rank for p in self._placements if p.node == node]

    def describe(self) -> Dict[str, object]:
        """Human-readable summary used by the harness output."""
        return {
            "machine": self.machine.name,
            "architecture": self.machine.architecture,
            "nranks": self.nranks,
            "nnodes": self.nnodes,
            "ranks_per_node": self.ranks_per_node,
            "interconnect": self._internode.name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(machine={self.machine.name!r}, nranks={self.nranks}, "
            f"nnodes={self.nnodes}, rpn={self.ranks_per_node})"
        )
