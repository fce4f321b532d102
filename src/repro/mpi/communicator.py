"""Communicators and groups.

A communicator names an ordered group of world ranks plus a context id that
isolates its message traffic from every other communicator (the standard MPI
matching rule).  ``MPI_COMM_WORLD`` is created by the runtime; ``Comm_split``
and ``Comm_dup`` derive new communicators, which is what the Intel MPI
Benchmarks rely on (the paper points out that Faasm cannot run IMB precisely
because it lacks user-defined communicators).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.mpi.errors import InvalidRankError


@dataclass(frozen=True)
class Group:
    """An ordered set of world ranks (``MPI_Group``)."""

    world_ranks: tuple

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.world_ranks)

    def rank_of(self, world_rank: int) -> Optional[int]:
        """Group-local rank of ``world_rank`` (``None`` if absent)."""
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            return None

    def translate(self, local_rank: int) -> int:
        """World rank of group-local ``local_rank``."""
        if not 0 <= local_rank < len(self.world_ranks):
            raise InvalidRankError(f"rank {local_rank} out of range for group of size {self.size}")
        return self.world_ranks[local_rank]


class Communicator:
    """A communication context over an ordered group of world ranks.

    Attributes
    ----------
    context_id:
        Globally unique id used for message matching isolation.
    group:
        The ordered ranks (as world ranks) belonging to this communicator.
    name:
        Debug name (``MPI_Comm_set_name`` analogue).
    """

    _context_counter = itertools.count(100)

    def __init__(self, group: Group, name: str = "", context_id: Optional[int] = None):
        self.group = group
        self.context_id = context_id if context_id is not None else next(Communicator._context_counter)
        self.name = name or f"comm#{self.context_id}"
        self.freed = False

    @property
    def size(self) -> int:
        """Number of ranks in the communicator (``MPI_Comm_size``)."""
        return self.group.size

    def rank_of_world(self, world_rank: int) -> Optional[int]:
        """Communicator-local rank of a world rank, or ``None``."""
        return self.group.rank_of(world_rank)

    def world_rank(self, local_rank: int) -> int:
        """World rank corresponding to a communicator-local rank."""
        return self.group.translate(local_rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator({self.name}, size={self.size}, ctx={self.context_id})"


def world_communicator(nranks: int) -> Communicator:
    """Build ``MPI_COMM_WORLD`` over ranks ``0 .. nranks-1``."""
    return Communicator(Group(tuple(range(nranks))), name="MPI_COMM_WORLD", context_id=0)


def self_communicator(world_rank: int) -> Communicator:
    """Build ``MPI_COMM_SELF`` for one rank."""
    return Communicator(Group((world_rank,)), name="MPI_COMM_SELF", context_id=1)


class SplitCoordinator:
    """Collects ``Comm_split`` contributions from every member of a parent comm.

    ``Comm_split`` is collective: every member contributes ``(color, key)`` and
    all members of the same color receive a new communicator ordered by
    ``(key, world_rank)``.  The coordinator lives in the shared blackboard of
    the simulation and assigns one fresh context id per (split call, color) so
    that all members agree on it.
    """

    def __init__(self, parent: Communicator):
        self.parent = parent
        self.contributions: Dict[int, tuple] = {}
        self.result_groups: Optional[Dict[int, Group]] = None
        self.context_ids: Dict[int, int] = {}

    def contribute(self, world_rank: int, color: int, key: int) -> None:
        """Record one member's (color, key)."""
        self.contributions[world_rank] = (color, key)

    @property
    def ready(self) -> bool:
        """Whether every member of the parent communicator has contributed."""
        return len(self.contributions) == self.parent.size

    def finalize(self) -> None:
        """Compute the per-color groups and context ids (idempotent)."""
        if self.result_groups is not None:
            return
        by_color: Dict[int, List[tuple]] = {}
        for world_rank, (color, key) in self.contributions.items():
            if color < 0:
                continue  # MPI_UNDEFINED: the rank gets MPI_COMM_NULL
            by_color.setdefault(color, []).append((key, world_rank))
        groups: Dict[int, Group] = {}
        for color, members in by_color.items():
            ordered = tuple(world for _key, world in sorted(members))
            groups[color] = Group(ordered)
            self.context_ids[color] = next(Communicator._context_counter)
        self.result_groups = groups

    def communicator_for(self, world_rank: int) -> Optional[Communicator]:
        """The new communicator for ``world_rank`` (``None`` for MPI_UNDEFINED)."""
        self.finalize()
        color, _key = self.contributions[world_rank]
        if color < 0 or self.result_groups is None or color not in self.result_groups:
            return None
        return Communicator(
            self.result_groups[color],
            name=f"{self.parent.name}.split(color={color})",
            context_id=self.context_ids[color],
        )
