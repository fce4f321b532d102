"""Size-based algorithm selection (the Open MPI ``tuned`` decision layer).

Open MPI's ``coll/tuned`` module picks a collective algorithm per call from a
fixed decision table keyed on message size and communicator size; users can
force an algorithm with MCA parameters.  This module reproduces that shape:

* :class:`DecisionTable` -- ordered threshold rules per collective,
* :class:`CollectiveSelector` -- the per-job selector combining the table
  with the forced overrides the job's ``Session`` resolved (kwargs, config
  file, the ``REPRO_COLL_ALGO`` environment knob) and applies before any rank
  starts; this module never reads the environment itself.

``REPRO_COLL_ALGO`` uses the syntax ``collective:algorithm``, comma-separated
for several collectives, e.g.::

    REPRO_COLL_ALGO=allreduce:ring,bcast:scatter_allgather

The selection is a pure function of ``(collective, message bytes,
communicator size)``, which every rank computes identically -- exactly the
property that lets real MPI libraries pick algorithms without negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.mpi.algorithms import registry

ENV_KNOB = "REPRO_COLL_ALGO"


@dataclass(frozen=True)
class Rule:
    """One decision-table rule: use ``algorithm`` while the call is at most
    ``max_bytes`` large and the communicator at most ``max_ranks`` wide.

    ``None`` thresholds match anything; rules are evaluated in order and the
    last rule of a collective acts as the fallback.
    """

    algorithm: str
    max_bytes: Optional[int] = None
    max_ranks: Optional[int] = None

    def matches(self, nbytes: int, nranks: int) -> bool:
        """Whether this rule applies to a call of ``nbytes`` on ``nranks``."""
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        if self.max_ranks is not None and nranks > self.max_ranks:
            return False
        return True


#: Default fixed decision table, shaped after Open MPI's ``tuned`` defaults:
#: latency-optimal algorithms (binomial trees, recursive doubling, Bruck) for
#: small messages / small communicators, bandwidth-optimal ones (rings,
#: scatter-allgather, pairwise exchange) once the payload dominates.
DEFAULT_RULES: Dict[str, Tuple[Rule, ...]] = {
    "barrier": (
        Rule("linear", max_ranks=4),
        Rule("dissemination"),
    ),
    "bcast": (
        Rule("binomial", max_ranks=4),
        Rule("binomial", max_bytes=65536),
        Rule("scatter_allgather"),
    ),
    "reduce": (
        Rule("binomial", max_ranks=4),
        Rule("binomial", max_bytes=16384),
        Rule("rabenseifner"),
    ),
    "allreduce": (
        Rule("recursive_doubling", max_bytes=16384),
        Rule("ring"),
    ),
    "gather": (
        Rule("binomial", max_bytes=8192),
        Rule("linear"),
    ),
    "scatter": (
        Rule("binomial", max_bytes=8192),
        Rule("linear"),
    ),
    "allgather": (
        Rule("bruck", max_bytes=8192),
        Rule("ring"),
    ),
    "alltoall": (
        Rule("linear", max_bytes=4096),
        Rule("pairwise"),
    ),
}


class DecisionTable:
    """Ordered threshold rules mapping (collective, size, ranks) -> algorithm."""

    def __init__(self, rules: Optional[Mapping[str, Sequence[Rule]]] = None):
        merged: Dict[str, Tuple[Rule, ...]] = dict(DEFAULT_RULES)
        if rules:
            for collective, collective_rules in rules.items():
                _validate_collective(collective)
                merged[collective] = tuple(collective_rules)
        self.rules = merged

    def decide(self, collective: str, nbytes: int, nranks: int) -> str:
        """Algorithm name for one call (falls back to the last rule)."""
        collective_rules = self.rules.get(collective)
        if not collective_rules:
            raise registry.UnknownAlgorithmError(
                f"no decision rules for collective {collective!r}"
            )
        for rule in collective_rules:
            if rule.matches(nbytes, nranks):
                return rule.algorithm
        return collective_rules[-1].algorithm


def _validate_collective(collective: str) -> None:
    if collective not in registry.COLLECTIVES:
        raise ValueError(
            f"unknown collective {collective!r}; known: {registry.COLLECTIVES}"
        )


def _validate_pair(collective: str, algorithm: str) -> None:
    _validate_collective(collective)
    if not registry.is_registered(collective, algorithm):
        raise registry.UnknownAlgorithmError(
            f"no algorithm {algorithm!r} for collective {collective!r}; "
            f"known: {registry.algorithms_for(collective)}"
        )


def parse_env_knob(value: str) -> Dict[str, str]:
    """Parse a ``REPRO_COLL_ALGO`` value into {collective: algorithm}.

    Raises ``ValueError``/``UnknownAlgorithmError`` on malformed entries so a
    typo fails the job loudly instead of silently running the default.
    """
    forced: Dict[str, str] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            raise ValueError(
                f"malformed {ENV_KNOB} entry {entry!r}; expected 'collective:algorithm'"
            )
        collective, _, algorithm = entry.partition(":")
        collective = collective.strip()
        algorithm = algorithm.strip()
        _validate_pair(collective, algorithm)
        forced[collective] = algorithm
    return forced


class CollectiveSelector:
    """Per-job algorithm selector: decision table + forced overrides.

    One selector is shared by every rank of a simulated job (it lives on the
    :class:`repro.mpi.runtime.MPIWorld`); selection itself is a pure function
    of the call shape, so sharing is safe as long as overrides are changed at
    points where all ranks are synchronised (e.g. between benchmark sweeps).
    """

    def __init__(
        self,
        table: Optional[DecisionTable] = None,
        forced: Optional[Mapping[str, str]] = None,
    ):
        self.table = table or DecisionTable()
        self._forced: Dict[str, str] = {}
        if forced:
            self.force_many(forced)

    # ----------------------------------------------------------------- forcing

    def force(self, collective: str, algorithm: Optional[str]) -> None:
        """Force ``collective`` to ``algorithm`` (``None`` clears the force)."""
        _validate_collective(collective)
        if algorithm is None:
            self._forced.pop(collective, None)
            return
        _validate_pair(collective, algorithm)
        self._forced[collective] = algorithm

    def force_many(self, forced: Mapping[str, str]) -> None:
        """Force several collectives at once."""
        for collective, algorithm in forced.items():
            self.force(collective, algorithm)

    def forced(self) -> Dict[str, str]:
        """Snapshot of the active forces."""
        return dict(self._forced)

    # --------------------------------------------------------------- selection

    def decide(self, collective: str, nbytes: int, nranks: int) -> str:
        """Algorithm for one call: the forced override, else the table."""
        forced = self._forced.get(collective)
        if forced is not None:
            return forced
        return self.table.decide(collective, nbytes, nranks)
