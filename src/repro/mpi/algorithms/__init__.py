"""Pluggable collective-algorithm subsystem.

Mirrors the role of Open MPI's ``coll/tuned`` component for the simulated
host MPI library: every collective has several interchangeable algorithms
-- each a schedule builder (:mod:`repro.mpi.algorithms.schedule`) -- in a
registry keyed by ``(collective, algorithm)``, and a
size-based decision layer picks one per call -- overridable per job through
``collective_algorithms`` of :class:`repro.api.config.ResolvedConfig` (the
``REPRO_COLL_ALGO`` environment knob, a config file or a keyword; see
:mod:`repro.mpi.algorithms.decision`).

Importing this package populates the registry with the bundled algorithms:

========== =====================================
collective algorithms
========== =====================================
barrier    dissemination, linear
bcast      binomial, scatter_allgather
reduce     binomial, rabenseifner
allreduce  recursive_doubling, ring, reduce_bcast
gather     linear, binomial
scatter    linear, binomial
allgather  ring, bruck
alltoall   pairwise, linear
========== =====================================
"""

from __future__ import annotations

from repro.mpi.algorithms import registry
from repro.mpi.algorithms.base import CollectiveContext, coll_tag
from repro.mpi.algorithms.decision import (
    ENV_KNOB,
    CollectiveSelector,
    DecisionTable,
    Rule,
)

# Importing the implementation modules registers the bundled algorithms.
from repro.mpi.algorithms import (  # noqa: E402,F401  (import for side effect)
    allgather,
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather_scatter,
    reduce,
)

__all__ = [
    "CollectiveContext",
    "CollectiveSelector",
    "DecisionTable",
    "ENV_KNOB",
    "Rule",
    "coll_tag",
    "registry",
]
