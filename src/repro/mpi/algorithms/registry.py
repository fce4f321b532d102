"""Registry of collective algorithms, keyed by ``(collective, algorithm)``.

Mirrors the structure of Open MPI's ``coll`` framework: each collective
operation has several interchangeable algorithm implementations registered
under short names (``"binomial"``, ``"ring"``, ...), and a decision layer
(:mod:`repro.mpi.algorithms.decision`) picks one per call based on message
size and communicator size -- unless an override forces a specific one.

A registered algorithm *is* its schedule builder: a pure function of the
call shape returning one rank's :class:`~repro.mpi.algorithms.schedule.Schedule`,
with a fixed signature per collective (listed in
:mod:`repro.mpi.algorithms.schedule`).  Blocking and non-blocking entry
points of the runtime execute the same schedule, so there is nothing else to
register.

The one backing store is the unified registry
(:data:`repro.api.registry.ALGORITHMS`, composite keys
``"<collective>:<algorithm>"``); this module keeps the collective-specific
API (tuple-keyed registration, per-collective catalogues) on top of it, and
third-party algorithms may equivalently use
``@repro.api.register_algorithm(collective, name)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.api.registry import ALGORITHMS, DuplicateEntryError, UnknownEntryError

#: The collectives the subsystem dispatches.
COLLECTIVES = (
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
)


class UnknownAlgorithmError(KeyError):
    """Raised when a (collective, algorithm) pair is not registered."""


def _key(collective: str, name: str) -> str:
    return f"{collective}:{name}"


def register(collective: str, name: str) -> Callable[[Callable], Callable]:
    """Decorator registering schedule builder ``fn`` as algorithm ``name`` of
    ``collective``."""
    if collective not in COLLECTIVES:
        raise ValueError(f"unknown collective {collective!r}; known: {COLLECTIVES}")

    def decorator(fn: Callable) -> Callable:
        try:
            ALGORITHMS.register(_key(collective, name), obj=fn)
        except DuplicateEntryError:
            raise ValueError(
                f"algorithm {name!r} already registered for {collective!r}"
            ) from None
        return fn

    return decorator


def get(collective: str, name: str) -> Callable:
    """The schedule builder of algorithm ``name`` for ``collective``."""
    try:
        return ALGORITHMS.get(_key(collective, name))
    except UnknownEntryError:
        known = algorithms_for(collective)
        raise UnknownAlgorithmError(
            f"no algorithm {name!r} for collective {collective!r}; known: {known}"
        ) from None


def algorithms_for(collective: str) -> List[str]:
    """Names of every algorithm registered for ``collective``."""
    prefix = f"{collective}:"
    return sorted(
        key[len(prefix):] for key in ALGORITHMS.names() if key.startswith(prefix)
    )


def is_registered(collective: str, name: str) -> bool:
    """Whether ``(collective, name)`` is a registered algorithm."""
    return ALGORITHMS.contains(_key(collective, name))


def catalog() -> Dict[str, List[str]]:
    """Snapshot of the full registry: collective -> algorithm names."""
    return {collective: algorithms_for(collective) for collective in COLLECTIVES}
