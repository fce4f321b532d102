"""Registry of collective algorithms, keyed by ``(collective, algorithm)``.

Mirrors the structure of Open MPI's ``coll`` framework: each collective
operation has several interchangeable algorithm implementations registered
under short names (``"binomial"``, ``"ring"``, ...), and a decision layer
(:mod:`repro.mpi.algorithms.decision`) picks one per call based on message
size and communicator size -- unless an override forces a specific one.

A registered algorithm *is* its schedule builder: a pure function of the
call shape returning one rank's :class:`~repro.mpi.algorithms.schedule.Schedule`.
What a call of each collective looks like -- the builder's signature, the
named buffers its schedules use, how large each is and which ranks' callers
supply or receive it -- is stated once, in :data:`CONTRACTS`; the runtime's
``MPI_<C>``/``MPI_I<c>`` entry points, the embedder imports and the schedule
analyzer all read that table, so a new collective is one row plus its
builders (and its two lines in the guest ABI).

The one backing store is the unified registry
(:data:`repro.api.registry.ALGORITHMS`, composite keys
``"<collective>:<algorithm>"``); this module keeps the collective-specific
API (tuple-keyed registration, per-collective catalogues) on top of it, and
third-party algorithms may equivalently use
``@repro.api.register_algorithm(collective, name)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.api.registry import ALGORITHMS, DuplicateEntryError, UnknownEntryError

# ------------------------------------------------------------- call contracts

#: Payload arguments of a builder, between ``(rank, size`` and ``[root,] seq)``.
NO_PAYLOAD = "none"     # build(rank, size, seq)
NBYTES = "nbytes"       # build(rank, size, nbytes_per_rank, [root,] seq)
ELEMENTS = "elements"   # build(rank, size, count, esize, [root,] seq)

#: How a builder is called for each (payload kind, rooted) -- the per-collective
#: builder signatures, as code.  A block is ``count`` elements of ``esize``
#: bytes; byte-addressed collectives see only the product.
_BUILDER_CALLS = {
    (NO_PAYLOAD, False): lambda b, rank, size, count, esize, root, seq: b(rank, size, seq),
    (NBYTES, False): lambda b, rank, size, count, esize, root, seq: (
        b(rank, size, count * esize, seq)),
    (NBYTES, True): lambda b, rank, size, count, esize, root, seq: (
        b(rank, size, count * esize, root, seq)),
    (ELEMENTS, False): lambda b, rank, size, count, esize, root, seq: (
        b(rank, size, count, esize, seq)),
    (ELEMENTS, True): lambda b, rank, size, count, esize, root, seq: (
        b(rank, size, count, esize, root, seq)),
}


class Buffer(NamedTuple):
    """One named schedule buffer, seen from the caller of the collective."""

    #: Name the builders' steps use.
    key: str
    #: Extent: one block per rank of the communicator, else one block.
    per_rank: bool
    #: Only the root's caller supplies (input) / receives (output) it, and
    #: only the root's schedule may reference it; else every rank's.
    root_only: bool


class Contract:
    """The call contract of one collective: one row of :data:`CONTRACTS`."""

    __slots__ = ("name", "payload", "rooted", "input", "output", "build")

    def __init__(self, name: str, payload: str, rooted: bool,
                 input: Optional[Buffer] = None, output: Optional[Buffer] = None):
        self.name = name
        #: Builder payload arguments: NO_PAYLOAD, NBYTES or ELEMENTS.
        self.payload = payload
        #: Whether the call (and the builder) carries a root rank.
        self.rooted = rooted
        #: The buffer the caller's data is staged into / the result is copied
        #: out of (the same buffer when the collective works in place).
        self.input = input
        self.output = output
        #: ``build(builder, rank, size, count, esize, root, seq) -> Schedule``:
        #: calls a registered builder of this collective with its signature.
        self.build = _BUILDER_CALLS[payload, rooted]

    @property
    def mpi_names(self) -> Tuple[str, str]:
        """``("MPI_<C>", "MPI_I<c>")``: the blocking and non-blocking function."""
        return f"MPI_{self.name.capitalize()}", f"MPI_I{self.name}"

    def buffers(self, is_root: bool, block: int,
                size: int) -> Tuple[Optional[Buffer], int, Optional[Buffer], int]:
        """``(input, its bytes, output, its bytes)`` as one rank's call
        involves them, for ``block``-byte blocks on ``size`` ranks: a buffer
        only the root uses is ``None`` (0 bytes) on every other rank."""
        source, result = self.input, self.output
        in_bytes = out_bytes = 0
        if source is not None:
            if source.root_only and not is_root:
                source = None
            else:
                in_bytes = block * size if source.per_rank else block
        if result is not None:
            if result.root_only and not is_root:
                result = None
            else:
                out_bytes = block * size if result.per_rank else block
        return source, in_bytes, result, out_bytes


#: The call contract of every collective the subsystem dispatches.
CONTRACTS: Dict[str, Contract] = {row.name: row for row in (
    Contract("barrier", NO_PAYLOAD, rooted=False),
    Contract("bcast", NBYTES, rooted=True,
             input=Buffer("data", per_rank=False, root_only=True),
             output=Buffer("data", per_rank=False, root_only=False)),
    Contract("reduce", ELEMENTS, rooted=True,
             input=Buffer("acc", per_rank=False, root_only=False),
             output=Buffer("recv", per_rank=False, root_only=True)),
    Contract("allreduce", ELEMENTS, rooted=False,
             input=Buffer("acc", per_rank=False, root_only=False),
             output=Buffer("acc", per_rank=False, root_only=False)),
    Contract("gather", NBYTES, rooted=True,
             input=Buffer("send", per_rank=False, root_only=False),
             output=Buffer("recv", per_rank=True, root_only=True)),
    Contract("scatter", NBYTES, rooted=True,
             input=Buffer("send", per_rank=True, root_only=True),
             output=Buffer("recv", per_rank=False, root_only=False)),
    Contract("allgather", NBYTES, rooted=False,
             input=Buffer("send", per_rank=False, root_only=False),
             output=Buffer("recv", per_rank=True, root_only=False)),
    Contract("alltoall", NBYTES, rooted=False,
             input=Buffer("send", per_rank=True, root_only=False),
             output=Buffer("recv", per_rank=True, root_only=False)),
)}

#: The collectives the subsystem dispatches.
COLLECTIVES = tuple(CONTRACTS)


class UnknownAlgorithmError(KeyError):
    """Raised when a (collective, algorithm) pair is not registered."""


def _key(collective: str, name: str) -> str:
    return f"{collective}:{name}"


def register(collective: str, name: str) -> Callable[[Callable], Callable]:
    """Decorator registering schedule builder ``fn`` as algorithm ``name`` of
    ``collective``."""
    if collective not in CONTRACTS:
        raise ValueError(f"no call contract for collective {collective!r}; known: {COLLECTIVES}")

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
