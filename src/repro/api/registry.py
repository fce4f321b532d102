"""Unified registry subsystem: one discovery/registration mechanism for every
extension point of the embedder.

Before this module each pluggable axis had its own hand-rolled dict with its
own registration idiom: compiler back-ends (``repro.wasm.compilers.base``),
machine presets (``repro.sim.machines``), benchmarks
(``repro.benchmarks_suite.registry``), collective algorithms
(``repro.mpi.algorithms.registry``) and experiment drivers
(``repro.harness.experiments``).  They now all share :class:`Registry`:

* **one decorator-based registration mechanism** (``@register_backend``,
  ``@register_machine``, ``@register_benchmark``, ``@register_algorithm``,
  ``@register_experiment``, ``@register_mode``) usable by third-party code
  without editing core modules,
* **helpful lookup failures**: an unknown name raises
  :class:`UnknownEntryError` (a ``KeyError`` subclass) that names the
  registry and lists everything registered, instead of a bare ``KeyError``,
* **explicit override semantics**: re-registering a name raises
  :class:`DuplicateEntryError` unless ``override=True`` is passed,
* **lazy population**: each registry knows which module(s) provide the
  bundled entries and imports them on first lookup, so ``repro.api`` stays
  cheap to import.

This module is a *leaf* (stdlib imports only); the provider modules import it
and register themselves, never the other way round.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class UnknownEntryError(KeyError):
    """Lookup of a name that is not registered; lists what is."""

    def __init__(self, kind: str, name: str, known: Sequence[str]):
        self.kind = kind
        self.name = name
        self.known = list(known)
        super().__init__(f"unknown {kind} {name!r}; known: {self.known}")


class DuplicateEntryError(ValueError):
    """Registration of a name that is already taken (without ``override``)."""


class Registry:
    """A named mapping of string keys to registered objects.

    ``entries`` is the live backing dict -- legacy module-level tables
    (``PRESETS``, ``EXPERIMENT_DRIVERS``, ...) alias it so existing imports
    keep observing registrations made through the new mechanism.
    """

    def __init__(self, kind: str, *, populate: Sequence[str] = ()):
        self.kind = kind
        self._populate_modules = tuple(populate)
        self._populated = not self._populate_modules
        self._populating = False
        self._populate_lock = threading.RLock()
        self.entries: Dict[str, Any] = {}

    # ----------------------------------------------------------- population

    def _ensure_populated(self) -> None:
        if self._populated:
            return
        # The lock makes another thread's first lookup wait for the providers
        # instead of reading a half-filled registry.  It is re-entrant, so the
        # in-progress guard stops recursion when a provider module performs
        # lookups while it imports; the success flag is only set after every
        # provider imported cleanly, so a failed import is retried (and its
        # real error re-raised) on the next lookup instead of leaving the
        # registry permanently, silently empty.
        with self._populate_lock:
            if self._populated or self._populating:
                return
            self._populating = True
            try:
                for module in self._populate_modules:
                    importlib.import_module(module)
            finally:
                self._populating = False
            self._populated = True

    # --------------------------------------------------------- registration

    def register(self, name: Optional[str] = None, obj: Any = _MISSING, *,
                 override: bool = False):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        * ``registry.register("x", obj=thing)`` -- direct registration,
        * ``@registry.register("x")`` -- decorator form,
        * ``@registry.register()`` -- decorator form keyed on the target's
          ``name`` attribute (falling back to ``__name__``).
        """
        def add(target: Any, key: Optional[str]) -> Any:
            key = key or getattr(target, "name", None) or getattr(target, "__name__", None)
            if not isinstance(key, str) or not key:
                raise ValueError(
                    f"cannot infer a registration name for {target!r}; pass one explicitly"
                )
            if not override and key in self.entries:
                raise DuplicateEntryError(
                    f"{self.kind} {key!r} is already registered; "
                    f"pass override=True to replace it"
                )
            self.entries[key] = target
            return target

        if obj is not _MISSING:
            return add(obj, name)

        def decorator(target: Any) -> Any:
            return add(target, name)

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registration (idempotent)."""
        self.entries.pop(name, None)

    # --------------------------------------------------------------- lookup

    def get(self, name: str) -> Any:
        """Registered object for ``name``; :class:`UnknownEntryError` if absent."""
        self._ensure_populated()
        try:
            return self.entries[name]
        except KeyError:
            raise UnknownEntryError(self.kind, name, self.names()) from None

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        self._ensure_populated()
        return sorted(self.entries)

    def items(self) -> List[Tuple[str, Any]]:
        """(name, object) pairs, sorted by name."""
        self._ensure_populated()
        return sorted(self.entries.items())

    def contains(self, name: str) -> bool:
        """Whether ``name`` is registered."""
        self._ensure_populated()
        return name in self.entries

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.contains(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self.entries)} entries)"


# ------------------------------------------------------- the named registries

#: Compiler back-ends (instances of ``repro.wasm.compilers.base.CompilerBackend``).
BACKENDS = Registry("compiler backend", populate=("repro.wasm.compilers",))

#: Machine presets (``repro.sim.machines.MachinePreset`` instances).
MACHINES = Registry("machine preset", populate=("repro.sim.machines",))

#: Guest benchmarks (zero-argument factories returning a ``GuestProgram``).
BENCHMARKS = Registry("benchmark", populate=("repro.benchmarks_suite.registry",))

#: Collective algorithms, keyed ``"<collective>:<algorithm>"``; each entry is
#: the algorithm's schedule builder (the only store -- the MPI layer's
#: ``get_builder``/``registry.get`` read it).
ALGORITHMS = Registry("collective algorithm", populate=("repro.mpi.algorithms",))

#: Experiment drivers (one callable per table/figure of the paper).
EXPERIMENTS = Registry("experiment driver", populate=("repro.harness.experiments",))

#: Execution modes for ``Session.run`` ("wasm", "native", ...).
MODES = Registry("execution mode",
                 populate=("repro.api.session", "repro.baselines.native"))


# ------------------------------------------------------- typed entry points


def register_backend(backend: Any = None, *, name: Optional[str] = None,
                     override: bool = False):
    """Register a compiler back-end instance (keyed on its ``name`` attribute).

    Usable directly (``register_backend(MyBackend())``) or as a class
    decorator, in which case the class is instantiated once and the instance
    registered -- the shape third-party back-ends are expected to use.
    """
    def add(target: Any) -> Any:
        instance = target() if isinstance(target, type) else target
        BACKENDS.register(name or getattr(instance, "name", None),
                          obj=instance, override=override)
        return target

    if backend is None:
        return add
    return add(backend)


def register_machine(preset: Any = None, *, name: Optional[str] = None,
                     override: bool = False):
    """Register a machine preset (an instance, or a factory used as decorator)."""
    def add(target: Any) -> Any:
        instance = target() if callable(target) else target
        MACHINES.register(name or getattr(instance, "name", None),
                          obj=instance, override=override)
        return target

    if preset is None:
        return add
    return add(preset)


def register_benchmark(name: str, *, override: bool = False):
    """Decorator registering a zero-argument ``GuestProgram`` factory."""
    return BENCHMARKS.register(name, override=override)


def register_experiment(name: str, *, override: bool = False):
    """Decorator registering an experiment (table/figure) driver callable."""
    return EXPERIMENTS.register(name, override=override)


def register_mode(name: str, *, override: bool = False):
    """Decorator registering a ``Session.run`` execution-mode runner."""
    return MODES.register(name, override=override)


def algorithm_key(collective: str, name: str) -> str:
    """Composite key the collective-algorithm registry uses."""
    return f"{collective}:{name}"


def register_algorithm(collective: str, name: str, *, override: bool = False):
    """Decorator registering a collective algorithm's schedule builder.

    The decorated function builds one rank's part of one call as a
    :class:`repro.mpi.algorithms.schedule.Schedule`, with the signature the
    collective's row of :data:`repro.mpi.algorithms.registry.CONTRACTS`
    states (``allreduce``: ``build(rank, size, count, esize, seq)``, ...),
    over the buffers that row names.  ``MPI_<Collective>`` runs
    the schedule to completion and ``MPI_I<collective>`` advances it
    incrementally, so a builder is all an algorithm consists of.  (Before
    the blocking twins were removed this registered a blocking function
    ``fn(cc, ...)``; that is the one deliberate contract change.)

    The collective must have a contract row.
    """
    from repro.mpi.algorithms import registry as mpi_registry

    if collective not in mpi_registry.CONTRACTS:
        raise ValueError(
            f"no call contract for collective {collective!r}; "
            f"known: {mpi_registry.COLLECTIVES}"
        )
    return ALGORITHMS.register(algorithm_key(collective, name), override=override)


__all__ = [
    "Registry",
    "UnknownEntryError",
    "DuplicateEntryError",
    "BACKENDS",
    "MACHINES",
    "BENCHMARKS",
    "ALGORITHMS",
    "EXPERIMENTS",
    "MODES",
    "register_backend",
    "register_machine",
    "register_benchmark",
    "register_algorithm",
    "register_experiment",
    "register_mode",
    "algorithm_key",
]
