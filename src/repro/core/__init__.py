"""MPIWasm -- the paper's core contribution.

``repro.core`` contains the embedder: its translation-cost model, the
per-instance ``Env`` state, address and datatype translation, the
``env.MPI_*`` import implementations, the WASI wiring, the ``REPRO_*``
environment catalogue (:mod:`repro.core.envvars`), and the ``mpiwasm-run``
launcher CLI.  The embedder's settings are a
:class:`repro.api.config.ResolvedConfig`.

The programmatic front door -- the only way a job runs -- is
:class:`repro.api.Session`.

Attribute access is lazy (PEP 562): low-level modules (the compiler
back-ends, the layered configuration) import ``repro.core.envvars`` /
``repro.api.registry`` during *their* import, which executes this package
``__init__`` -- it must therefore not eagerly re-import the execution stack
on top of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

#: name -> submodule that defines it (resolved lazily on first access).
_EXPORT_SOURCES = {
    "OVERHEADS": "config",
    "TranslationOverheadModel": "config",
    "MPIWasm": "embedder",
    "GuestResult": "embedder",
    "Env": "env",
    "HandleTable": "env",
    "GuestAPI": "guest_api",
    "AddressTranslator": "memory_translation",
    "DatatypeTranslator": "datatype_translation",
    "DatatypeTranslationError": "datatype_translation",
    "JobResult": "launcher",
}

__all__ = list(_EXPORT_SOURCES)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.core.config import OVERHEADS, TranslationOverheadModel  # noqa: F401
    from repro.core.datatype_translation import (  # noqa: F401
        DatatypeTranslationError,
        DatatypeTranslator,
    )
    from repro.core.embedder import GuestResult, MPIWasm  # noqa: F401
    from repro.core.env import Env, HandleTable  # noqa: F401
    from repro.core.guest_api import GuestAPI  # noqa: F401
    from repro.core.launcher import JobResult  # noqa: F401
    from repro.core.memory_translation import AddressTranslator  # noqa: F401


def __getattr__(name: str):
    source = _EXPORT_SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"repro.core.{source}")
    value = getattr(module, name)
    globals()[name] = value          # cache for subsequent accesses
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
