"""Consolidated access to the ``REPRO_*`` environment variables.

Every environment read in the code base goes through this module, and job
configuration is read through it exactly once per entry point: by
:meth:`repro.api.config.ResolvedConfig.resolve` (and by
:func:`repro.api.session.default_session`, which re-resolves when the
``REPRO_*`` snapshot changes).  Nothing below a ``Session`` reads the
environment again, and nothing in ``src/`` writes it (the
``env-resolved-once`` lint rule enforces both).  Centralising the reads buys
two things:

* one catalogue (:data:`KNOWN_ENV_VARS`) of every knob the system honours,
  used by the docs generator and the layered-config provenance,
* uniform parsing (:func:`env_flag`, :func:`parse_bool`) instead of ad-hoc
  ``os.environ.get`` conventions at call sites.

This module is intentionally a *leaf*: it imports nothing from ``repro``.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional

#: Namespace prefix shared by every environment knob.
ENV_PREFIX = "REPRO_"

#: Catalogue of every honoured environment variable and what it controls.
#: (Layered configuration reads these between the config file and explicit
#: kwargs; see :class:`repro.api.config.ResolvedConfig`.)
KNOWN_ENV_VARS: Dict[str, str] = {
    "REPRO_BACKEND": "default compiler back-end (singlepass | cranelift | llvm)",
    "REPRO_MACHINE": "default machine preset name (supermuc-ng, graviton2, ...)",
    "REPRO_NRANKS": "default rank count for Session.run",
    "REPRO_CACHE_DIR": "on-disk AoT compilation cache directory (unset: in-memory only)",
    "REPRO_CACHE": "set to 0/false to disable the AoT compilation cache entirely",
    "REPRO_VALIDATE": "set to 0/false to skip Wasm module validation before compiling",
    "REPRO_MAX_CALL_DEPTH": "guest call-stack depth limit enforced by the executor",
    "REPRO_MEMORY_PAGES": "override the module's declared minimum linear-memory pages",
    "REPRO_COLL_ALGO": "force collective algorithms, e.g. 'allreduce:ring,bcast:binomial'",
    "REPRO_WORKERS": "default worker-process count for campaigns",
    "REPRO_TRACE": "set to 1/true to record per-rank MPI event traces (repro.obs)",
    "REPRO_CONFIG": "path to a JSON config file merged below env vars and kwargs",
    "REPRO_BENCH_SMOKE": "set to 1 to run the benchmark suite in fast smoke mode",
    "REPRO_BENCH_WRITE": "set to 1 to let the benchmarks rewrite the tracked BENCH_*.json files",
}

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"0", "false", "no", "off", ""})


def read_env(name: str, default: Optional[str] = None,
             environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """Raw string value of one environment variable (``default`` if unset)."""
    environ = os.environ if environ is None else environ
    return environ.get(name, default)


def parse_bool(raw: str, name: str) -> bool:
    """Parse a boolean knob value: 1/true/yes/on vs 0/false/no/off (or empty).

    The single source of truth for boolean tokens -- used by both
    :func:`env_flag` and the layered-config field parsers.
    """
    lowered = raw.strip().lower()
    if lowered in _TRUE_VALUES:
        return True
    if lowered in _FALSE_VALUES:
        return False
    raise ValueError(f"{name} must be a boolean flag (got {raw!r})")


def env_flag(name: str, default: bool = False,
             environ: Optional[Mapping[str, str]] = None) -> bool:
    """Boolean environment knob: 1/true/yes/on vs 0/false/no/off (or empty)."""
    raw = read_env(name, None, environ)
    if raw is None:
        return default
    return parse_bool(raw, name)


def snapshot(environ: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """All currently-set ``REPRO_*`` variables (known or not)."""
    environ = os.environ if environ is None else environ
    return {k: v for k, v in environ.items() if k.startswith(ENV_PREFIX)}


def config_file(environ: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """``REPRO_CONFIG`` (``None`` when unset or empty)."""
    return read_env("REPRO_CONFIG", None, environ) or None

