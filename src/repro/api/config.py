"""Layered session configuration with recorded provenance.

A :class:`ResolvedConfig` is built from four layers, lowest priority first::

    built-in defaults  <  config file (JSON)  <  REPRO_* environment  <  kwargs

:meth:`ResolvedConfig.resolve` is the one place job configuration is read
from the environment (through :mod:`repro.core.envvars`); everything below a
``Session`` is handed resolved values.  The winning layer of every field is
recorded in :attr:`ResolvedConfig.provenance` -- so
``session.config.explain()`` can answer "why is the backend cranelift?" with
``env:REPRO_BACKEND`` instead of a debugging session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core import envvars
from repro.wasm.types import MemoryType

_UNSET = object()


def _parse_algorithms(raw: object) -> Dict[str, str]:
    """Accept the env-knob string syntax or a plain mapping."""
    if isinstance(raw, Mapping):
        return {str(k): str(v) for k, v in raw.items()}
    from repro.mpi.algorithms.decision import parse_env_knob

    return parse_env_knob(str(raw))


def _parse_memory_pages(raw: object) -> Optional[int]:
    """A page count a wasm32 memory can have, from any layer."""
    if raw is None:
        return None
    pages = int(raw)
    if not 0 <= pages <= MemoryType.MAX_PAGES:
        raise ValueError(
            f"memory_pages (REPRO_MEMORY_PAGES) must be in 0..{MemoryType.MAX_PAGES}, got {pages}"
        )
    return pages


@dataclass(frozen=True)
class _Field:
    """One configurable knob: its default, env var, and parser."""

    name: str
    default: Any
    env: Optional[str] = None
    parse: Optional[Callable[[str], Any]] = None       # env-string -> value
    coerce: Optional[Callable[[Any], Any]] = None      # file/kwarg value -> value


#: Every field of :class:`ResolvedConfig`, in declaration order.
FIELDS: Tuple[_Field, ...] = (
    _Field("backend", "llvm", "REPRO_BACKEND"),
    _Field("machine", "supermuc-ng", "REPRO_MACHINE"),
    _Field("nranks", 4, "REPRO_NRANKS", parse=int, coerce=int),
    _Field("ranks_per_node", None, None, coerce=lambda v: None if v is None else int(v)),
    _Field("cache_dir", None, "REPRO_CACHE_DIR",
           parse=lambda raw: raw or None,
           coerce=lambda v: str(v) if v else None),
    _Field("enable_cache", True, "REPRO_CACHE",
           parse=lambda raw: envvars.parse_bool(raw, "REPRO_CACHE"), coerce=bool),
    _Field("validate", True, "REPRO_VALIDATE",
           parse=lambda raw: envvars.parse_bool(raw, "REPRO_VALIDATE"), coerce=bool),
    _Field("memory_pages", None, "REPRO_MEMORY_PAGES",
           parse=_parse_memory_pages, coerce=_parse_memory_pages),
    _Field("max_call_depth", 256, "REPRO_MAX_CALL_DEPTH", parse=int, coerce=int),
    _Field("collective_algorithms", {}, "REPRO_COLL_ALGO",
           parse=_parse_algorithms, coerce=_parse_algorithms),
    _Field("guest_args", (), None, coerce=lambda v: tuple(str(a) for a in v)),
    _Field("workers", 1, "REPRO_WORKERS", parse=int, coerce=int),
    _Field("trace", False, "REPRO_TRACE",
           parse=lambda raw: envvars.parse_bool(raw, "REPRO_TRACE"), coerce=bool),
)

_FIELD_BY_NAME: Dict[str, _Field] = {f.name: f for f in FIELDS}


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully-resolved session configuration plus per-field provenance."""

    backend: str = "llvm"
    machine: str = "supermuc-ng"
    nranks: int = 4
    ranks_per_node: Optional[int] = None
    cache_dir: Optional[str] = None
    enable_cache: bool = True
    validate: bool = True
    memory_pages: Optional[int] = None
    max_call_depth: int = 256
    collective_algorithms: Dict[str, str] = field(default_factory=dict)
    guest_args: Tuple[str, ...] = ()
    workers: int = 1
    trace: bool = False
    #: Winning layer per field: "default", "file:<path>", "env:<VAR>", "kwarg".
    provenance: Dict[str, str] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------ resolution

    @classmethod
    def resolve(
        cls,
        base: Union["ResolvedConfig", Mapping[str, Any], None] = None,
        *,
        config_file: Union[str, Path, None, object] = _UNSET,
        environ: Optional[Mapping[str, str]] = None,
        **overrides: Any,
    ) -> "ResolvedConfig":
        """Layer defaults < config file < environment < explicit kwargs.

        ``base`` may be a mapping (treated as additional kwargs, beaten by
        explicit ``overrides``) or an existing :class:`ResolvedConfig`, in
        which case only ``overrides`` are applied on top of it -- the file and
        environment layers were already considered when it was resolved.

        ``config_file`` defaults to ``$REPRO_CONFIG`` when set; pass ``None``
        explicitly to ignore the environment's config file.
        """
        if isinstance(base, ResolvedConfig):
            values = {f.name: getattr(base, f.name) for f in FIELDS}
            provenance = dict(base.provenance)
        else:
            values = {f.name: (dict(f.default) if isinstance(f.default, dict)
                               else f.default) for f in FIELDS}
            provenance = {f.name: "default" for f in FIELDS}
            if isinstance(base, Mapping):
                merged = dict(base)
                merged.update(overrides)
                overrides = merged

            # ---- layer 2: config file ---------------------------------------
            path = (envvars.config_file(environ) if config_file is _UNSET
                    else config_file)
            if path is not None:
                path = Path(path)
                try:
                    data = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    raise ValueError(f"cannot load config file {path}: {exc}") from exc
                if not isinstance(data, Mapping):
                    raise ValueError(f"config file {path} must hold a JSON object")
                unknown = set(data) - set(_FIELD_BY_NAME)
                if unknown:
                    raise ValueError(
                        f"unknown config file keys {sorted(unknown)} in {path}; "
                        f"known: {sorted(_FIELD_BY_NAME)}"
                    )
                for key, raw in data.items():
                    spec = _FIELD_BY_NAME[key]
                    values[key] = spec.coerce(raw) if spec.coerce else raw
                    provenance[key] = f"file:{path}"

            # ---- layer 3: environment ---------------------------------------
            for spec in FIELDS:
                if spec.env is None:
                    continue
                raw = envvars.read_env(spec.env, None, environ)
                if raw is None:
                    continue
                try:
                    values[spec.name] = spec.parse(raw) if spec.parse else raw
                except (ValueError, KeyError) as exc:   # KeyError: unknown algorithm
                    raise ValueError(f"invalid {spec.env}={raw!r}: {exc}") from exc
                provenance[spec.name] = f"env:{spec.env}"

        # ---- layer 4: explicit kwargs ---------------------------------------
        unknown = set(overrides) - set(_FIELD_BY_NAME)
        if unknown:
            raise ValueError(
                f"unknown configuration fields {sorted(unknown)}; "
                f"known: {sorted(_FIELD_BY_NAME)}"
            )
        for key, raw in overrides.items():
            spec = _FIELD_BY_NAME[key]
            values[key] = (spec.coerce(raw)
                           if spec.coerce and raw is not None else raw)
            provenance[key] = "kwarg"

        return cls(provenance=provenance, **values)

    def replaced(self, **overrides: Any) -> "ResolvedConfig":
        """Copy with selected fields overridden (provenance: ``kwarg``)."""
        return self.resolve(self, **overrides)

    # ------------------------------------------------------------- reporting

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view of every field (no provenance)."""
        return {f.name: getattr(self, f.name) for f in FIELDS}

    def explain(self) -> str:
        """Human-readable ``field = value  (source layer)`` listing."""
        lines = []
        for spec in FIELDS:
            source = self.provenance.get(spec.name, "default")
            lines.append(f"{spec.name} = {getattr(self, spec.name)!r}  ({source})")
        return "\n".join(lines)

    # -------------------------------------------------------------- adapters

    def embedder_config(self, **overrides: Any):
        """Materialise an :class:`repro.core.config.EmbedderConfig`.

        ``overrides`` replace individual embedder fields (``compiler_backend``,
        ``cache_dir``, ...) without re-running the layering.
        """
        from repro.core.config import EmbedderConfig

        kwargs: Dict[str, Any] = dict(
            compiler_backend=self.backend,
            cache_dir=self.cache_dir,
            enable_cache=self.enable_cache,
            memory_pages=self.memory_pages,
            max_call_depth=self.max_call_depth,
            validate=self.validate,
            guest_args=tuple(self.guest_args),
            collective_algorithms=dict(self.collective_algorithms),
        )
        kwargs.update(overrides)
        return EmbedderConfig(**kwargs)


__all__ = ["ResolvedConfig", "FIELDS"]
