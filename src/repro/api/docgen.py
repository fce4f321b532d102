"""Generator for ``docs/API.md`` -- the public-surface reference table.

Run ``python -m repro.api.docgen`` from the repository root after changing
the public surface; the CI ``api-stability`` job asserts that
``repro.api.__all__`` matches ``docs/api_manifest.json`` and that every
public name appears in ``docs/API.md``.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path


def _kind(obj: object) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    from repro.api.registry import Registry

    if isinstance(obj, Registry):
        return "registry"
    return type(obj).__name__

def _summary(obj: object) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().splitlines()[0] if doc.strip() else ""
    return first.rstrip(".")


def generate_api_md() -> str:
    """Render the ``docs/API.md`` markdown document."""
    import repro.api as api

    lines = [
        "# `repro.api` -- public surface reference",
        "",
        "*Generated by `python -m repro.api.docgen`; do not edit by hand.*",
        "",
        f"API version: **{api.API_VERSION}** -- `repro.api.__all__` is the",
        "compatibility contract, asserted against `docs/api_manifest.json` by the",
        "CI `api-stability` job.",
        "",
        "## Public names (`repro.api.__all__`)",
        "",
        "| name | kind | summary |",
        "|------|------|---------|",
    ]
    for name in sorted(api.__all__):
        obj = getattr(api, name)
        from repro.api.registry import Registry

        if name == "API_VERSION":
            kind, summary = "str", "version of the public API contract"
        elif isinstance(obj, Registry):
            kind = "registry"
            summary = f"unified registry of every {obj.kind} ({len(obj)} bundled)"
        else:
            kind, summary = _kind(obj), _summary(obj)
        lines.append(f"| `{name}` | {kind} | {summary} |")
    lines += [
        "",
        "## Environment variables",
        "",
        "Job configuration is read from the environment in one place,",
        "`ResolvedConfig.resolve` (through `repro.core.envvars`), which applies",
        "it between the config file and explicit kwargs; nothing below a",
        "`Session` reads `REPRO_*` again.",
        "",
        "| variable | controls |",
        "|----------|----------|",
    ]
    from repro.core.envvars import KNOWN_ENV_VARS

    for var, doc in sorted(KNOWN_ENV_VARS.items()):
        lines.append(f"| `{var}` | {doc} |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    """Write ``docs/API.md`` and ``docs/api_manifest.json``."""
    import repro.api as api

    docs = Path("docs")
    docs.mkdir(exist_ok=True)
    (docs / "API.md").write_text(generate_api_md(), encoding="utf-8")
    (docs / "api_manifest.json").write_text(
        json.dumps({"api_version": api.API_VERSION,
                    "names": sorted(api.__all__)}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote docs/API.md and docs/api_manifest.json ({len(api.__all__)} names)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
