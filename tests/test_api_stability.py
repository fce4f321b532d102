"""API-stability gate: the public surface matches the checked-in manifest
and the generated docs cover it."""

from __future__ import annotations

import json
from pathlib import Path

import repro.api as api

DOCS = Path(__file__).resolve().parent.parent / "docs"


# ------------------------------------------------------------- surface contract


def test_all_matches_checked_in_manifest():
    manifest = json.loads((DOCS / "api_manifest.json").read_text())
    assert manifest["api_version"] == api.API_VERSION
    assert manifest["names"] == sorted(api.__all__), (
        "repro.api.__all__ drifted from docs/api_manifest.json; if the change "
        "is intentional, regenerate with `python -m repro.api.docgen`"
    )


def test_every_public_name_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_docs_api_md_covers_the_surface():
    text = (DOCS / "API.md").read_text()
    for name in api.__all__:
        assert f"`{name}`" in text, f"docs/API.md is missing {name}"


def test_session_path_emits_no_deprecation_warnings(recwarn):
    """The new front door must be warning-free -- including the embedders it
    constructs internally and the mpiwasm-run CLI built on it."""
    import warnings

    from repro.api import Session

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with Session(machine="graviton2", backend="cranelift") as session:
            job = session.run("pingpong", 2)
        assert job.exit_codes() == [0, 0]


def test_launcher_cli_is_warning_free(capsys):
    import warnings

    from repro.core.launcher import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["pingpong", "-np", "2", "--machine", "graviton2",
                     "--backend", "cranelift"]) == 0
    assert "mode=wasm" in capsys.readouterr().out
