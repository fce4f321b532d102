"""pytest-benchmark harness configuration.

Each file in this directory regenerates one table or figure of the paper and
is named after it.  ``pytest benchmarks/ --benchmark-only`` runs them all and
prints the regenerated headline numbers alongside the timing statistics.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.envvars import env_flag

REPO_ROOT = Path(__file__).resolve().parents[1]


def record_trajectory(filename: str, payload: dict) -> None:
    """Record ``payload`` in the tracked trajectory file ``filename``.

    The file is rewritten only under ``REPRO_BENCH_WRITE=1``, so a plain test
    run leaves the working tree clean.  Otherwise the committed file is read
    and must still carry the keys this benchmark produces -- a benchmark whose
    shape changed has to be re-recorded, not left beside a stale trajectory.
    """
    path = REPO_ROOT / filename
    if env_flag("REPRO_BENCH_WRITE"):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    committed = json.loads(path.read_text())
    assert set(committed) == set(payload), (
        f"{filename} is stale (keys {sorted(set(committed) ^ set(payload))} differ); "
        f"re-record it with REPRO_BENCH_WRITE=1"
    )


def report(title: str, lines) -> None:
    """Print a compact reproduction summary under the benchmark output."""
    print(f"\n--- {title} ---")
    for line in lines:
        print(line)
