"""Golden outputs of the functional paper drivers.

The drivers below run real simulated jobs, so every number they report --
per-size rows, makespans, overlap summaries, collective counters -- is
deterministic virtual time and is pinned with ``==`` against
``tests/golden/paper_drivers.json``.  A change that moves a simulated number
regenerates the file with ``pytest tests/test_paper_drivers.py
--update-golden`` and lists the moved points in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.api import Session, use_session
from repro.benchmarks_suite.imb import COLLECTIVE_ROUTINES
from repro.harness.experiments import functional_crosscheck, imb_algorithm_sweep, nbc_overlap

GOLDEN = Path(__file__).parent / "golden" / "paper_drivers.json"

DRIVERS = {
    "nbc_overlap": nbc_overlap,
    "functional_crosscheck": functional_crosscheck,
    **{
        f"imb_algorithm_sweep:{routine}": functools.partial(imb_algorithm_sweep, routine=routine)
        for routine in COLLECTIVE_ROUTINES
    },
}


def _run(name: str):
    with Session(backend="cranelift") as session, use_session(session):
        # Through JSON, as the file holds it: integer size keys become strings.
        return json.loads(json.dumps(DRIVERS[name]()))


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_paper_driver_output_is_golden(name, request):
    measured = _run(name)
    if request.config.getoption("--update-golden"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[name] = measured
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert json.loads(GOLDEN.read_text())[name] == measured


def test_golden_file_covers_exactly_the_drivers():
    assert set(json.loads(GOLDEN.read_text())) == set(DRIVERS)
    assert len(COLLECTIVE_ROUTINES) == 7
