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

from repro.api import Session, current_session, use_session
from repro.benchmarks_suite.imb import COLLECTIVE_ROUTINES, make_imb_suite_program
from repro.harness.experiments import functional_crosscheck, imb_algorithm_sweep, nbc_overlap

GOLDEN = Path(__file__).parent / "golden" / "paper_drivers.json"

#: imb-suite's gather-type routines at 64 KiB: their p-block buffers outgrow
#: the guest's 4 MiB initial memory, so every rank grows it while the
#: ``alloc_array`` views of its earlier buffers are alive.
GATHER_TYPE = make_imb_suite_program(
    routines=("allgather", "alltoall", "gather", "scatter"), message_sizes=(65536,), iterations=1
)
GATHER_TYPE_NRANKS = (16, 32)


def imb_gather_type_grow(mode: str = "wasm"):
    """Makespan and collective counters of :data:`GATHER_TYPE` per rank count."""
    out = {}
    for nranks in GATHER_TYPE_NRANKS:
        job = current_session().run(GATHER_TYPE, nranks, mode=mode)
        out[nranks] = {"makespan_s": job.makespan,
                       "collective_counters": job.metrics.collective_summary()}
    return out


DRIVERS = {
    "nbc_overlap": nbc_overlap,
    "functional_crosscheck": functional_crosscheck,
    **{
        f"imb_algorithm_sweep:{routine}": functools.partial(imb_algorithm_sweep, routine=routine)
        for routine in COLLECTIVE_ROUTINES
    },
    "imb_gather_type_grow": imb_gather_type_grow,
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


def test_gather_type_grow_counts_the_collectives_native_mode_counts():
    """The pinned wasm run of :data:`GATHER_TYPE` made the calls a native run
    makes: the embedder lost none to the memory growth."""
    golden = json.loads(GOLDEN.read_text())["imb_gather_type_grow"]
    with Session(backend="cranelift") as session, use_session(session):
        native = json.loads(json.dumps(imb_gather_type_grow(mode="native")))
    for nranks, pinned in golden.items():
        assert native[nranks]["collective_counters"] == pinned["collective_counters"], nranks


def test_golden_file_covers_exactly_the_drivers():
    assert set(json.loads(GOLDEN.read_text())) == set(DRIVERS)
    assert len(COLLECTIVE_ROUTINES) == 7
