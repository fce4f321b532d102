"""Golden virtual time of every registered collective algorithm.

Virtual time is deterministic, so it is pinned: for every registered
``(collective, algorithm)`` x nranks {5, 8} x payload {16 B, 64 KiB} x root
{0, last} (where rooted) the job makespan and every rank's final clock are
compared with ``==`` against ``tests/golden/collective_makespans.json``.
Every point is measured twice, as the blocking call and as ``I*`` + ``wait``:
one schedule loop runs both, so the two must leave every rank's clock
identical, and the file holds each point once.
A change that moves a simulated number must say so by regenerating the file
with ``pytest tests/test_golden_makespans.py --update-golden`` and committing
the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mpi.algorithms import registry
from repro.mpi.runtime import MPIRuntime, MPIWorld
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEngine
from repro.sim.machines import supermuc_ng
from tests.conftest import collective_args

GOLDEN = Path(__file__).parent / "golden" / "collective_makespans.json"

NRANKS = (5, 8)
PAYLOADS = (16, 65536)
ROOTED = ("bcast", "reduce", "gather", "scatter")
#: Two back-to-back calls per job, so the sequence-numbered tags and the
#: skew the first call leaves behind are part of what is pinned.
CALLS = 2

ALL_POINTS = [
    (collective, algorithm)
    for collective, algorithms in sorted(registry.catalog().items())
    for algorithm in algorithms
]


def _call(rt, collective: str, nonblocking: bool, *args) -> None:
    if nonblocking:
        rt.wait(getattr(rt, "i" + collective)(*args))
    else:
        getattr(rt, collective)(*args)


def _measure(collective: str, algorithm: str, nranks: int, nbytes: int, root: int,
             nonblocking: bool) -> dict:
    # Four ranks per node: both rank counts span two nodes, so intra- and
    # inter-node links are both on the pinned paths.
    cluster = Cluster(supermuc_ng(), nranks, 4)
    engine = SimEngine(nranks)
    world = MPIWorld.install(cluster, engine)
    world.collectives.force_many({collective: algorithm})

    def make(rank):
        def rank_main(ctx):
            rt = MPIRuntime(world, ctx)
            rt.init()
            for _ in range(CALLS):
                # The same bytes per rank for every collective: nbytes // 8 MPI_LONGs.
                args, _out = collective_args(collective, ctx.rank, nranks, root, nbytes // 8)
                _call(rt, collective, nonblocking, *args)
            rt.finalize()

        return rank_main

    engine.spawn_all(make)
    engine.run()
    return {"makespan": engine.max_clock, "clocks": engine.clocks()}


def _points(collective: str, algorithm: str) -> dict:
    out = {}
    for nranks in NRANKS:
        for nbytes in (0,) if collective == "barrier" else PAYLOADS:
            for root in (0, nranks - 1) if collective in ROOTED else (0,):
                key = f"{collective}:{algorithm}/np{nranks}/{nbytes}B"
                if collective in ROOTED:
                    key += f"/root{root}"
                out[key] = _measure(collective, algorithm, nranks, nbytes, root, False)
                # The same point as post + ``wait``: not a second pin, the same one.
                nonblocking = _measure(collective, algorithm, nranks, nbytes, root, True)
                assert nonblocking == out[key], key
    return out


@pytest.mark.parametrize("collective,algorithm", ALL_POINTS,
                         ids=[f"{c}:{a}" for c, a in ALL_POINTS])
def test_collective_virtual_time_is_golden(collective, algorithm, request):
    measured = _points(collective, algorithm)
    if request.config.getoption("--update-golden"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        prefix = f"{collective}:{algorithm}/"
        golden = {k: v for k, v in golden.items() if not k.startswith(prefix)}
        golden.update(measured)
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    prefix = f"{collective}:{algorithm}/"
    assert {k: v for k, v in golden.items() if k.startswith(prefix)} == measured


def test_golden_file_covers_exactly_the_registered_algorithms():
    golden = json.loads(GOLDEN.read_text())
    assert {key.split("/")[0] for key in golden} == {f"{c}:{a}" for c, a in ALL_POINTS}
    assert len(ALL_POINTS) == 17
    assert len(golden) == 96 and not any(key.endswith("/nb") for key in golden)
