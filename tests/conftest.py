"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.runtime import MPIRuntime, MPIWorld
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEngine
from repro.sim.machines import graviton2, supermuc_ng


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the files under tests/golden/ from the current code "
             "instead of comparing against them (review the diff before committing)",
    )


def run_mpi_program(program, nranks: int, machine=None, ranks_per_node=None):
    """Run ``program(runtime, ctx)`` on every rank of a small simulated job."""
    preset = machine or graviton2()
    cluster = Cluster(preset, nranks, ranks_per_node or min(nranks, preset.cores_per_node))
    engine = SimEngine(nranks)
    world = MPIWorld.install(cluster, engine)

    def make(rank):
        def rank_main(ctx):
            runtime = MPIRuntime(world, ctx)
            runtime.init()
            result = program(runtime, ctx)
            if not runtime.finalized:
                runtime.finalize()
            return result

        return rank_main

    engine.spawn_all(make)
    return engine.run()


@pytest.fixture
def graviton():
    """The Graviton2 machine preset."""
    return graviton2()


@pytest.fixture
def supermuc():
    """The SuperMUC-NG machine preset."""
    return supermuc_ng()


@pytest.fixture
def small_cluster(graviton):
    """A 4-rank single-node cluster."""
    return Cluster(graviton, nranks=4, ranks_per_node=4)
