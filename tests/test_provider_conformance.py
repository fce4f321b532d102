"""One conformance test for every provider of the open registries.

``MODES``, ``BACKENDS`` and ``MACHINES`` are extension points: third-party
code registers into them and ``Session`` discovers what they hold.  Each
provider is run through the minimal contract its consumers rely on -- the
mode-runner request, a compile and a 2-rank ``pingpong``, a cluster --
instead of being spot-checked where it is used.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import JobResult, ResolvedConfig, Session, resolve_machine
from repro.api.registry import BACKENDS, MACHINES, MODES
from repro.sim.cluster import Cluster

#: The mode-runner contract: ``runner(session, app, **request)`` with exactly
#: these keywords, whatever the mode.
REQUEST_KEYWORDS = {"nranks", "preset", "ranks_per_node", "config", "guest_args"}


@pytest.mark.parametrize("mode", MODES.names())
def test_every_mode_runner_takes_the_contract_request(mode):
    runner = MODES.get(mode)
    params = inspect.signature(runner).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
    assert len(positional) == 2 and keywords == REQUEST_KEYWORDS
    with Session(machine="graviton2", backend="cranelift") as session:
        assert isinstance(session.config, ResolvedConfig)
        job = runner(session, "pingpong", nranks=2, preset=resolve_machine("graviton2"),
                     ranks_per_node=None, config=session.config, guest_args=())
    assert isinstance(job, JobResult) and job.mode == mode
    assert job.exit_codes() == [0, 0]


def test_every_backend_compiles_and_runs_pingpong_alike():
    exit_codes = {}
    for name in BACKENDS.names():
        with Session(machine="graviton2", backend=name) as session:
            assert session.compile("pingpong").backend_name == name
            exit_codes[name] = session.run("pingpong", 2).exit_codes()
    assert exit_codes == {name: [0, 0] for name in BACKENDS.names()}


@pytest.mark.parametrize("machine", MACHINES.names())
def test_every_machine_preset_builds_a_cluster(machine):
    preset = MACHINES.get(machine)
    cluster = Cluster(preset, 2)
    assert cluster.machine is preset and cluster.nranks == 2
    assert cluster.nnodes >= 1 and cluster.node_of(1) in range(cluster.nnodes)
