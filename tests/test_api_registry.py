"""Registry subsystem tests: discovery, override semantics, helpful lookup
errors, and third-party registration through the public decorators."""

from __future__ import annotations

import pytest

from repro.api import (
    BACKENDS,
    BENCHMARKS,
    MACHINES,
    MODES,
    DuplicateEntryError,
    Registry,
    Session,
    UnknownEntryError,
    register_backend,
    register_benchmark,
    register_machine,
    register_mode,
)


# ------------------------------------------------------------- generic registry


def test_registry_register_get_names_contains():
    reg = Registry("widget")
    reg.register("a", obj=1)

    @reg.register("b")
    def widget_b():
        return 2

    assert reg.get("a") == 1 and reg.get("b") is widget_b
    assert reg.names() == ["a", "b"]
    assert "a" in reg and "zz" not in reg
    assert len(reg) == 2


def test_registry_infers_name_from_target():
    reg = Registry("widget")

    @reg.register()
    def my_widget():
        pass

    assert reg.get("my_widget") is my_widget


def test_registry_duplicate_requires_override():
    reg = Registry("widget")
    reg.register("x", obj=1)
    with pytest.raises(DuplicateEntryError, match="already registered"):
        reg.register("x", obj=2)
    assert reg.get("x") == 1
    reg.register("x", obj=2, override=True)
    assert reg.get("x") == 2
    reg.unregister("x")
    reg.unregister("x")  # idempotent
    assert "x" not in reg


def test_unknown_entry_error_is_keyerror_and_lists_known():
    reg = Registry("widget")
    reg.register("alpha", obj=1)
    with pytest.raises(KeyError):
        reg.get("beta")
    with pytest.raises(UnknownEntryError, match="unknown widget 'beta'.*alpha"):
        reg.get("beta")


# --------------------------------------------- helpful errors (bugfix satellite)


def test_unknown_machine_lists_registered_presets():
    """The old ``_resolve_machine`` path raised a bare KeyError; the registry
    must name the registry and list every preset."""
    from repro.api.session import resolve_machine

    with pytest.raises(UnknownEntryError, match="machine preset 'summit'.*graviton2"):
        resolve_machine("summit")


def test_unknown_backend_benchmark_algorithm_list_known():
    from repro.benchmarks_suite import registry as bench_registry
    from repro.mpi.algorithms import registry as algo_registry
    from repro.wasm.compilers import get_backend

    with pytest.raises(UnknownEntryError, match="compiler backend 'gcc'.*llvm"):
        get_backend("gcc")
    with pytest.raises(UnknownEntryError, match="benchmark 'linpack'.*pingpong"):
        bench_registry.get_program("linpack")
    with pytest.raises(algo_registry.UnknownAlgorithmError, match="known.*ring"):
        algo_registry.get("allreduce", "quantum")


def test_session_run_unknown_mode_lists_modes():
    with Session(machine="graviton2") as session:
        with pytest.raises(UnknownEntryError, match="execution mode 'jit'.*native.*wasm"):
            session.run("pingpong", 1, mode="jit")


# ----------------------------------------------------- third-party registration


def test_third_party_backend_registers_and_compiles():
    """A back-end defined outside the code base plugs in through the public
    decorator and is immediately discoverable and usable."""
    from repro.wasm.compilers import CompiledModule, backend_names, get_backend
    from repro.wasm.compilers.cranelift import CraneliftBackend

    @register_backend
    class TestOnlyBackend(CraneliftBackend):
        name = "test-only"

    try:
        assert "test-only" in backend_names()
        backend = get_backend("test-only")
        from repro.toolchain.guest import GuestProgram
        from repro.toolchain.wasicc import compile_guest

        app = compile_guest(GuestProgram(name="third-party", main=lambda api, args: 0))
        compiled = backend.compile(app.module)
        assert isinstance(compiled, CompiledModule)
        assert compiled.backend_name == "test-only"
        # And a Session can run jobs on it by name.
        with Session(machine="graviton2", backend="test-only") as session:
            job = session.run("pingpong", 2)
            assert job.exit_codes() == [0, 0]
    finally:
        BACKENDS.unregister("test-only")


def test_third_party_machine_and_benchmark():
    from repro.sim.machines import graviton2
    from repro.toolchain.guest import GuestProgram

    register_machine(graviton2().with_overrides(name="test-box", cores_per_node=4))

    @register_benchmark("test-noop")
    def make_noop():
        def main(api, args):
            api.mpi_init()
            api.mpi_finalize()
            return 0

        return GuestProgram(name="test-noop", main=main)

    try:
        assert MACHINES.get("test-box").cores_per_node == 4
        with Session() as session:
            job = session.run("test-noop", 2, machine="test-box")
            assert job.machine == "test-box" and job.exit_codes() == [0, 0]
    finally:
        MACHINES.unregister("test-box")
        BENCHMARKS.unregister("test-noop")


def test_third_party_mode_receives_run_request():
    seen = {}

    @register_mode("echo")
    def echo_mode(session, app, *, nranks, preset, ranks_per_node, config,
                  guest_args):
        from repro.api import JobResult
        from repro.sim.metrics import MetricsRegistry

        seen.update(nranks=nranks, machine=preset.name, backend=config.compiler_backend)
        return JobResult(nranks=nranks, machine=preset.name, mode="echo",
                         rank_results=[0] * nranks, makespan=0.0,
                         metrics=MetricsRegistry(), stdout="")

    try:
        with Session(machine="graviton2", backend="singlepass") as session:
            job = session.run("pingpong", 3, mode="echo")
        assert job.mode == "echo"
        assert seen == {"nranks": 3, "machine": "graviton2", "backend": "singlepass"}
    finally:
        MODES.unregister("echo")


def test_every_mode_runner_accepts_the_same_request():
    """The mode-runner contract: ``runner(session, app, **request)`` with one
    keyword set, whatever the mode."""
    from repro.api import JobResult, resolve_machine

    with Session(machine="graviton2", backend="cranelift") as session:
        request = dict(nranks=2, preset=resolve_machine("graviton2"), ranks_per_node=None,
                       config=session.config.embedder_config(), guest_args=())
        for mode, runner in MODES.items():
            job = runner(session, "pingpong", **request)
            assert isinstance(job, JobResult) and job.mode == mode
            assert job.exit_codes() == [0, 0]


# -------------------------------------------------------- legacy views stay live


def test_legacy_tables_alias_the_registries():
    from repro.benchmarks_suite.registry import _FACTORIES
    from repro.harness.experiments import EXPERIMENT_DRIVERS
    from repro.sim.machines import PRESETS

    assert PRESETS is MACHINES.entries
    assert _FACTORIES is BENCHMARKS.entries
    from repro.api import EXPERIMENTS

    assert EXPERIMENT_DRIVERS is EXPERIMENTS.entries
    assert {"table1", "figure5", "nbc", "algosweep"} <= set(EXPERIMENT_DRIVERS)
