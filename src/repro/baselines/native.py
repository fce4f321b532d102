"""Native execution baseline: ``Session.run(mode="native")``.

The "Native" series of every figure in the paper is the benchmark compiled
with clang -O3 and run directly under the host MPI library.  Here the same
guest program runs against the same :class:`repro.core.guest_api.GuestAPI` as
in wasm mode, over a :class:`repro.core.guest_api.HostHeap` instead of a Wasm
instance: its MPI calls run the embedder's ``env.MPI_*`` host functions
directly, with no Wasm call and the ``Env``'s translation costs off.  Nothing
is compiled and no Wasm executes, so the difference between a
``mode="wasm"`` and a ``mode="native"`` job is exactly the embedder overhead
the paper evaluates.
"""

from __future__ import annotations

from typing import Dict

from repro.api.registry import register_mode
from repro.api.session import JobResult, execute_job
from repro.core.embedder import make_env
from repro.core.guest_api import GuestAPI, HostHeap
from repro.mpi.runtime import MPIRuntime


@register_mode("native")
def run_native_mode(session, app, *, nranks, preset, ranks_per_node, config,
                    guest_args) -> JobResult:
    """Run a guest's ``main`` on every rank against a native ``GuestAPI``.

    A rank's result is the value ``main`` returned; the job's stdout is rank
    0's.  The ``Env`` records into the job's metrics registry directly.
    """
    program = session._guest_program(app)
    stdout: Dict[int, str] = {}

    def program_factory(world, metrics):
        def make_rank_program(rank: int):
            def rank_program(ctx):
                env = make_env(config, MPIRuntime(world, ctx), guest_args,
                               metrics=metrics, translation_costs=False)
                api = GuestAPI(HostHeap(program, env), env)
                try:
                    return program.main(api, list(guest_args or config.guest_args))
                finally:
                    stdout[rank] = api.stdout()

            return rank_program

        return make_rank_program

    rank_results, makespan, metrics = execute_job(
        preset, nranks, ranks_per_node, config.collective_algorithms, program_factory
    )
    return JobResult(
        nranks=nranks,
        machine=preset.name,
        mode="native",
        rank_results=rank_results,
        makespan=makespan,
        metrics=metrics,
        stdout=stdout.get(0, ""),
    )
