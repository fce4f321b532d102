"""Figure 3: Intel MPI Benchmarks, native vs Wasm, on the SuperMUC-NG preset."""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.benchmarks_suite.imb import make_imb_program
from repro.api import run
from repro.harness import figure3_imb_supermuc

PAPER_GM_SLOWDOWNS = {
    "pingpong": 0.05, "sendrecv": 0.06, "bcast": 0.13, "allreduce": 0.06,
    "allgather": 0.06, "alltoall": 0.10, "reduce": 0.05, "gather": 0.10, "scatter": 0.08,
}


def test_figure3_model_sweep(benchmark):
    """All nine IMB routines at 768/6144 ranks across 1 B - 4 MiB (model mode)."""
    result = benchmark(figure3_imb_supermuc)
    lines = [
        f"{routine:<10s} GM slowdown measured={slowdown:+.3f}   paper={PAPER_GM_SLOWDOWNS[routine]:+.2f}"
        for routine, slowdown in result["gm_slowdowns"].items()
    ]
    lines.append(
        f"max PingPong bandwidth: native={result['max_bandwidth_native_gib_s']:.1f} GiB/s, "
        f"wasm={result['max_bandwidth_wasm_gib_s']:.1f} GiB/s (paper: 12.80 / 13.44)"
    )
    report("Figure 3 (SuperMUC-NG, GM Wasm slowdown per routine)", lines)
    for routine, slowdown in result["gm_slowdowns"].items():
        assert -0.01 <= slowdown <= 0.20


@pytest.mark.parametrize("routine", ["pingpong", "allreduce"])
def test_figure3_functional_point(benchmark, routine):
    """A functional (fully executed) small-scale point of the same sweep."""
    nranks = 2 if routine == "pingpong" else 4
    program = make_imb_program(routine, message_sizes=(1024,), iterations=2)
    job = benchmark.pedantic(
        lambda: run(program, nranks, machine="supermuc-ng", ranks_per_node=nranks),
        rounds=1, iterations=1,
    )
    assert job.return_values()[0]["rows"][1024]["t_avg_us"] > 0
