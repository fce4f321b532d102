"""Non-blocking collective overlap smoke gate.

Runs the IMB-NBC style overlap benchmark for one collective under the Wasm
embedder and asserts the two properties that make the benchmark meaningful:

* the non-blocking path produces *some* communication/computation overlap
  (a broken progress engine degenerates to blocking behaviour: overlap 0), and
* the overlapped run is never slower than pure-communication plus the full
  compute phase (the request layer must not serialise the two).

Part of the CI ``bench-smoke`` job (``REPRO_BENCH_SMOKE=1`` shrinks the sweep).
"""

from __future__ import annotations

import os

from benchmarks.conftest import report
from repro.benchmarks_suite.imb import make_imb_nbc_program
from repro.api import run

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

MESSAGE_SIZES = (4096,) if SMOKE else (256, 4096, 65536)
ITERATIONS = 2 if SMOKE else 4


def test_nbc_overlap_smoke():
    program = make_imb_nbc_program(
        "iallreduce", message_sizes=MESSAGE_SIZES, iterations=ITERATIONS
    )
    job = run(program, 4, machine="graviton2")
    rows = job.return_values()[0]["rows"]

    lines = []
    for nbytes, row in rows.items():
        lines.append(
            f"{nbytes:>8} B: pure {row['t_pure_us']:.2f} us, overlapped "
            f"{row['t_ovrl_us']:.2f} us, overlap {row['overlap_pct']:.1f}%"
        )
        # Never slower than fully serialising communication and compute.
        assert row["t_ovrl_us"] <= row["t_pure_us"] + row["t_cpu_us"] + 1e-6, row

    summary = job.metrics.nbc_overlap_summary()
    assert "allreduce" in summary, summary
    mean_overlap = summary["allreduce"]["mean"]
    assert mean_overlap > 0.1, (
        f"progress engine produced no overlap (mean {mean_overlap:.3f}); "
        "non-blocking collectives are behaving like blocking ones"
    )
    report(
        "IMB-NBC iallreduce overlap (wasm, 4 ranks, graviton2)",
        [*lines, f"metrics mean overlap: {mean_overlap:.1%} "
                 f"({summary['allreduce']['count']} samples)"],
    )
