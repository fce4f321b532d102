"""``mpirun``-style launcher for guest programs on the simulated cluster.

Reproduces the execution flow of Listing 4 of the paper::

    mpirun -np <N> ./mpiWasm mpi-app.wasm <args>

The execution engine lives in :mod:`repro.api.session`:
:class:`repro.api.Session` owns the embedders, the warm artifact store and the
metrics, and the execution modes ("wasm", "native") are registry-driven.  This
module is the ``mpiwasm-run`` command line (:func:`main`) on top of it;
:class:`JobResult` is re-exported from the session module.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.api.config import ResolvedConfig
from repro.api.session import JobResult, Session

__all__ = ["JobResult", "main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``mpiwasm-run``: tiny CLI wrapper used by the examples and docs."""
    from repro.api.registry import BACKENDS

    parser = argparse.ArgumentParser(
        prog="mpiwasm-run",
        description="Run a bundled guest benchmark under MPIWasm on a simulated HPC machine.",
    )
    parser.add_argument("benchmark", help="bundled benchmark name (e.g. pingpong, hpcg, is)")
    # A flag that is not given stays out of the way: its value comes from the
    # resolved configuration (config file, then REPRO_*), shown in the help.
    resolved = ResolvedConfig.resolve()
    parser.add_argument("-np", "--nranks", type=int, default=None,
                        help=f"number of MPI ranks (default: {resolved.nranks})")
    parser.add_argument("--machine", default=None,
                        help=f"machine preset (default: {resolved.machine})")
    parser.add_argument("--native", action="store_true", help="run the native baseline instead of Wasm")
    parser.add_argument("--backend", default=None, choices=BACKENDS.names(),
                        help=f"compiler back-end (default: {resolved.backend})")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="inject the faults described by this FaultPlan "
                             "JSON file (see repro.fault.inject)")
    parser.add_argument("--max-restarts", type=int, default=2,
                        help="with --fault-plan: restart budget for recovering "
                             "past injected rank failures (default 2)")
    args = parser.parse_args(argv)

    mode = "native" if args.native else "wasm"
    given = {name: getattr(args, name) for name in ("nranks", "machine", "backend")
             if getattr(args, name) is not None}
    with Session(resolved, **given) as session:
        if args.fault_plan:
            from pathlib import Path

            from repro.fault import FaultPlan, run_with_recovery

            try:
                plan = FaultPlan.from_json(Path(args.fault_plan).read_text(encoding="utf-8"))
            except (OSError, ValueError, TypeError) as exc:
                parser.error(f"cannot load fault plan {args.fault_plan!r}: {exc}")
            recovery = run_with_recovery(
                args.benchmark, session.config.nranks, plan=plan,
                max_restarts=args.max_restarts, session=session, mode=mode,
            )
            job = recovery.job
            if recovery.fired:
                detail = "; ".join(f["detail"] for f in recovery.fired)
                print(f"injected: {detail}")
                print(f"recovered after {recovery.attempts} attempt(s)")
        else:
            job = session.run(args.benchmark, mode=mode)
    print(f"benchmark={args.benchmark} mode={job.mode} ranks={job.nranks} "
          f"machine={job.machine} makespan={job.makespan*1e6:.2f} us")
    if job.stdout:
        print(job.stdout, end="")
    from repro.harness.report import format_cache_report, format_collective_report

    collective_report = format_collective_report(job.metrics)
    if collective_report:
        print(collective_report)
    cache_report = format_cache_report(job.metrics)
    if cache_report:
        print(cache_report)
    return max(job.exit_codes(), default=0)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
