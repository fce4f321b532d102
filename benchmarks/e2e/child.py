"""One workload (or the layer probes) in a fresh process.

``run.py`` and ``python -m benchmarks.e2e`` spawn this module with a scrubbed
environment and a private temp dir; it prints one JSON object as its last
line.  Modes:

* ``setup``  -- set-up and warm-up only (a ``setup_s`` sample),
* ``run``    -- set-up, warm-up, timed units with tracing off and, with
  ``--trace``, one more unit with spans and ``repro.obs`` tracing on,
* ``probes`` -- the per-layer probes of ``layers.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time


def _trace_counts(snapshots, rank_seconds):
    """Exact counts and the parked share from ``repro.obs`` snapshots."""
    counts = {"mpi.calls": 0, "mpi.sched.rounds": 0, "mpi.sched.steps": 0, "mpi.pt2pt.posts": 0}
    mpi_wall = 0.0
    for snapshot in snapshots:
        for event in snapshot["events"]:
            name = event["name"]
            if name.startswith("MPI_"):
                counts["mpi.calls"] += 1
                mpi_wall += event.get("wall_dur", 0.0)
            elif name.startswith("sched.round["):
                counts["mpi.sched.rounds"] += 1
            elif name.startswith("sched.") and name.endswith("Step"):
                counts["mpi.sched.steps"] += 1
            elif name == "pt2pt.post":
                counts["mpi.pt2pt.posts"] += 1
    counts["mpi.wait_wall_frac"] = mpi_wall / rank_seconds if rank_seconds else 0.0
    return counts, sum(s["dropped"] for s in snapshots)


def run_workload(args, spawned: float) -> dict:
    import repro.api  # timed: what every launcher invocation pays
    from benchmarks.e2e.spans import SpanRecorder
    from benchmarks.e2e.workloads import WORKLOADS, quartiles

    imported = time.monotonic()
    if not os.path.abspath(repro.__file__).startswith(os.path.join(os.getcwd(), "src")):
        raise SystemExit(f"measuring {repro.__file__}, not this checkout's src/")
    spans = SpanRecorder(args.workload)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, spans, args.tmp)
    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload.setup()
    try:
        built = time.monotonic()
        start = time.perf_counter()
        warm = workload.check(workload.run_unit(), 0.0)
        warmup_wall = time.perf_counter() - start
        ready = time.monotonic()
        out = {
            "workload": args.workload,
            "work_unit": workload.work_unit,
            "setup_s": ready - spawned,
            "attempted": workload.setup_attempted + warm.attempted,
            "errors": workload.setup_errors + warm.errors,
        }
        if args.mode == "setup":
            return out

        measured = workload.measure(args.seconds, args.min_units)
        q1, median, q3 = quartiles(measured.samples)
        out["attempted"] += measured.attempted
        out["errors"] += measured.errors
        out["e2e"] = {"wall_q1_s": q1, "work_per_s": measured.work_per_s}
        out["wall_quartiles_s"] = [q1, median, q3]
        out["samples"] = len(measured.samples)
        out["sim_makespan_s"] = measured.makespan
        if measured.makespan != warm.makespan:
            out["errors"].append(f"{args.workload}: makespan changed after warm-up")

        if args.trace:
            spans.enabled = True
            spans.unit += 1
            gc.collect()
            with spans.span("unit"):
                traced_out, traced_wall, snapshots = workload.traced_unit()
            traced = workload.check(traced_out, traced_wall)
            counts, dropped = _trace_counts(snapshots, traced.rank_seconds)
            out["attempted"] += traced.attempted
            out["errors"] += traced.errors + spans.nesting_errors()
            if dropped:
                out["errors"].append(f"{args.workload}: repro.obs dropped {dropped} events")
            if traced.makespan != measured.makespan:
                out["errors"].append(f"{args.workload}: tracing changed the makespan")
            traced_sample = quartiles(traced.samples)[0] if traced.samples else traced_wall
            out["layer"] = {
                "setup.import_s": imported - spawned,
                "setup.build_s": built - imported,
                "setup.warmup_s": warmup_wall,
                "sim.makespan_s": measured.makespan,
                "obs.trace.overhead_ratio": traced_sample / q1,
                **counts,
            }
    finally:
        workload.close()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(spans.to_chrome_events(pid=0), fh)
    return out


def main(argv=None) -> int:
    spawned_default = time.monotonic()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--mode", choices=("setup", "run", "probes"), required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--min-units", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tmp", required=True, help="private directory for caches and journals")
    parser.add_argument("--spawned", type=float, default=spawned_default,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    if args.mode == "probes":
        from benchmarks.e2e.layers import run_probes

        out = {"layer": run_probes(args.seed, args.smoke, args.tmp)}
    else:
        out = run_workload(args, args.spawned)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
