"""``repro-harness`` command line interface.

Two subcommands, both built on the campaign runner
(:mod:`repro.harness.campaign`):

* ``run [names...]`` -- regenerate any subset of the paper's tables and
  figures (bare experiment names without a subcommand still work).
* ``campaign <spec> [--workers N]`` -- expand a declarative scenario-matrix
  spec (JSON, or YAML when PyYAML is installed) into a job list and execute
  it, optionally on a multi-process worker pool sharing one AoT compilation
  cache.  Writes a machine-readable ``campaign.json`` and exits non-zero if
  any job produced an error record.
* ``trace <spec> [--out trace.json]`` -- run a campaign with per-rank event
  tracing forced on (:mod:`repro.obs`), validate the merged timeline, and
  write it as Chrome trace-event JSON (loadable in Perfetto).
* ``profile <benchmark>`` -- run one benchmark job with the interpreter's
  sampled profiling hooks active and print the handler-hit histogram
  (proving which fused superinstructions fire) and hot-function self-times.
* ``serve`` -- run the multi-tenant job service (:mod:`repro.serve`): a
  long-running HTTP daemon accepting run/campaign/compile submissions onto
  a bounded queue drained by warm per-worker sessions, with per-tenant
  API keys, throttling/quotas, load-shedding, and ``/healthz``+``/metrics``.
* ``chaos`` -- the fault-tolerance acceptance drill (:mod:`repro.fault`):
  kill one rank mid-``MPI_Allreduce``, recover by deterministic restart,
  resume a mid-run checkpoint, and verify every result bit-for-bit against
  a clean-run oracle (optionally writing the fault-event Chrome trace).
* ``analyze`` -- the static verification layer (:mod:`repro.analysis`):
  cross-rank schedule deadlock/conservation checks (``analyze schedules``),
  lowered-IR/fusion-table verification (``analyze ir``), and the
  project-invariant linter (``analyze lint`` / ``--self-lint``).

``--workers 1`` (the default) keeps the serial in-process path, which
determinism-sensitive tests rely on; higher worker counts produce identical
per-job results (same metrics values) in less wall-clock time.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from repro.api.session import Session
from repro.harness.campaign import (
    CampaignSpec,
    spec_for_experiments,
)
from repro.harness.experiments import EXPERIMENT_DRIVERS
from repro.harness.report import format_campaign_report, format_table

#: Back-compat alias: the driver table used to live here.
EXPERIMENTS = EXPERIMENT_DRIVERS


def _print_summary(name: str, result) -> None:
    print(f"\n=== {name} ===")
    if name == "table1":
        rows = [[b, f"{r['compile_ms']:.3f}", f"{r['kernel_mflops']:.3f}"] for b, r in result.items()]
        print(format_table(["backend", "compile (ms)", "kernel MFLOP/s"], rows))
    elif name == "table2":
        rows = [
            [r["application"], f"{r['native_dynamic_kib']:.0f}", f"{r['native_static_mib']:.1f}",
             f"{r['wasm_kib']:.1f}", f"{r['static_to_wasm_ratio']:.1f}x"]
            for r in result["rows"]
        ]
        print(format_table(
            ["application", "dynamic (KiB)", "static (MiB)", "wasm (KiB)", "static/wasm"], rows))
        print(f"average static/wasm ratio: {result['average_static_to_wasm_ratio']:.1f}x")
    elif name in ("figure3", "figure4"):
        rows = [[routine, f"{slowdown:+.3f}"] for routine, slowdown in result["gm_slowdowns"].items()]
        print(format_table(["routine", "GM Wasm slowdown"], rows))
    elif name == "figure5":
        print(f"HPCG Wasm reduction at 6144 ranks: {result['hpcg_reduction_at_6144']:.1%}")
        print(f"DT SIMD speedup (Wasm w/ vs w/o SIMD): {result['dt_simd_speedup']:.2f}x")
    elif name == "figure6":
        rows = [[dt, f"{ns:.2f}"] for dt, ns in result["average_ns"].items()]
        print(format_table(["datatype", "avg translation (ns)"], rows))
    elif name == "figure7":
        print(f"MPIWasm vs Faasm PingPong GM speedup: {result['gm_speedup']:.2f}x")
    elif name == "nbc":
        rows = [
            [routine, f"{stats.get('mean', 0.0):.1%}", f"{stats.get('min', 0.0):.1%}",
             f"{stats.get('max', 0.0):.1%}", stats.get("count", 0)]
            for routine, stats in result["overlap"].items()
        ]
        print(format_table(
            ["routine", "mean overlap", "min", "max", "samples"], rows,
            title=f"NBC overlap x {result['nranks']} ranks on {result['machine']}",
        ))
    elif name == "algosweep":
        algorithms = sorted(result["series"])
        rows = []
        for size, best in result["best_per_size"].items():
            timings = [f"{result['series'][a][size]['t_avg_us']:.2f}" for a in algorithms]
            rows.append([size, *timings, best, result["table_choice_per_size"][size]])
        print(format_table(
            ["bytes", *[f"{a} (us)" for a in algorithms], "fastest", "table picks"],
            rows,
            title=f"IMB {result['routine']} x {result['nranks']} ranks on {result['machine']}",
        ))
    else:
        print(json.dumps(result, indent=2, default=str)[:2000])


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    selected = args.experiments or sorted(EXPERIMENT_DRIVERS)
    for name in selected:
        if name not in EXPERIMENT_DRIVERS:
            parser.error(f"unknown experiment {name!r}; known: {sorted(EXPERIMENT_DRIVERS)}")
    with Session() as session:
        result = session.campaign(spec_for_experiments(selected), workers=args.workers)
    for outcome in result.outcomes:
        if not outcome.ok:
            print(f"\n=== {outcome.spec.name} ===")
            print(f"FAILED: {outcome.error['type']}: {outcome.error['message']}")
            continue
        if args.json:
            print(json.dumps({outcome.spec.name: outcome.result}, indent=2, default=str))
        else:
            _print_summary(outcome.spec.name, outcome.result)
    return 0 if result.ok else 1


def _cmd_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.resume and args.journal:
        parser.error("--resume already names the journal directory; drop --journal")
    journal_dir = args.resume or args.journal
    if args.resume:
        # The journal's spec.json is authoritative on resume; a spec argument
        # would be ambiguous (which one wins?) so it is rejected outright.
        if args.spec is not None:
            parser.error("--resume re-loads the spec from the journal; "
                         "drop the spec argument")
        spec = None
    elif args.spec is None:
        parser.error("a campaign spec file is required (or --resume <journal-dir>)")
    else:
        try:
            spec = CampaignSpec.from_file(args.spec)
        except (OSError, ValueError, RuntimeError) as exc:
            parser.error(f"cannot load campaign spec {args.spec!r}: {exc}")

    def progress(outcome):
        marker = "ok" if outcome.ok else f"ERROR ({outcome.error['type']})"
        resumed = " (restored)" if getattr(outcome, "resumed", False) else ""
        print(f"[{outcome.job_id}] {marker} wall={outcome.wall_seconds:.3f}s{resumed}")

    cache_dir = False if args.no_fs_cache else args.cache_dir
    try:
        with Session() as session:
            result = session.campaign(
                spec, workers=args.workers, cache_dir=cache_dir, progress=progress,
                journal_dir=journal_dir, resume=bool(args.resume),
            )
    except (OSError, ValueError) as exc:
        parser.error(f"cannot run campaign: {exc}")
    out_path = result.write(args.out)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=repr))
    else:
        print()
        print(format_campaign_report(result))
    print(f"\nwrote {out_path}")
    if result.interrupted:
        unfinished = sum(1 for o in result.outcomes if o.status == "interrupted")
        print(f"interrupted: {unfinished} of {len(result.outcomes)} jobs did not run "
              "(partial results written)")
        return 130
    if not result.ok:
        print(f"{len(result.errors)} of {len(result.outcomes)} jobs failed")
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.obs import validate_chrome_trace, write_chrome_trace

    try:
        spec = CampaignSpec.from_file(args.spec)
    except (OSError, ValueError, RuntimeError) as exc:
        parser.error(f"cannot load campaign spec {args.spec!r}: {exc}")

    def progress(outcome):
        marker = "ok" if outcome.ok else f"ERROR ({outcome.error['type']})"
        events = len((outcome.trace or {}).get("events", ()))
        print(f"[{outcome.job_id}] {marker} events={events} wall={outcome.wall_seconds:.3f}s")

    with Session() as session:
        result = session.campaign(
            spec, workers=args.workers, progress=progress, trace=True
        )
    doc = result.trace_timeline()
    if doc is None:
        print("campaign recorded no trace events")
        return 1
    problems = validate_chrome_trace(doc)
    for problem in problems:
        print(f"INVALID: {problem}")
    out_path = write_chrome_trace(args.out, doc)
    spans = sum(1 for e in doc["traceEvents"] if e.get("ph") == "X")
    lanes = len({e.get("pid") for e in doc["traceEvents"]})
    print(f"wrote {out_path} ({spans} spans across {lanes} job lane(s))")
    if not result.ok:
        print(f"{len(result.errors)} of {len(result.outcomes)} jobs failed")
        return 1
    return 1 if problems else 0


def _cmd_profile(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.obs import format_profile_report, profiling

    with Session(backend=args.backend) as session:
        with profiling(sample_every=args.sample_every) as profiler:
            job = session.run(args.benchmark, args.nranks, machine=args.machine)
    fusion_table = None
    if args.emit_fusion_report:
        from repro.wasm.lowering import mine_superinstructions

        fusion_table = mine_superinstructions(
            profiler.ir_traces.values(), histogram=profiler.handler_histogram())
    if args.json:
        report = profiler.report()
        report["functions"] = report["functions"][:args.top]
        report["handlers"] = dict(list(report["handlers"].items())[:args.top])
        report["makespan"] = job.makespan
        if fusion_table is not None:
            report["fusion_report"] = fusion_table
        print(json.dumps(report, indent=2))
    else:
        print(format_profile_report(profiler, top=args.top))
        if fusion_table is not None:
            print("\nmined superinstruction candidates "
                  f"(from {len(profiler.ir_traces)} traced function(s))")
            print(f"{'chain':<48} {'sites':>6} {'score':>12}")
            for rec in fusion_table:
                chain = " + ".join(rec["kinds"])
                print(f"{chain:<48} {rec['occurrences']:>6} {rec['score']:>12.0f}")
            if not fusion_table:
                print("(no chains cleared the mining thresholds)")
        print(f"\nmakespan: {job.makespan:.6f} virtual seconds")
    return 0


def _cmd_chaos(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.api.session import use_session
    from repro.harness.experiments import chaos_recovery
    from repro.obs import to_chrome_trace, tracing, validate_chrome_trace, write_chrome_trace

    with Session() as session, use_session(session):
        with tracing() as recorder:
            result = chaos_recovery(
                nranks=args.nranks,
                machine=args.machine,
                victim=args.victim,
                kill_call_index=args.kill_call_index,
                checkpoint_round=args.checkpoint_round,
                max_restarts=args.max_restarts,
            )
        snapshot = recorder.snapshot()
    fault_events = [e for e in snapshot.get("events", ())
                    if str(e.get("name", "")).startswith("fault.")]
    if args.trace_out:
        doc = to_chrome_trace(snapshot, process_name="chaos")
        for problem in validate_chrome_trace(doc):
            print(f"INVALID: {problem}")
        out_path = write_chrome_trace(args.trace_out, doc)
        print(f"wrote {out_path} ({len(fault_events)} fault/recovery event(s))")
    if args.json:
        result["fault_events"] = fault_events
        print(json.dumps(result, indent=2, default=str))
    else:
        fired = result["fired"][0] if result["fired"] else {}
        print(f"injected: {fired.get('detail', 'nothing fired')}")
        print(f"recovered: {result['recovered']} after {result['attempts']} attempt(s)")
        print(f"checkpoint: {result['checkpoint']['ranks_captured']} rank(s) "
              f"captured at round crossing {result['checkpoint']['at_round']}")
        for check in ("checkpoint_run_matches_oracle",
                      "recovered_matches_oracle", "resume_matches_oracle"):
            print(f"{check}: {result[check]}")
    checks_ok = (result["recovered"]
                 and result["checkpoint_run_matches_oracle"]
                 and result["recovered_matches_oracle"]
                 and result["resume_matches_oracle"])
    if not checks_ok:
        print("CHAOS CHECK FAILED: recovered/resumed results diverged from the oracle")
        return 1
    if not fault_events:
        print("CHAOS CHECK FAILED: no fault/recovery events reached the trace")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.serve import ServeConfig, TenantStore, run_server

    tenants = None
    if args.tenants:
        try:
            tenants = TenantStore.from_file(args.tenants)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load tenants file {args.tenants!r}: {exc}")
    elif args.dev_key:
        tenants = TenantStore.dev_store(args.dev_key)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        tenants=tenants,
        backend=args.backend,
        machine=args.machine,
        cache_dir=args.cache_dir,
        drain_timeout=args.drain_timeout,
        quiet=not args.verbose,
        journal_dir=args.journal_dir,
    )
    return run_server(config)


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import cli as analysis_cli

    return analysis_cli.run(args, parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figures of 'Exploring the Use of WebAssembly in HPC'.",
    )
    sub = parser.add_subparsers(dest="command")

    run_parser = sub.add_parser("run", help="run table/figure drivers by name")
    run_parser.add_argument("experiments", nargs="*", default=[],
                            help=f"which experiments to run (default: all of {sorted(EXPERIMENT_DRIVERS)})")
    run_parser.add_argument("--json", action="store_true", help="dump raw JSON instead of tables")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (1 = serial in-process, the default)")

    campaign_parser = sub.add_parser("campaign", help="run a scenario-matrix campaign spec")
    campaign_parser.add_argument("spec", nargs="?", default=None,
                                 help="campaign spec file (JSON; YAML with PyYAML); "
                                      "omitted with --resume")
    campaign_parser.add_argument("--workers", type=int, default=1,
                                 help="worker processes (1 = serial in-process, the default)")
    campaign_parser.add_argument("--journal", default=None, metavar="DIR",
                                 help="keep a crash-safe journal of job outcomes in DIR "
                                      "so an interrupted campaign can be resumed")
    campaign_parser.add_argument("--resume", default=None, metavar="DIR",
                                 help="resume an interrupted campaign from its journal "
                                      "directory; only unfinished jobs re-run (the spec "
                                      "is re-loaded from DIR/spec.json)")
    campaign_parser.add_argument("--out", default="campaign.json",
                                 help="where to write the machine-readable results")
    campaign_parser.add_argument("--cache-dir", default=None,
                                 help="shared AoT compilation cache directory (default: the "
                                      "spec's cache_dir, else $REPRO_CACHE_DIR, else a private "
                                      "temp dir)")
    campaign_parser.add_argument("--no-fs-cache", action="store_true",
                                 help="disable the on-disk AoT cache entirely; rely on each "
                                      "worker's warm in-memory session store")
    campaign_parser.add_argument("--json", action="store_true",
                                 help="dump raw JSON instead of the summary table")

    trace_parser = sub.add_parser(
        "trace", help="run a campaign with event tracing on; write a Chrome trace")
    trace_parser.add_argument("spec", help="campaign spec file (JSON; YAML with PyYAML)")
    trace_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = serial in-process, the default)")
    trace_parser.add_argument("--out", default="trace.json",
                              help="where to write the merged Chrome trace-event JSON")

    profile_parser = sub.add_parser(
        "profile", help="profile the interpreter's dispatch loop on one benchmark")
    profile_parser.add_argument("benchmark", help="registered benchmark name (e.g. allreduce)")
    profile_parser.add_argument("--nranks", type=int, default=2, help="rank count (default 2)")
    profile_parser.add_argument("--backend", default="singlepass",
                                help="compiler backend; the interpreter hooks fire for every "
                                     "backend's execution tier (default singlepass)")
    profile_parser.add_argument("--machine", default="graviton2",
                                help="machine preset (default graviton2)")
    profile_parser.add_argument("--top", type=int, default=15,
                                help="rows per report section (default 15)")
    profile_parser.add_argument("--sample-every", type=int, default=1,
                                help="count one in N dispatched handlers (default 1 = exact)")
    profile_parser.add_argument("--json", action="store_true",
                                help="dump the raw profile report as JSON")
    profile_parser.add_argument("--emit-fusion-report", action="store_true",
                                help="mine hot handler chains from the recorded IR "
                                     "traces and report superinstruction candidates")

    chaos_parser = sub.add_parser(
        "chaos", help="kill a rank mid-allreduce; verify recovery and "
                      "checkpoint resume against a clean-run oracle")
    chaos_parser.add_argument("--nranks", type=int, default=4, help="rank count (default 4)")
    chaos_parser.add_argument("--machine", default="graviton2",
                              help="machine preset (default graviton2)")
    chaos_parser.add_argument("--victim", type=int, default=1,
                              help="world rank the fault plan kills (default 1)")
    chaos_parser.add_argument("--kill-call-index", type=int, default=2,
                              help="which of the victim's MPI_Allreduce calls "
                                   "fires the kill (default 2)")
    chaos_parser.add_argument("--checkpoint-round", type=int, default=1,
                              help="schedule-round crossing to checkpoint at (default 1)")
    chaos_parser.add_argument("--max-restarts", type=int, default=2,
                              help="restart budget for recovery (default 2)")
    chaos_parser.add_argument("--trace-out", default=None, metavar="FILE",
                              help="also write the run's Chrome trace (with the "
                                   "fault/recovery instants) to FILE")
    chaos_parser.add_argument("--json", action="store_true",
                              help="dump the full chaos report as JSON")

    serve_parser = sub.add_parser(
        "serve", help="run the multi-tenant job service (warm worker sessions)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port; 0 picks an ephemeral port (default 8765)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="warm worker sessions draining the queue (default 2)")
    serve_parser.add_argument("--queue-size", type=int, default=16,
                              help="bounded submission queue depth; overflow is shed "
                                   "with 503 + Retry-After (default 16)")
    serve_parser.add_argument("--tenants", default=None,
                              help="tenants JSON file (API keys, rates, quotas); "
                                   "default: one generated 'dev' tenant, key printed "
                                   "at startup")
    serve_parser.add_argument("--dev-key", default=None,
                              help="run with a single unmetered 'dev' tenant using "
                                   "this API key (ignored with --tenants)")
    serve_parser.add_argument("--backend", default=None,
                              help="compiler backend for worker sessions (default: "
                                   "session default)")
    serve_parser.add_argument("--machine", default=None,
                              help="machine preset for worker sessions (default: "
                                   "session default)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="shared AoT cache directory backing /v1/artifacts "
                                   "(default: a private temp dir, removed at shutdown)")
    serve_parser.add_argument("--journal-dir", default=None,
                              help="crash-safe job journal directory: finished jobs "
                                   "are restored and unfinished ones re-queued when "
                                   "the service restarts (default: no journal)")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              help="seconds to let queued jobs finish on SIGTERM "
                                   "(default 30)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request to stderr")

    analyze_parser = sub.add_parser(
        "analyze", help="static verification: schedules, lowered IR, lints")
    from repro.analysis.cli import configure_parser as _configure_analyze

    _configure_analyze(analyze_parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-harness``."""
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    # `repro-harness table1 figure3` (no subcommand): anything that is not a
    # subcommand is treated as `run ...`.
    if not argv or argv[0] not in (
        "campaign", "run", "trace", "profile", "serve", "analyze", "chaos",
        "-h", "--help"
    ):
        argv = ["run", *argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args, parser)
    if args.command == "chaos":
        return _cmd_chaos(args, parser)
    if args.command == "campaign":
        return _cmd_campaign(args, parser)
    if args.command == "trace":
        return _cmd_trace(args, parser)
    if args.command == "profile":
        return _cmd_profile(args, parser)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    return _cmd_run(args, parser)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
