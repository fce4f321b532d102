"""Command line driver for the static-analysis layer.

Mounted as ``repro-harness analyze`` and runnable standalone as
``python -m repro.analysis``.  Four subcommands mirror the four analyzers:

* ``analyze schedules`` -- build every per-rank schedule of the selected
  (or all) registered collective algorithms across a rank/payload grid and
  statically verify matching, deadlock-freedom, byte conservation, and
  result coverage.  The acceptance sweep is
  ``repro-harness analyze schedules --all --nranks 2:4096:log``.
* ``analyze ir`` -- verify lowered-IR artifacts: cached ``*.mpiwasm`` files,
  directories of them, or ``.wasm``/``.wat`` sources (compiled in-process,
  then verified) -- the CI pass runs this over the bench-smoke modules.
* ``analyze checkpoint`` -- verify :mod:`repro.fault.checkpoint` snapshot
  documents (digest, rank coverage, executor bounds, memory image) without
  resuming them.
* ``analyze lint`` -- the project-invariant linter over source trees;
  ``--self`` (or top-level ``--self-lint``) lints this repo's ``src/``
  against the checked-in ``.codelint-baseline.json``.

Every subcommand accepts ``--json`` (machine-readable report), ``--verbose``
(include notes) and ``--strict`` (warnings also fail), and exits non-zero
exactly when the merged report contains errors (or warnings under
``--strict``).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.findings import Report


def _finish(report: Report, args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        print(report.to_json())
    else:
        print(report.format_text(verbose=getattr(args, "verbose", False)))
    return report.exit_code(strict=getattr(args, "strict", False))


# ------------------------------------------------------------------ schedules


def _cmd_schedules(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import schedule_check

    nranks = None
    if args.nranks:
        try:
            nranks = schedule_check.parse_nranks_spec(args.nranks)
        except ValueError as exc:
            parser.error(str(exc))
    collectives = set(args.collective) if args.collective else None
    algorithms = set(args.algorithm) if args.algorithm else None
    if not args.all and collectives is None and algorithms is None:
        parser.error("select builders with --collective/--algorithm, or pass --all")
    nbytes = [int(tok) for tok in args.nbytes.split(",") if tok.strip()]
    report = schedule_check.sweep(
        collectives=collectives,
        algorithms=algorithms,
        nranks=nranks,
        nbytes_list=nbytes,
        max_steps=args.max_steps,
    )
    return _finish(report, args)


# ------------------------------------------------------------------------- ir


def _artifact_paths(paths: Sequence[str], parser: argparse.ArgumentParser) -> List[Path]:
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.glob("*.mpiwasm")))
        elif path.exists():
            out.append(path)
        else:
            parser.error(f"no such file or directory: {raw}")
    return out


def _verify_ir_path(path: Path, report: Report) -> None:
    from repro.analysis import ir_verify

    if path.suffix in (".wasm", ".wat"):
        from repro.wasm import decode_module, validate_module
        from repro.wasm.lowering import lower_module, serialize_lowered

        try:
            module = decode_module(path.read_bytes())
            validate_module(module)
            payload = serialize_lowered(lower_module(module))
        except Exception as exc:
            report.error("ir", "module-error",
                         f"cannot compile module for verification: {exc}", str(path))
            return
        ir_verify.verify_payload(payload, report, str(path))
        return
    from repro.wasm.compilers.cache import decode_record

    try:
        raw = path.read_bytes()
    except OSError as exc:
        report.error("ir", "bad-artifact-file", f"cannot read: {exc}", str(path))
        return
    record = decode_record(raw)
    if record is None:
        report.error("ir", "bad-artifact-file",
                     "not an intact cache record (digest mismatch or undecodable)", str(path))
        return
    ir_verify.verify_payload(record["artifact"], report, str(path))


def _cmd_ir(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    report = Report()
    paths = _artifact_paths(args.paths, parser)
    if not paths:
        report.note("ir", "no-artifacts", "no artifacts matched the given paths")
    for path in paths:
        _verify_ir_path(path, report)
    return _finish(report, args)


# ----------------------------------------------------------------- checkpoint


def _cmd_checkpoint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import checkpoint_verify

    report = Report()
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.ckpt.json"))
            if not found:
                report.note("checkpoint", "no-checkpoints",
                            "directory holds no *.ckpt.json files", str(path))
            for file in found:
                report.merge(checkpoint_verify.verify_checkpoint(file))
        else:
            report.merge(checkpoint_verify.verify_checkpoint(path))
    return _finish(report, args)


# ----------------------------------------------------------------------- lint


def _cmd_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import codelint

    if args.self or not args.paths:
        report, baseline_path = codelint.self_lint(update_baseline=args.update_baseline)
        if args.update_baseline:
            print(f"baseline written to {baseline_path}")
        return _finish(report, args)
    report = codelint.lint_paths([Path(p) for p in args.paths])
    if args.baseline:
        if args.update_baseline:
            codelint.save_baseline(report, Path(args.baseline))
            print(f"baseline written to {args.baseline}")
        report = codelint.apply_baseline(report, codelint.load_baseline(Path(args.baseline)))
    return _finish(report, args)


# --------------------------------------------------------------------- parser


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the analyze subcommands to ``parser`` (shared by the harness
    CLI's ``analyze`` subparser and the standalone module entry point)."""
    parser.add_argument("--self-lint", action="store_true",
                        help="shorthand for 'lint --self': lint src/ against "
                             "the checked-in baseline")
    sub = parser.add_subparsers(dest="analyze_what")

    sched = sub.add_parser(
        "schedules", help="statically verify collective schedules cross-rank")
    sched.add_argument("--all", action="store_true",
                       help="check every registered (collective, algorithm) builder")
    sched.add_argument("--collective", action="append", default=None,
                       help="restrict to this collective (repeatable)")
    sched.add_argument("--algorithm", action="append", default=None,
                       help="restrict to this algorithm (repeatable)")
    sched.add_argument("--nranks", default=None,
                       help="rank counts: N | N,M,... | lo:hi | lo:hi:log "
                            "(default: log-spaced 2..4096 plus odd sizes)")
    sched.add_argument("--nbytes", default="4,4096",
                       help="comma-separated payload sizes in bytes (default 4,4096)")
    sched.add_argument("--max-steps", type=int, default=None,
                       help="per-point total step budget; larger points are "
                            "skipped with a note; 0 = unlimited "
                            "(default 2000000)")
    _common_flags(sched)
    sched.set_defaults(analyze_func=_cmd_schedules)

    ir = sub.add_parser(
        "ir", help="verify lowered-IR artifacts / fusion tables")
    ir.add_argument("paths", nargs="+",
                    help="*.mpiwasm artifact files, directories of them, or "
                         ".wasm/.wat modules (compiled then verified)")
    _common_flags(ir)
    ir.set_defaults(analyze_func=_cmd_ir)

    ckpt = sub.add_parser(
        "checkpoint", help="verify checkpoint snapshot documents")
    ckpt.add_argument("paths", nargs="+",
                      help="checkpoint files (repro.fault.checkpoint JSON) or "
                           "directories of *.ckpt.json snapshots")
    _common_flags(ckpt)
    ckpt.set_defaults(analyze_func=_cmd_checkpoint)

    lint = sub.add_parser(
        "lint", help="run the project-invariant linter")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: --self)")
    lint.add_argument("--self", action="store_true",
                      help="lint this repo's src/ against its baseline")
    lint.add_argument("--baseline", default=None,
                      help="baseline JSON gating pre-existing violations")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current violations")
    _common_flags(lint)
    lint.set_defaults(analyze_func=_cmd_lint)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report")
    parser.add_argument("--verbose", action="store_true",
                        help="include notes (skipped points, baselined hits)")
    parser.add_argument("--strict", action="store_true",
                        help="warnings also fail the run")


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Dispatch a parsed ``analyze`` invocation."""
    if getattr(args, "self_lint", False):
        from repro.analysis import codelint

        report, _path = codelint.self_lint()
        return _finish(report, args)
    func = getattr(args, "analyze_func", None)
    if func is None:
        parser.error("choose an analyzer: schedules | ir | checkpoint | lint "
                     "(or --self-lint)")
    if getattr(args, "analyze_what", None) == "schedules" and args.max_steps is None:
        from repro.analysis.schedule_check import DEFAULT_MAX_STEPS

        args.max_steps = DEFAULT_MAX_STEPS
    return func(args, parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static verification: schedules, lowered IR, project lints.",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    return run(args, parser)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
