"""``python -m benchmarks.e2e``: every workload, every metric, one report.

    PYTHONPATH=src python -m benchmarks.e2e --seed N [--workload W ...] [--seconds S]
        [--traced] [--layers] [--smoke] [--selfcheck] [--out PATH] [--trace-out PATH]

Prints each metric by name with its unit, checks every output and exits
non-zero on any failure.  Nothing is written unless ``--out``/``--trace-out``
is given.  ``--selfcheck`` runs the untraced set twice and fails if any
(workload, end-to-end metric) pair disagrees by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List

from benchmarks.e2e.run import ROOT, ChildFailed, TempRoot, load_spec, run_workload, spawn_child


def header(seed: int) -> Dict[str, object]:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "seed": seed,
            "commit": git.stdout.strip() if git.returncode == 0 else "unknown"}


def run_set(names: List[str], args, tmp: str, traced: bool, units: Dict[str, str]) -> Dict[str, dict]:
    results = {}
    for name in names:
        options = dict(smoke=True, setup_samples=1, min_units=2) if args.smoke else {}
        if traced and args.trace_out:
            options["trace_out"] = os.path.join(tmp, f"{name}.trace.json")
        results[name] = run_workload(name, args.seed, 0.0 if args.smoke else args.seconds,
                                     traced, tmp, **options)
        print_workload(results[name], units)
    return results


def print_workload(result: dict, units: Dict[str, str]) -> None:
    q1, median, q3 = result["wall_quartiles_s"]
    print(f"\n{result['workload']}  ({result['samples']} samples; unit wall s: "
          f"q1 {q1:.4f}  median {median:.4f}  q3 {q3:.4f}; work unit: {result['work_unit']}; "
          f"sim_makespan_s {result['sim_makespan_s']!r})")
    print(f"  attempted {result['attempted']}  failed {len(result['errors'])}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    for name, value in {**result["e2e"], **result.get("layer", {})}.items():
        print(f"  {name:<34s} {value:>16.6g} {units[name]}")


def selfcheck(names: List[str], args, tmp: str, spec: dict, units: Dict[str, str]) -> bool:
    first = run_set(names, args, tmp, False, units)
    second = run_set(names[::-1], args, tmp, False, units)
    agree = True
    print(f"\n{'workload':<14s}{'metric':<14s}{'first':>14s}{'second':>14s}{'rel.diff':>10s}{'bound':>8s}")
    for name in names:
        for metric in spec["end_to_end"]:
            a, b = first[name]["e2e"][metric["name"]], second[name]["e2e"][metric["name"]]
            diff = abs(a - b) / min(a, b)
            ok = diff <= metric["bound"]
            agree &= ok
            print(f"{name:<14s}{metric['name']:<14s}{a:>14.6g}{b:>14.6g}{diff:>10.3f}"
                  f"{metric['bound']:>8.2f}{'' if ok else '  DISAGREE'}")
        if first[name]["sim_makespan_s"] != second[name]["sim_makespan_s"]:
            agree = False
            print(f"{name:<14s}sim_makespan_s differs between the two sets")
    return agree and not any(r["errors"] for r in (*first.values(), *second.values()))


def main(argv=None) -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--traced", action="store_true", help="add one traced unit per workload")
    parser.add_argument("--layers", action="store_true", help="run the per-layer probes")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two units (tier-1 test)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--trace-out", help="write the outside spans as a Chrome trace")
    args = parser.parse_args(argv)
    names = args.workload or workloads

    head = header(args.seed)
    print("benchmarks.e2e  " + "  ".join(f"{k}={v}" for k, v in head.items()))
    try:
        with TempRoot() as tmp:
            if args.selfcheck:
                return 0 if selfcheck(names, args, tmp, spec, units) else 1
            results = run_set(names, args, tmp, args.traced, units)
            layers = {}
            if args.layers:
                layers = spawn_child("probes", tmp, seed=args.seed, smoke=args.smoke)["layer"]
                print("\nlayer probes")
                for name, value in layers.items():
                    print(f"  {name:<44s} {value:>14.6g} {units[name]}")
            events = []
            if args.traced and args.trace_out:
                for pid, name in enumerate(names):
                    with open(os.path.join(tmp, f"{name}.trace.json"), encoding="utf-8") as fh:
                        events += [{**event, "pid": pid} for event in json.load(fh)]
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"header": head, "workloads": results, "layers": layers}, fh, indent=1)
    failed = sum(len(r["errors"]) for r in results.values())
    print(f"\n{'FAILED' if failed else 'ok'}: {failed} failed operations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
