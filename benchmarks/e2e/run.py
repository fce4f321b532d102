"""Contract entry point: one workload, one JSON result line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``; ``--trace
1`` prints every per-layer metric (a traced unit plus the layer probes).  This
file imports nothing from the program: all measuring happens in child
processes (``child.py``) that it spawns, one after another, with ``REPRO_*``
scrubbed from their environment and a private temp dir inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
#: Fresh processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Share of ``--seconds`` a ``--trace 1`` run spends on untraced units (the
#: base of ``obs.trace.overhead_ratio``); the rest of its time is the probes.
TRACED_SHARE = 1 / 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


class TempRoot:
    """Private temp dir inside the checkout, removed on exit."""

    def __enter__(self) -> str:
        base = ROOT / ".bench_tmp"
        base.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=base)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass                                   # another run is using it


def spawn_child(mode: str, tmp: str, **options) -> dict:
    """Run ``child.py`` to completion and return the JSON it printed last."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = tmp              # the program's own mkdtemp calls land here too
    command = [sys.executable, "-m", "benchmarks.e2e.child", "--mode", mode, "--tmp", tmp]
    for key, value in options.items():
        if value is True:
            command.append(f"--{key.replace('_', '-')}")
        elif value is not None and value is not False and value != "":
            command += [f"--{key.replace('_', '-')}", str(value)]
    command += ["--spawned", repr(time.monotonic())]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child {options.get('workload', '')} exited "
                          f"{done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: str, *,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES,
                 min_units: Optional[int] = None, trace_out: Optional[str] = None) -> dict:
    """Set-up samples plus the measuring child for one workload."""
    common = dict(workload=name, seed=seed, smoke=smoke)
    setups = [spawn_child("setup", tmp, **common) for _ in range(setup_samples - 1)]
    result = spawn_child("run", tmp, seconds=seconds, trace=int(trace),
                         min_units=min_units, trace_out=trace_out, **common)
    setup_values = [s["setup_s"] for s in setups] + [result["setup_s"]]
    result["errors"] += [e for s in setups for e in s["errors"]]
    result["attempted"] += sum(s["attempted"] for s in setups)
    result["e2e"]["setup_s"] = statistics.median(setup_values)
    result["e2e"]["peak_rss_mb"] = result["peak_rss_mb"]
    result["setup_samples_s"] = setup_values
    return result


def contract_result(result: dict, metrics: Dict[str, float], declared: List[dict]) -> dict:
    """The contract's result object; every declared metric must be present."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise ChildFailed(f"metrics not produced: {missing}")
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": len(result["errors"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with TempRoot() as tmp:
            if args.trace:
                result = run_workload(args.workload, args.seed, args.seconds * TRACED_SHARE,
                                      True, tmp, setup_samples=1)
                layer = {**spawn_child("probes", tmp, seed=args.seed)["layer"], **result["layer"]}
                line = contract_result(result, layer, spec["per_layer"])
            else:
                result = run_workload(args.workload, args.seed, args.seconds, False, tmp)
                line = contract_result(result, result["e2e"], spec["end_to_end"])
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for error in result["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
