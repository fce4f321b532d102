"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

One ``python -m benchmarks.e2e --smoke --traced --layers`` run must name
every workload and metric of ``BENCHMARK.json`` with its unit, fail no
operation, repeat simulated results exactly, nest its spans, and leave every
tracked file byte-identical.  No timing is asserted here.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e.run import ROOT, load_spec


def _tracked_digest() -> str:
    """One digest over every tracked file (or, outside git, the repo's JSON + this package)."""
    listing = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True)
    if listing.returncode == 0 and listing.stdout:
        paths = [ROOT / p for p in listing.stdout.decode().split("\0") if p]
    else:
        paths = sorted(ROOT.glob("*.json")) + sorted((ROOT / "benchmarks" / "e2e").glob("*.py"))
    digest = hashlib.blake2b(digest_size=16)
    for path in paths:
        if path.is_file():
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e-smoke")
    out, trace = out_dir / "out.json", out_dir / "trace.json"
    before = _tracked_digest()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               REPRO_COLL_ALGO="no-such-collective:x")   # fails every job unless scrubbed
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--traced", "--layers",
         "--seed", "3", "--out", str(out), "--trace-out", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return {"done": done, "before": before, "after": _tracked_digest(),
            "out": json.loads(out.read_text()) if out.exists() else None,
            "trace": json.loads(trace.read_text()) if trace.exists() else None}


def test_smoke_run_succeeds_and_touches_no_tracked_file(smoke_run):
    done = smoke_run["done"]
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert smoke_run["before"] == smoke_run["after"]
    assert not (ROOT / ".bench_tmp").exists()


def test_every_declared_workload_and_metric_is_reported_with_its_unit(smoke_run):
    spec, out, text = load_spec(), smoke_run["out"], smoke_run["done"].stdout
    assert set(out["header"]) == {"nproc", "python", "seed", "commit"}
    for workload in spec["workloads"]:
        result = out["workloads"][workload["name"]]
        assert result["errors"] == [] and result["attempted"] >= 1
        assert result["samples"] >= 2                # the makespan check compared two units
        for metric in spec["end_to_end"]:
            assert result["e2e"][metric["name"]] > 0, (workload["name"], metric["name"])
    reported = set(out["layers"])
    for result in out["workloads"].values():
        reported |= set(result["layer"])
    assert reported == {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in text.splitlines()), metric["name"]


def test_outside_spans_nest(smoke_run):
    spans = [e for e in smoke_run["trace"]["traceEvents"] if e["ph"] == "X"]
    assert {e["args"]["workload"] for e in spans} == {w["name"] for w in load_spec()["workloads"]}
    by_id = {(e["pid"], e["args"]["id"]): e for e in spans}
    child_time = {}
    for e in spans:
        parent = e["args"]["parent"]
        if parent is None:
            continue
        p = by_id[(e["pid"], parent)]
        assert p["ts"] <= e["ts"] and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3
        child_time[(e["pid"], parent)] = child_time.get((e["pid"], parent), 0.0) + e["dur"]
    for key, covered in child_time.items():
        assert covered <= by_id[key]["dur"] + 1.0        # self time >= 0 (1 us rounding slack)
