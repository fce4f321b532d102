"""Tests of the repro.obs tracing/profiling subsystem.

Covers the recorder primitives (ring buffer, span stacks, enable/disable),
the Chrome trace-event exporter and validator, the interpreter profiling
hooks (including proof that the fused superinstruction handlers fire), and
the acceptance path: a traced campaign produces ONE merged, valid Chrome
trace with per-job lanes and per-rank spans whose schedule rounds nest
inside the owning MPI-call span.
"""

import json

import pytest

from repro.harness.campaign import CampaignSpec, run_campaign
from repro.obs import (
    InterpreterProfiler,
    TraceRecorder,
    merge_traces,
    profiling,
    to_chrome_trace,
    to_jsonl,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.hooks import current_hooks


# ---------------------------------------------------------------- the recorder


def test_recorder_span_nesting_and_durations():
    r = TraceRecorder()
    r.begin("outer", tid=0, ts=1.0)
    r.begin("inner", tid=0, ts=2.0)
    r.end(tid=0, ts=3.0)
    r.end(tid=0, ts=5.0)
    events = r.events()
    assert [e["name"] for e in events] == ["inner", "outer"]   # completion order
    inner, outer = events
    assert inner["ts"] == 2.0 and inner["dur"] == pytest.approx(1.0)
    assert outer["ts"] == 1.0 and outer["dur"] == pytest.approx(4.0)
    assert r.open_spans() == 0 and r.unbalanced == 0


def test_recorder_per_tid_stacks_are_independent():
    r = TraceRecorder()
    r.begin("a", tid=0, ts=0.0)
    r.begin("b", tid=1, ts=0.5)
    r.end(tid=0, ts=1.0)                # closes rank 0's span, not rank 1's
    assert r.events()[0]["name"] == "a"
    assert r.open_spans(1) == 1


def test_recorder_ring_buffer_drops_oldest_and_counts():
    r = TraceRecorder(capacity=4)
    for i in range(10):
        r.instant(f"e{i}", tid=0, ts=float(i))
    events = r.events()
    assert len(events) == 4
    assert [e["name"] for e in events] == ["e6", "e7", "e8", "e9"]
    assert r.dropped == 6
    assert r.snapshot()["dropped"] == 6


def test_recorder_unbalanced_end_is_counted_not_fatal():
    r = TraceRecorder()
    r.end(tid=0, ts=1.0)
    assert r.unbalanced == 1 and r.events() == []


def test_tracing_context_installs_and_restores():
    assert current_hooks().tracer is None
    with tracing() as recorder:
        assert current_hooks().tracer is recorder
        with recorder.span("s", tid=3, now=lambda: 1.0):
            pass
    assert current_hooks().tracer is None
    assert recorder.events()[0]["tid"] == 3


# ------------------------------------------------------------------- exporters


def _sample_snapshot():
    r = TraceRecorder()
    r.begin("MPI_Allreduce", tid=0, ts=1e-6)
    r.instant("pt2pt.post", tid=0, ts=2e-6, args={"nbytes": 64})
    r.end(tid=0, ts=1e-5)
    return r.snapshot()


def test_chrome_export_shape_and_units():
    doc = to_chrome_trace(_sample_snapshot(), process_name="job")
    assert validate_chrome_trace(doc) == []
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    (span,) = spans
    assert span["ts"] == pytest.approx(1.0)          # sim seconds -> microseconds
    assert span["dur"] == pytest.approx(9.0)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants[0]["args"]["nbytes"] == 64
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {e["name"] for e in meta}
    assert {"process_name", "thread_name"} <= names


def test_merge_traces_assigns_one_pid_per_job():
    doc = merge_traces([("job-a", _sample_snapshot()), ("job-b", _sample_snapshot())])
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {1, 2}
    process_names = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert process_names == {"job-a", "job-b"}
    assert validate_chrome_trace(doc) == []


def test_write_chrome_trace_and_jsonl(tmp_path):
    path = write_chrome_trace(tmp_path / "t.json", _sample_snapshot())
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc and validate_chrome_trace(doc) == []
    lines = to_jsonl(_sample_snapshot()).strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["name"] == "pt2pt.post" or json.loads(lines[0])["name"] == "MPI_Allreduce"


def test_validator_flags_broken_documents():
    assert validate_chrome_trace({"traceEvents": "nope"})
    missing = {"traceEvents": [{"ph": "X", "ts": 0}]}
    assert any("missing" in p for p in validate_chrome_trace(missing))
    overlap = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
        {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 0},
    ]}
    assert any("overlap" in p for p in validate_chrome_trace(overlap))


# ------------------------------------------------------ instrumented MPI layer


def test_session_run_records_per_rank_spans_and_instants():
    from repro.api import Session

    with Session(backend="singlepass", trace=True) as session:
        job = session.run("allreduce", 4)
    assert job.trace is not None
    events = job.trace["events"]
    names = {e["name"] for e in events}
    assert "MPI_Allreduce" in names
    assert "pt2pt.post" in names and "pt2pt.consume" in names
    assert "coll.algorithm" in names
    assert {e["tid"] for e in events} == {0, 1, 2, 3}
    assert job.trace["unbalanced"] == 0


def test_tracing_disabled_records_nothing():
    from repro.api import Session

    with Session(backend="singlepass") as session:       # trace defaults off
        job = session.run("allreduce", 2)
    assert job.trace is None
    assert current_hooks().tracer is None


def test_nbc_schedule_steps_nest_inside_mpi_call_spans():
    """One trace form for every schedule: a ``sched.round[N]`` instant where
    a round starts and one ``sched.<Step>`` span per step, inside the MPI
    call that ran it -- ``MPI_Iallreduce`` for the steps its start pass ran,
    ``MPI_Wait`` for the rest."""
    from repro.api import Session

    with Session(backend="singlepass", trace=True) as session:
        job = session.run("iallreduce", 2)
    events = job.trace["events"]
    steps = [e for e in events if e["name"].startswith("sched.") and e["name"].endswith("Step")]
    calls = [e for e in events if e["name"].startswith("MPI_")]
    assert steps and all(e["ph"] == "X" for e in steps)
    eps = 1e-15  # seconds of float rounding in ts + dur

    def owners(step):
        return [c["name"] for c in calls
                if c["tid"] == step["tid"] and c["ts"] <= step["ts"] + eps
                and step["ts"] + step["dur"] <= c["ts"] + c["dur"] + eps]

    step_owners = [owners(step) for step in steps]
    assert all(step_owners)
    assert {"MPI_Iallreduce", "MPI_Wait"} <= {name for names in step_owners for name in names}
    rounds = [e for e in events if e["name"].startswith("sched.round[")]
    assert rounds and all(e["ph"] == "i" for e in rounds)
    assert not any(e["name"].startswith("sched.nbc_") for e in events)
    doc = to_chrome_trace(job.trace)
    assert validate_chrome_trace(doc) == []


# -------------------------------------------------------- campaign acceptance


def test_traced_campaign_merges_into_one_valid_timeline(tmp_path):
    spec = CampaignSpec.from_mapping({
        "name": "trace-acceptance",
        "seed": 1,
        "trace": True,
        "cache_dir": False,
        "benchmarks": [
            {"benchmark": ["allreduce", "alltoall"], "mode": "wasm",
             "backend": "singlepass", "nranks": 4, "machine": "graviton2"},
        ],
    })
    result = run_campaign(spec)
    assert result.ok
    assert all(o.trace for o in result.outcomes)

    doc = result.trace_timeline()
    assert validate_chrome_trace(doc) == []

    # One lane ("process") per job, one "thread" per rank.
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) == 2
    for pid in pids:
        tids = {e["tid"] for e in doc["traceEvents"]
                if e["pid"] == pid and e["ph"] == "X"}
        assert tids == {0, 1, 2, 3}

    # Schedule steps nest inside the owning collective's MPI-call span.
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    steps = [e for e in spans if e["name"].startswith("sched.") and e["name"].endswith("Step")]
    mpi_calls = [e for e in spans if e["name"].startswith("MPI_")]
    assert steps and mpi_calls
    eps = 1e-6      # microseconds; absorbs float rounding in the µs conversion
    def encloses(outer, inner):
        return (outer["pid"] == inner["pid"] and outer["tid"] == inner["tid"]
                and outer["ts"] <= inner["ts"] + eps
                and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + eps)
    assert all(any(encloses(m, s) for m in mpi_calls) for s in steps)

    # And the written file is a valid Chrome trace document.
    path = result.write_trace(tmp_path / "timeline.json")
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) == []
    assert loaded["metadata"]["dropped_events"] == 0


def test_untraced_campaign_has_no_timeline():
    spec = CampaignSpec.from_mapping({
        "name": "untraced",
        "cache_dir": False,
        "benchmarks": [{"benchmark": "allreduce", "mode": "wasm",
                        "backend": "singlepass", "nranks": 2}],
    })
    result = run_campaign(spec)
    assert result.trace_timeline() is None
    with pytest.raises(ValueError):
        result.write_trace("unused.json")


def test_traced_campaign_fingerprints_match_untraced():
    """Tracing must not perturb the simulation: per-job fingerprints agree
    with an untraced run of the same spec."""
    mapping = {
        "name": "fp",
        "seed": 3,
        "cache_dir": False,
        "benchmarks": [{"benchmark": "allreduce", "mode": "wasm",
                        "backend": "singlepass", "nranks": 2}],
    }
    plain = run_campaign(CampaignSpec.from_mapping(mapping))
    traced = run_campaign(CampaignSpec.from_mapping(mapping), trace=True)
    assert plain.fingerprints() == traced.fingerprints()


# ---------------------------------------------------------------- the profiler


def test_profiler_counts_fused_superinstructions():
    from repro.api import Session

    with profiling() as profiler:
        with Session(backend="singlepass") as session:
            session.run("allreduce", 2)
    report = profiler.report()
    assert report["estimated_dispatches"] > 0
    assert profiler.fused_hits() > 0                 # fused handlers really fire
    assert any(name.startswith("_h_") for name in report["handlers"])


def test_profiler_attributes_mined_superinstructions_by_chain():
    from repro.obs import format_profile_report
    from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module
    from repro.wasm.interpreter import Interpreter
    from repro.wasm.lowering import (
        apply_fusion_table,
        lower_module,
        mine_superinstructions,
    )

    mb = ModuleBuilder(name="mined-attribution")
    mb.add_memory(1)
    f = mb.function("mix", params=[("a", "i32")], results=["i32"], export=True)
    f.add_local("x", "v128")
    f.get("a").emit("i32x4.splat").set("x")
    f.get("a").emit("i32x4.splat").set("x")
    f.get("x").emit("i32x4.extract_lane", 0)
    f.get("x").emit("i32x4.extract_lane", 1).emit("i32.xor")
    module = mb.build()
    validate_module(module)

    lowered = lower_module(module)
    table = mine_superinstructions(lowered, min_occurrences=1)
    assert apply_fusion_table(lowered, table) > 0
    with profiling() as profiler:
        instance = Instance(module, ImportObject(),
                            executor=Interpreter(lowered=lowered))
        assert instance.invoke("mix", 7) == [0]
    mined = profiler.mined_hits()
    assert mined, "mined chain executors must appear in the histogram"
    assert all(name.startswith("_h_fused_mined__") for name in mined)
    assert profiler.report()["mined_superinstructions"] == mined
    assert "mined superinstruction" in format_profile_report(profiler)


def test_profiler_sampling_scales_estimates():
    p = InterpreterProfiler(sample_every=4)
    p.handler_hits["_h_bin"] = 10
    assert p.handler_histogram()["_h_bin"] == 40
    with pytest.raises(ValueError):
        InterpreterProfiler(sample_every=0)


def test_profiler_self_time_excludes_children():
    p = InterpreterProfiler()
    p.enter("parent")
    p.enter("child")
    p.exit("child")
    p.exit("parent")
    assert p.self_seconds["parent"] == pytest.approx(
        p.total_seconds["parent"] - p.total_seconds["child"], abs=1e-6)
    assert p.calls["parent"] == 1 and p.calls["child"] == 1


def test_profiling_context_restores_prior_state():
    assert current_hooks().profiler is None
    with profiling() as p:
        assert current_hooks().profiler is p
    assert current_hooks().profiler is None


# The profile of a fixed guest, pinned exactly: `repro-harness profile hpcg
# --nranks 2 --backend singlepass` at strides 1 and 7.  Raw handler hits (the
# report's histogram divided by the stride), the exact dispatch count and the
# per-function call counts.
_HPCG_CALLS = {"hpcg_ddot": 50, "malloc": 12}
_HPCG_HANDLER_HITS = {
    1: {"_h_local_get": 153686, "_h_bin": 153636, "_h_get_const_bin": 102400,
        "_h_load_f64": 102400, "_h_get_get_cmp_br_if": 51250, "_h_bin_set": 51212,
        "_h_get_const_bin_set_br": 51200, "_h_const": 86, "_h_block": 50,
        "_h_local_set": 50, "_h_loop": 50, "_h_end": 12, "_h_get_get_bin_set": 12,
        "_h_global_get": 12, "_h_global_set": 12, "_h_if": 12, "_h_memory_size": 12},
    7: {"_h_local_get": 21952, "_h_bin": 21949, "_h_load_f64": 14629,
        "_h_get_const_bin": 14628, "_h_get_get_cmp_br_if": 7321, "_h_bin_set": 7317,
        "_h_get_const_bin_set_br": 7315, "_h_const": 11, "_h_local_set": 8,
        "_h_block": 7, "_h_loop": 7, "_h_end": 2, "_h_get_get_bin_set": 2,
        "_h_global_get": 2, "_h_global_set": 2, "_h_if": 2, "_h_memory_size": 2},
}


@pytest.mark.parametrize("stride", sorted(_HPCG_HANDLER_HITS))
def test_profile_cli_numbers_are_pinned_on_hpcg(capsys, stride):
    from repro.harness.cli import main

    assert main(["profile", "hpcg", "--nranks", "2", "--backend", "singlepass",
                 "--sample-every", str(stride), "--top", "1000", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dispatches"] == 666092
    assert {name: hits // stride for name, hits in report["handlers"].items()} \
        == _HPCG_HANDLER_HITS[stride]
    assert report["sampled_dispatches"] == sum(_HPCG_HANDLER_HITS[stride].values())
    assert {row["name"]: row["calls"] for row in report["functions"]} == _HPCG_CALLS


def _nested_call_guest():
    """``outer(a) = inner(inner(a))`` with ``inner(a) = (a + 1) * 3``."""
    from repro.wasm import ModuleBuilder, validate_module

    mb = ModuleBuilder(name="nested-calls")
    inner = mb.function("inner", params=[("a", "i32")], results=["i32"])
    inner.get("a").i32_const(1).emit("i32.add").i32_const(3).emit("i32.mul")
    outer = mb.function("outer", params=[("a", "i32")], results=["i32"], export=True)
    outer.get("a").call("inner").call("inner")
    module = mb.build()
    validate_module(module)
    return module


@pytest.mark.parametrize("stride", [1, 3])
def test_profiler_counts_every_dispatch_across_wasm_calls(stride):
    from repro.wasm import ImportObject, Instance
    from repro.wasm.interpreter import Interpreter
    from repro.wasm.ir import OPS
    from repro.wasm.lowering import lower_module

    module = _nested_call_guest()
    lowered = lower_module(module)
    with profiling(sample_every=stride) as profiler:
        instance = Instance(module, ImportObject(), executor=Interpreter(lowered=lowered))
        assert instance.invoke("outer", 5) == [57]
    assert profiler.calls == {"inner": 2, "outer": 1}
    assert profiler.dispatches == 9
    assert sum(profiler.handler_hits.values()) == profiler.dispatches // stride
    # The counting wrappers live on the profiler: the lowered functions keep
    # their plain handlers.
    plain = {row.handler for row in OPS.values()}
    for function in lowered:
        assert function.code is not None
        assert {handler for handler, _imm in function.code} <= plain
