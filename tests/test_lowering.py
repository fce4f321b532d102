"""Tests for the lowering pass, the lowered-IR artifacts and the AoT cache."""

from __future__ import annotations

import pytest

from repro.api import Session, run
from repro.core import EmbedderConfig, MPIWasm
from repro.harness.report import format_cache_report
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import compile_guest
from repro.wasm import ImportObject, Instance, ModuleBuilder, validate_module
from repro.wasm.compilers import FileSystemCache, InMemoryCache, get_backend
from repro.wasm.compilers.cache import module_hash
from repro.wasm.interpreter import Interpreter
from repro.wasm.lowering import (
    IR_VERSION,
    LoweredFunction,
    apply_fusion_table,
    deserialize_lowered,
    lower_module,
    mine_superinstructions,
    serialize_lowered,
)


def _sum_module():
    mb = ModuleBuilder(name="lowering-tests")
    mb.add_memory(1)
    f = mb.function("sum_to", params=[("n", "i32")], results=["i32"], export=True)
    f.add_local("i", "i32")
    f.add_local("acc", "i32")
    with f.for_range("i", end_local="n"):
        f.get("acc").get("i").emit("i32.add").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return module


# ----------------------------------------------------------------- lowered IR


def test_lowering_pre_resolves_branches_and_constants():
    module = _sum_module()
    [lowered] = lower_module(module)
    kinds = [kind for kind, _ in lowered.ops]
    # No string-dispatch leftovers: every op is a resolved kind, and the
    # for_range exit check collapsed into one compare-branch superinstruction.
    assert "fused.get_get_cmp_br_if" in kinds
    assert "fused.get_get_bin_set" in kinds      # acc + i -> acc, stack-free
    assert "fused.get_const_bin_set_br" in kinds  # i + 1 -> i, plus back-edge
    # Branch targets are absolute offsets, not run-time scans.
    block_imms = [imm for kind, imm in lowered.ops if kind == "block"]
    assert block_imms and all(isinstance(imm[1], int) for imm in block_imms)


def test_serial_roundtrip_executes_identically():
    module = _sum_module()
    lowered = lower_module(module)
    payload = serialize_lowered(lowered)
    assert payload["ir_version"] == IR_VERSION
    rebuilt = deserialize_lowered(payload)
    assert rebuilt is not None
    direct = Instance(module, ImportObject(), executor=Interpreter(lowered=lowered))
    roundtrip = Instance(module, ImportObject(), executor=Interpreter(lowered=rebuilt))
    for n in (0, 1, 7, 100):
        assert direct.invoke("sum_to", n) == roundtrip.invoke("sum_to", n) == [n * (n - 1) // 2]


def test_stale_ir_version_is_rejected():
    payload = serialize_lowered(lower_module(_sum_module()))
    payload["ir_version"] = IR_VERSION + 1
    assert deserialize_lowered(payload) is None
    assert deserialize_lowered({"kind": "something-else"}) is None
    assert deserialize_lowered(None) is None


def test_lazy_interpreter_lowers_on_first_call_only():
    module = _sum_module()
    executor = Interpreter(lazy=True)
    instance = Instance(module, ImportObject(), executor=executor)
    assert executor._functions == {}            # prepare() did no work
    assert instance.invoke("sum_to", 10) == [45]
    assert set(executor._functions) == {0}      # lowered exactly on first call


# -------------------------------------------- profile-guided superinstructions


def _v128_mix_module():
    """Repeated (local.get, splat) and (local.get, extract_lane) runs: chains
    the static fusion pass does not cover, so the miner has work to do."""
    mb = ModuleBuilder(name="mining-tests")
    mb.add_memory(1)
    f = mb.function("mix", params=[("a", "i32"), ("b", "i32")],
                    results=["i32"], export=True)
    f.add_local("x", "v128")
    f.get("a").emit("i32x4.splat")
    f.get("b").emit("i32x4.splat")
    f.emit("i32x4.add").set("x")
    f.get("a").emit("i32x4.splat")
    f.get("b").emit("i32x4.splat")
    f.emit("i32x4.mul")
    f.get("x").emit("v128.xor").set("x")
    f.get("x").emit("i32x4.extract_lane", 0)
    for lane in (1, 2, 3):
        f.get("x").emit("i32x4.extract_lane", lane).emit("i32.xor")
    module = mb.build()
    validate_module(module)
    return module


def test_mined_fusion_round_trips_through_serialized_artifact():
    """Acceptance: mine -> apply -> serialize -> deserialize -> link -> run."""
    module = _v128_mix_module()
    inputs = [(0, 0), (5, 9), (-3, 0x7FFFFFFF)]
    plain = Instance(module, ImportObject(), executor=Interpreter())
    reference = [plain.invoke("mix", a, b) for a, b in inputs]

    lowered = lower_module(module)
    table = mine_superinstructions(lowered)
    assert table, "the repeated splat/extract runs must clear default thresholds"
    assert all(rec["width"] >= 2 and rec["occurrences"] >= 2 for rec in table)
    formed = apply_fusion_table(lowered, table)
    assert formed > 0
    [mixed] = lowered
    assert any(kind == "fused.mined" for kind, _ in mixed.ops)

    payload = serialize_lowered(lowered, fusion_table=table)
    assert payload["fusion_table"] == table     # decisions ride in the artifact
    rebuilt = deserialize_lowered(payload)
    assert any(kind == "fused.mined" for kind, _ in rebuilt[0].ops)

    fused = Instance(module, ImportObject(), executor=Interpreter(lowered=lowered))
    replayed = Instance(module, ImportObject(), executor=Interpreter(lowered=rebuilt))
    for (a, b), expected in zip(inputs, reference):
        assert fused.invoke("mix", a, b) == expected
        assert replayed.invoke("mix", a, b) == expected


def test_mining_consumes_profiler_traces_and_histogram():
    from repro.obs import profiling

    module = _v128_mix_module()
    with profiling() as profiler:
        instance = Instance(module, ImportObject(), executor=Interpreter())
        instance.invoke("mix", 1, 2)
    assert profiler.ir_traces, "profiled execution must record serial IR traces"
    table = mine_superinstructions(profiler.ir_traces.values(),
                                   histogram=profiler.handler_histogram())
    assert table and all(rec["score"] > 0 for rec in table)
    # A histogram in which no constituent handler ever fired kills every chain.
    assert mine_superinstructions(profiler.ir_traces.values(),
                                  histogram={"_h_unrelated": 99}) == []


# -------------------------------------------------------------------- caching


def test_module_hash_keyed_on_bytes_backend_and_ir_version():
    a = module_hash(b"module-bytes", "llvm")
    assert a == module_hash(b"module-bytes", "llvm")
    assert a != module_hash(b"module-bytes!", "llvm")
    assert a != module_hash(b"module-bytes", "cranelift")
    assert a != module_hash(b"module-bytes", "llvm", ir_version=IR_VERSION + 1)


@pytest.mark.parametrize("backend_name", ["singlepass", "cranelift", "llvm"])
def test_every_backend_artifact_is_serializable(backend_name, tmp_path):
    app = compile_guest(GuestProgram(name="artifact-test", main=lambda api, args: 0))
    compiled = get_backend(backend_name).compile(app.module)
    assert isinstance(compiled.artifact, dict)
    assert compiled.artifact["ir_version"] == IR_VERSION
    cache = FileSystemCache(tmp_path)
    key = module_hash(app.wasm_bytes, backend_name)
    cache.store(key, compiled)
    loaded = cache.load(key, app.module)
    assert loaded is not None and loaded.artifact == compiled.artifact
    assert loaded.compile_seconds == 0.0
    # The reloaded artifact must yield a working executor without recompiling.
    assert loaded.make_executor() is not None


def test_filesystem_cache_rejects_stale_ir_artifacts(tmp_path):
    app = compile_guest(GuestProgram(name="stale-test", main=lambda api, args: 0))
    compiled = get_backend("cranelift").compile(app.module)
    compiled.ir_version = IR_VERSION + 1  # simulate an artifact from an older IR
    cache = FileSystemCache(tmp_path)
    key = module_hash(app.wasm_bytes, "cranelift")
    cache.store(key, compiled)
    assert cache.load(key, app.module) is None
    assert cache.stats() == {"hits": 0, "misses": 1}


def test_second_identical_compile_does_zero_work(tmp_path):
    """Acceptance: a cache hit skips lowering/codegen entirely."""
    app = compile_guest(GuestProgram(name="zero-work", main=lambda api, args: 0))
    config = EmbedderConfig(compiler_backend="llvm", cache_dir=str(tmp_path))
    embedder = MPIWasm(config, FileSystemCache(tmp_path))
    first = embedder.compile_module(app.wasm_bytes, app.module)
    assert not embedder.last_cache_hit and first.compile_seconds > 0
    second = embedder.compile_module(app.wasm_bytes, app.module)
    assert embedder.last_cache_hit
    assert second.compile_seconds == 0.0
    assert embedder.cache.stats() == {"hits": 1, "misses": 1}


def test_cache_dir_env_knob(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "aot"))
    with Session() as session:
        config = session.config.embedder_config()
        assert config.cache_dir == str(tmp_path / "aot")
        assert isinstance(session.artifact_cache(config).disk, FileSystemCache)
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert Session().config.cache_dir is None


def test_cache_counters_surface_in_metrics_and_report(tmp_path):
    program = GuestProgram(name="metrics-cache", main=None)

    def main(api, args):
        api.mpi_init()
        api.mpi_finalize()
        return 0

    program.main = main
    # A fresh session (cold in-memory tier) over a fresh on-disk cache keeps
    # this independent of what other tests may already have warmed.
    with Session() as session:
        job = session.run(program, 2, machine="graviton2",
                          config=EmbedderConfig(compiler_backend="cranelift",
                                                cache_dir=str(tmp_path)))
    summary = job.metrics.cache_summary()
    # Rank 0 compiles (miss), rank 1 hits the shared in-process cache.
    assert summary["misses"] >= 1 and summary["hits"] >= 1
    assert summary["hits"] + summary["misses"] == 2
    rendered = format_cache_report(job.metrics)
    assert "hit rate" in rendered and "AoT compilation cache" in rendered
    assert job.rank_results[1].cache_hit


# -------------------------------------------------- executor interface wiring


def test_embedder_configures_executor_call_depth():
    app = compile_guest(GuestProgram(name="depth-test", main=lambda api, args: 0))
    config = EmbedderConfig(compiler_backend="cranelift", max_call_depth=64)
    embedder = MPIWasm(config, InMemoryCache())
    compiled = embedder.compile_module(app.wasm_bytes, app.module)
    executor = compiled.make_executor()
    executor.configure(max_call_depth=config.max_call_depth)
    assert executor.max_call_depth == 64
