"""Tests for the lowering pass, the lowered-IR artifacts and the AoT cache."""

from __future__ import annotations

import pytest

from repro.api import ResolvedConfig, Session, run
from repro.core import MPIWasm
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


# ------------------------------------------------------ one row per IR kind


def test_an_ir_row_without_one_of_its_columns_fails_when_built():
    from repro.wasm.ir import OPS, IROp

    row = OPS["bin"]
    columns = dict(kind="bin", handler=row.handler, linker=row.linker, check=row.check,
                   width=1, effect=(2, 1), emit=row.emit)
    assert IROp(**columns) == row
    for missing in ("handler", "linker", "check", "width", "effect", "emit"):
        with pytest.raises(TypeError):
            IROp(**{k: v for k, v in columns.items() if k != missing})
    for column, bad in (("handler", None), ("check", None), ("emit", None),
                        ("linker", "bin"), ("width", 0), ("effect", (1, 2, 3))):
        with pytest.raises(TypeError, match=column if column != "effect" else "effect"):
            IROp(**{**columns, column: bad})
    # Only a one-slot kind can sit in a mined chain.
    with pytest.raises(TypeError, match="one-slot"):
        IROp(**{**columns, "width": 2})


def test_every_kind_lowering_emits_has_a_row():
    from repro.benchmarks_suite import registry
    from repro.wasm.ir import OPS

    modules = [_compile_big_module(1), _sum_module(), _v128_mix_module()]
    modules += [compile_guest(registry.get_program(name)).module
                for name in registry.names()]
    emitted = {kind for module in modules
               for fn in lower_module(module) for kind, _imm in fn.ops}
    assert emitted <= set(OPS), sorted(emitted - set(OPS))
    assert {"fused.get_get_cmp_br_if", "fused.get_const_bin_set_br", "simd.bin", "call"} <= emitted


def test_simd_rows_accept_exactly_the_names_lowering_emits():
    from repro.wasm.instructions import make
    from repro.wasm.ir import SIMD_BINARY_OPS, SIMD_UNARY_OPS
    from repro.wasm.lowering import _lower_instruction
    from repro.wasm.opcodes import BY_NAME, Imm
    from repro.wasm.semantics import _simd_binary, _simd_unary

    lowered = {}
    for name, info in BY_NAME.items():
        if info.is_simd and info.imm == Imm.NONE:
            kind, imm = _lower_instruction(None, make(name), 0, {}, {}, 0)
            lowered.setdefault(kind, set()).add(imm)
    assert lowered["simd.bin"] == SIMD_BINARY_OPS
    assert lowered["simd.un"] == SIMD_UNARY_OPS
    vector = bytes(range(16))
    assert all(len(_simd_binary(name, vector, vector)) == 16 for name in SIMD_BINARY_OPS)
    assert all(len(_simd_unary(name, vector)) == 16 for name in SIMD_UNARY_OPS)


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
    loaded, tier = cache.load_or_compute(key, app.module, lambda: pytest.fail("must not recompile"))
    assert tier == "fs" and loaded.artifact == compiled.artifact
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
    fresh = get_backend("cranelift").compile(app.module)
    computes = []

    def compute():
        computes.append(key)
        return fresh

    loaded, tier = cache.load_or_compute(key, app.module, compute)
    assert tier is None and loaded is fresh and computes == [key]


def test_second_identical_compile_does_zero_work(tmp_path, monkeypatch):
    """Acceptance: a cache hit skips lowering/codegen entirely."""
    app = compile_guest(GuestProgram(name="zero-work", main=lambda api, args: 0))
    backend = get_backend("llvm")
    real_compile, computes = backend.compile, []

    def compile_counted(module):
        computes.append(module)
        return real_compile(module)

    monkeypatch.setattr(backend, "compile", compile_counted)
    embedder = MPIWasm(ResolvedConfig(backend="llvm"), FileSystemCache(tmp_path))
    first = embedder.compile_module(app.wasm_bytes, app.module)
    assert embedder.last_cache_tier is None and first.compile_seconds > 0
    second = embedder.compile_module(app.wasm_bytes, app.module)
    assert embedder.last_cache_tier == "fs"
    assert second.compile_seconds == 0.0
    assert len(computes) == 1


def test_cache_dir_env_knob(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "aot"))
    with Session() as session:
        assert session.config.cache_dir == str(tmp_path / "aot")
        assert isinstance(session.artifact_cache(session.config).disk, FileSystemCache)
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
                          backend="cranelift", cache_dir=str(tmp_path))
    summary = job.metrics.cache_summary()
    # Rank 0 compiles (miss), rank 1 hits the shared in-process cache.
    assert summary["misses"] >= 1 and summary["hits"] >= 1
    assert summary["hits"] + summary["misses"] == 2
    rendered = format_cache_report(job.metrics)
    assert "hit rate" in rendered and "AoT compilation cache" in rendered
    assert job.rank_results[1].cache_hit


# -------------------------------------------------- executor interface wiring


def test_embedder_applies_call_depth_to_executor():
    app = compile_guest(GuestProgram(name="depth-test", main=lambda api, args: 0))
    config = ResolvedConfig(backend="cranelift", max_call_depth=64)
    embedder = MPIWasm(config, InMemoryCache())
    compiled = embedder.compile_module(app.wasm_bytes, app.module)
    executor = compiled.make_executor()
    executor.configure(max_call_depth=config.max_call_depth)
    assert executor.max_call_depth == 64


# ------------------------------------------- cranelift: code on first call


#: sha256 of the pickled cranelift artifact of the e2e ``compile-big`` module
#: (``benchmarks/e2e/modgen.py``) per seed.  Cranelift's compile side is the
#: eager lowering pass whatever its executor does; these pin its artifact.
CRANELIFT_BIG_ARTIFACT_SHA256 = {
    1: "0c216075774a0f52a05ae95d80bca99048fe351eedd0238ba439643dced7d303",
    2828: "e639a5a7a45d2f5f6e6cdfb1f2a630e79493580d57d9c9136389e61f1433aa74",
}


#: sha256 of the LLVM artifact's generated ``source`` for the ``compile-big``
#: module per seed: what LLVM compiles and the disk cache stores.
LLVM_BIG_SOURCE_SHA256 = {
    1: "433940c68b9f8dd57a506573b6f829f9fa773ab5da213469822dc4e725751afc",
    2828: "ee6017022c524e682321ab2e8ce27486e8b067dae9f19d4c4b2c88760985024c",
}

#: sha256 of the fold-free generated source of every function, joined in
#: order: the code Cranelift generates on each function's first call.
CRANELIFT_FIRST_CALL_SOURCE_SHA256 = {
    "compile-big-1": "14d52d32b327927892db77bce68bfce12856f60fc60bcb759b66c5b625c0b8d8",
    "hpcg": "7d22d87eef3d18c855f02a379830da6c9d8de2ac1328a543e06a11a268097537",
}


def _compile_big_module(seed):
    from benchmarks.e2e.modgen import build_big_module
    from repro.wasm import encode_module
    from repro.wasm.decoder import decode_module

    return decode_module(encode_module(build_big_module(seed)))


def _sha256(data):
    import hashlib

    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(CRANELIFT_BIG_ARTIFACT_SHA256))
def test_cranelift_artifact_of_compile_big_module_is_pinned(seed):
    import pickle

    artifact = get_backend("cranelift").compile(_compile_big_module(seed)).artifact
    assert _sha256(pickle.dumps(artifact)) == CRANELIFT_BIG_ARTIFACT_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(LLVM_BIG_SOURCE_SHA256))
def test_llvm_source_of_compile_big_module_is_pinned(seed):
    artifact = get_backend("llvm").compile(_compile_big_module(seed)).artifact
    assert _sha256(artifact["source"].encode()) == LLVM_BIG_SOURCE_SHA256[seed]


@pytest.mark.parametrize("name", sorted(CRANELIFT_FIRST_CALL_SOURCE_SHA256))
def test_cranelift_first_call_source_is_pinned(name):
    from repro.benchmarks_suite.registry import get_program
    from repro.wasm.compilers.llvm import _FunctionCodeGen

    if name == "hpcg":
        module = compile_guest(get_program("hpcg")).module
    else:
        module = _compile_big_module(int(name.rsplit("-", 1)[1]))
    source = "\n\n\n".join(
        _FunctionCodeGen(module, i, fn, fold=False).generate()
        for i, fn in enumerate(lower_module(module))
    )
    assert _sha256(source.encode()) == CRANELIFT_FIRST_CALL_SOURCE_SHA256[name]


def test_every_chainable_emitter_moves_the_height_by_its_effect():
    """The generator's slot heights are the rows' ``effect`` columns: each
    chainable kind, emitted at both optimisation levels over a stack of three
    operands, leaves it at ``3 - pops + pushes``."""
    from repro.wasm.compilers.llvm import _FunctionCodeGen
    from repro.wasm.ir import CHAINABLE, OPS

    samples = {
        "nop": None, "drop": None, "select": None, "local.get": 0, "local.set": 0,
        "local.tee": 0, "global.get": 0, "global.set": 0, "const": 1,
        "load.u": (0, 4), "load.s32": (0, 2), "load.s64": (4, 4), "load.f32": 0,
        "load.f64": 8, "load.v128": 0, "store.i": (0, 4), "store.f32": 0,
        "store.f64": 8, "store.v128": 0, "memory.size": None, "memory.grow": None,
        "memory.copy": None, "memory.fill": None, "bin": "i32.add", "un": "i32.eqz",
        "splat": ("f", 4, 4), "extract_lane": ("f", 4, 0, False),
        "replace_lane": ("f", 4, 0), "v128.not": None, "simd.bin": "i32x4.add",
        "simd.un": "i32x4.neg",
    }
    assert set(samples) == CHAINABLE
    module = _sum_module()
    for kind, imm in samples.items():
        pops, pushes = OPS[kind].effect
        for fold in (False, True):
            gen = _FunctionCodeGen(module, 0, lower_module(module)[0], fold)
            gen.height = 3
            OPS[kind].emit(gen, imm)
            assert gen.height == 3 - pops + pushes, (kind, fold)


def test_generated_code_reads_only_names_its_namespace_binds():
    import builtins
    import dis
    import types

    from repro.wasm.compilers.llvm import PythonCodeGenerator, _exec_namespace, _FunctionCodeGen

    def global_names(code):
        names = {ins.argval for ins in dis.get_instructions(code)
                 if ins.opname == "LOAD_GLOBAL"}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                names |= global_names(const)
        return names

    # Every emitter that reads a namespace name, in a stack-valid body of
    # function 0 (type 0: no params, no results), compiled (never run) at
    # both optimisation levels: LLVM's inlined accesses read their own names.
    ops = [("const", 1), ("const", 2), ("bin", "i32.rotl"), ("const", 3),
           ("bin", "i32.shr_s"), ("drop", None),
           ("const", 1.0), ("un", "f32.neg"), ("const", 2.0), ("bin", "f32.add"),
           ("splat", ("f", 4, 4)), ("extract_lane", ("f", 4, 0, False)), ("drop", None),
           ("const", bytes(16)), ("const", bytes(16)), ("simd.bin", "i32x4.add"),
           ("simd.un", "i32x4.neg"), ("drop", None),
           ("const", 8), ("load.f64", 0), ("drop", None),
           ("const", 8), ("load.s32", (0, 2)), ("drop", None),
           ("const", 8), ("const", 1.5), ("store.f64", 0),
           ("const", 8), ("const", 7), ("store.i", (0, 4)),
           ("const", 0), ("call_indirect", (0, 0, 0)), ("unreachable", None)]
    mb = ModuleBuilder(name="namespace")
    mb.add_memory(1)
    mb.function("f", params=[], results=[])
    names = set()
    for fold in (False, True):
        source = _FunctionCodeGen(mb.build(), 0, LoweredFunction(ops, 0, ()), fold).generate()
        names |= global_names(compile(source, "<generated>", "exec"))
    assert {"_BIN", "_UN", "_S32", "_F32", "_V128L", "_SIMD_BIN", "_SIMD_UN",
            "IndirectCallTrap", "UnreachableTrap", "MemoryOutOfBoundsTrap",
            "_LD_d", "_LD_h", "_ST_d", "_ST_I"} <= names
    bound = set(_exec_namespace()) | set(dir(builtins))
    assert names <= bound
    module = _v128_mix_module()
    code = compile(PythonCodeGenerator(module).generate(), "<generated>", "exec")
    assert global_names(code) - {PythonCodeGenerator.function_symbol(0)} <= bound


def test_the_prologue_binds_what_the_body_reads():
    from repro.benchmarks_suite.registry import get_program
    from repro.wasm.compilers.llvm import PythonCodeGenerator

    # hpcg's ddot reads memory through inlined accesses, and no global or call.
    module = compile_guest(get_program("hpcg")).module
    source = PythonCodeGenerator(module).generate()
    ddot = source[source.index("def __wasm_func_4("):].split("\n\n\n")[0]
    assert "    M = instance.memory\n    B = M._buffer\n" in ddot
    assert "G = " not in ddot and "call = " not in ddot
    # A memory-less module whose constant spells every prologue token runs:
    # a name bound for a constant's text is unused, never unbound.
    mb = ModuleBuilder(name="prologue")
    f = mb.function("k", params=[], results=["i32"], export=True)
    f.emit("v128.const", b"(B, M.G[call(_br").emit("i32x4.extract_lane", 0)
    module = mb.build()
    for name in ("singlepass", "cranelift", "llvm"):
        executor = get_backend(name).compile(module).make_executor()
        assert Instance(module, ImportObject(), executor=executor).invoke("k") == [539771432]


def test_cranelift_generates_each_function_once_on_first_call():
    from repro.wasm.compilers.llvm import FirstCallTable

    module = _sum_module()
    compiled = get_backend("cranelift").compile(module)
    instance = Instance(module, ImportObject(), executor=compiled.make_executor())
    table = module._cranelift_runtime
    assert isinstance(table, FirstCallTable)
    stub = table[0]
    assert instance.invoke("sum_to", 10) == [45]
    generated = table[0]
    assert generated is not stub                 # replaced by its generated code
    # Every executor in the process (one per rank) shares the generated code.
    other = Instance(module, ImportObject(), executor=compiled.make_executor())
    assert other.invoke("sum_to", 4) == [6]
    assert module._cranelift_runtime is table and table[0] is generated
