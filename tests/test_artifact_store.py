"""The AoT artifact store: accounting through a session vs. bare disk
handles, and corrupt or half-written records on disk."""

from __future__ import annotations

import os
import pickle
import random
import threading

import pytest

from repro.api import Session
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import compile_guest
from repro.wasm import ImportObject, Instance, ModuleBuilder, encode_module, validate_module
from repro.wasm.compilers import CompiledModule, FileSystemCache, get_backend
from repro.wasm.compilers.cache import DIGEST_SIZE, module_hash
from repro.wasm.decoder import decode_module

#: One fixed sequence of compiles: (session, back-end, tier a session serves
#: it from).  Session 0 compiles each back-end cold and then hits its memory
#: in front of the disk; session 1 starts cold in memory over the same
#: directory, so its first lookup per back-end is a disk hit.
SEQUENCE = (
    (0, "cranelift", None),
    (0, "cranelift", "memory"),
    (0, "llvm", None),
    (0, "llvm", "memory"),
    (0, "cranelift", "memory"),
    (1, "cranelift", "fs"),
    (1, "cranelift", "memory"),
    (1, "llvm", "fs"),
    (1, "llvm", "memory"),
)


def _app(name="store-accounting"):
    return compile_guest(GuestProgram(name=name, main=lambda api, args: 0))


def _expected_summary(tiers):
    return {
        "hits": sum(1 for t in tiers if t is not None),
        "misses": sum(1 for t in tiers if t is None),
        "hits_memory": tiers.count("memory"),
        "hits_fs": tiers.count("fs"),
    }


def test_session_and_bare_disk_handles_log_the_same_events(tmp_path):
    app = _app()
    session_dir, bare_dir = tmp_path / "session", tmp_path / "bare"

    summaries = []
    for index in (0, 1):
        with Session(cache_dir=str(session_dir)) as session:
            for step, backend, _tier in SEQUENCE:
                if step == index:
                    session.compile(app, backend=backend)
            summaries.append(session.metrics.cache_summary())

    for index, backend, expected in SEQUENCE:
        key = module_hash(app.wasm_bytes, backend)
        compiled, hit = FileSystemCache(bare_dir).load_or_compute(
            key, app.module, lambda: get_backend(backend).compile(app.module))
        # A bare handle has no memory tier: every session hit is a disk hit.
        assert bool(hit) == (expected is not None), (index, backend)
        assert compiled.backend_name == backend

    session_disk, bare_disk = FileSystemCache(session_dir), FileSystemCache(bare_dir)
    assert session_disk.global_stats() == bare_disk.global_stats() == {
        "hits": 7, "misses": 2, "compiles": 2}
    assert session_disk.compiled_keys() == bare_disk.compiled_keys() == [
        module_hash(app.wasm_bytes, "cranelift"), module_hash(app.wasm_bytes, "llvm")]
    for index, summary in enumerate(summaries):
        tiers = [tier for i, _backend, tier in SEQUENCE if i == index]
        expected = _expected_summary(tiers)
        assert {name: summary[name] for name in expected} == expected, index


# ------------------------------------------------------------ corrupt records


def _sum_bytes():
    mb = ModuleBuilder(name="store-corruption")
    mb.add_memory(1)
    f = mb.function("sum_to", params=[("n", "i32")], results=["i32"], export=True)
    f.add_local("i", "i32")
    f.add_local("acc", "i32")
    with f.for_range("i", end_local="n"):
        f.get("acc").get("i").emit("i32.add").set("acc")
    f.get("acc")
    module = mb.build()
    validate_module(module)
    return encode_module(module)


def _corruptions(raw, seed):
    """64 single-bit flips and 16 truncations of ``raw``, seeded; the digest,
    the first body byte and the last byte are always among the flips."""
    rng = random.Random(seed)
    nbits = 8 * len(raw)
    bits = [0, 8 * DIGEST_SIZE, nbits - 1] + rng.sample(range(1, nbits - 1), 61)
    for bit in bits:
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"flip bit {bit}", bytes(flipped)
    lengths = [0, DIGEST_SIZE - 1, DIGEST_SIZE, len(raw) - 1]
    lengths += rng.sample(range(1, len(raw) - 1), 12)
    for length in lengths:
        yield f"truncate to {length}", raw[:length]


def _assert_repaired(cache, key, wasm_bytes, backend, label):
    module = decode_module(wasm_bytes)
    calls = []

    def compute():
        calls.append(label)
        return get_backend(backend).compile(module)

    _compiled, tier = cache.load_or_compute(key, module, compute)
    assert tier is None and len(calls) == 1, label
    # The republished record serves the next lookup, and it runs.
    module = decode_module(wasm_bytes)
    compiled, tier = cache.load_or_compute(key, module, lambda: pytest.fail(label))
    assert tier == "fs", label
    instance = Instance(module, ImportObject(), executor=compiled.make_executor())
    assert instance.invoke("sum_to", 10) == [45], label


@pytest.mark.parametrize("backend", ["singlepass", "cranelift", "llvm"])
def test_corrupt_record_is_a_miss_that_republishes(tmp_path, backend):
    wasm_bytes = _sum_bytes()
    key = module_hash(wasm_bytes, backend)
    cache = FileSystemCache(tmp_path)
    module = decode_module(wasm_bytes)
    cache.load_or_compute(key, module, lambda: get_backend(backend).compile(module))
    path = tmp_path / f"{key}.mpiwasm"
    pristine = path.read_bytes()
    for label, corrupt in _corruptions(pristine, seed=len(backend)):
        path.write_bytes(corrupt)
        _assert_repaired(cache, key, wasm_bytes, backend, label)
    assert cache.global_stats() == {"hits": 80, "misses": 81, "compiles": 81}


def test_record_in_an_older_format_or_malformed_is_a_miss(tmp_path):
    wasm_bytes = _sum_bytes()
    key = module_hash(wasm_bytes, "cranelift")
    cache = FileSystemCache(tmp_path)
    compiled = get_backend("cranelift").compile(decode_module(wasm_bytes))
    # A bare pickle of the record's fields, without the leading digest.
    (tmp_path / f"{key}.mpiwasm").write_bytes(pickle.dumps({
        "backend": "cranelift", "ir_version": compiled.ir_version, "compile_seconds": 0.0,
        "function_count": compiled.function_count, "artifact": compiled.artifact}))
    _assert_repaired(cache, key, wasm_bytes, "cranelift", "digestless record")
    # An intact digest over fields of the wrong shape.
    cache.store(key, CompiledModule(backend_name="cranelift", module=None, compile_seconds=0.0,
                                    artifact=compiled.artifact, function_count="1"))
    _assert_repaired(cache, key, wasm_bytes, "cranelift", "malformed record")


def test_failed_store_removes_its_temp_file(tmp_path, monkeypatch):
    cache = FileSystemCache(tmp_path)
    key = "d" * 64
    unpicklable = CompiledModule(backend_name="cranelift", module=None, compile_seconds=0.0,
                                 artifact=threading.Lock())
    with pytest.raises(TypeError):
        cache.store(key, unpicklable)
    assert not list(tmp_path.glob("*.tmp"))

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cache.store(key, CompiledModule(backend_name="cranelift", module=None,
                                        compile_seconds=0.0, artifact={}))
    assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob("*.mpiwasm"))
