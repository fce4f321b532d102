"""CI gate: the second identical compile must be a cache hit, per back-end.

Part of the benchmark suite's smoke mode: compiles the HPCG guest module
twice against a fresh on-disk cache and fails if the second compile produces
a miss (or performs any compilation work) for any back-end.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.core import EmbedderConfig, MPIWasm
from repro.toolchain.wasicc import compile_guest
from repro.wasm.compilers import FileSystemCache

BACKENDS = ("singlepass", "cranelift", "llvm")


@pytest.mark.parametrize("backend", BACKENDS)
def test_second_identical_compile_hits_cache(tmp_path, backend):
    app = compile_guest(make_hpcg_program(dims=(8, 4, 4), iterations=1))
    embedder = MPIWasm(EmbedderConfig(compiler_backend=backend), FileSystemCache(tmp_path))

    first = embedder.compile_module(app.wasm_bytes, app.module)
    assert not embedder.last_cache_hit, f"{backend}: first compile must miss"

    second = embedder.compile_module(app.wasm_bytes, app.module)
    assert embedder.last_cache_hit, f"{backend}: second identical compile missed the cache"
    assert second.compile_seconds == 0.0, f"{backend}: cache hit still did compile work"
    assert embedder.cache.stats() == {"hits": 1, "misses": 1}

    report(
        f"AoT cache smoke ({backend})",
        [f"first compile: {first.compile_seconds * 1e3:.3f} ms, second: cache hit (0 ms)"],
    )
