"""Tests for the toolchain: guest ABI, wasicc, allocator, linker size model."""

from __future__ import annotations

import pytest

from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram
from repro.toolchain.libraries import KIB, MIB
from repro.toolchain.linker import (
    ApplicationProfile,
    LinkerModel,
    PAPER_APPLICATIONS,
    table2_rows,
)
from repro.toolchain.wasicc import HEAP_BASE, compile_guest
from repro.wasm import ImportObject, Instance, decode_module, validate_module
from repro.wasm.module import ExternKind


# -------------------------------------------------------------------- mpi.h ABI


def test_guest_abi_has_all_paper_functions():
    for name in ("MPI_Init", "MPI_Finalize", "MPI_Send", "MPI_Recv", "MPI_Allreduce",
                 "MPI_Alloc_mem", "MPI_Free_mem", "MPI_Comm_split", "MPI_Wtime"):
        assert name in abi.MPI_SIGNATURES
    params, results = abi.MPI_SIGNATURES["MPI_Send"]
    assert len(params) == 6 and results == ["i32"]       # Listing 2/3 signature
    assert abi.MPI_SIGNATURES["MPI_Wtime"] == ([], ["f64"])


def test_datatype_handles_are_integers_and_sized():
    assert abi.datatype_size(abi.MPI_DOUBLE) == 8
    assert abi.datatype_size(abi.MPI_INT) == 4
    assert abi.datatype_size(abi.MPI_BYTE) == 1
    with pytest.raises(KeyError):
        abi.datatype_size(9999)


def test_header_source_renders_custom_mpi_h():
    src = abi.header_source()
    assert "typedef int MPI_Comm;" in src
    assert "typedef int MPI_Datatype;" in src
    assert "int MPI_Send(" in src
    assert f"#define MPI_COMM_WORLD {abi.MPI_COMM_WORLD}" in src


# ---------------------------------------------------------------------- wasicc


@pytest.fixture(scope="module")
def compiled_stub():
    program = GuestProgram(name="stub", main=lambda api, args: 0, memory_pages=4)
    return compile_guest(program)


def test_compile_guest_produces_valid_binary(compiled_stub):
    assert compiled_stub.wasm_bytes[:4] == b"\x00asm"
    module = decode_module(compiled_stub.wasm_bytes)
    validate_module(module)
    exports = {e.name for e in module.exports}
    assert {"malloc", "free", "_start", "memory"} <= exports


def test_compiled_module_imports_full_mpi_abi(compiled_stub):
    imported = {imp.name for imp in compiled_stub.module.imports if imp.kind == ExternKind.FUNC}
    assert set(abi.MPI_SIGNATURES) <= imported
    assert "fd_write" in imported and "proc_exit" in imported


def test_wasm_malloc_is_a_working_bump_allocator(compiled_stub):
    inst = Instance(compiled_stub.module, _stub_imports(compiled_stub.module))
    [p1] = inst.invoke("malloc", 100)
    [p2] = inst.invoke("malloc", 100)
    assert p1 >= HEAP_BASE
    assert p2 >= p1 + 100
    assert p1 % 8 == 0 and p2 % 8 == 0       # 8-byte alignment
    inst.invoke("free", p1)                    # free is a no-op but must not trap
    [top] = inst.invoke("__heap_top")
    assert top >= p2 + 100


def test_wasm_malloc_grows_memory_when_needed(compiled_stub):
    inst = Instance(compiled_stub.module, _stub_imports(compiled_stub.module))
    before = inst.exported_memory().pages
    [ptr] = inst.invoke("malloc", 5 * 65536)
    assert inst.exported_memory().pages > before
    # The new allocation is usable end to end.
    inst.exported_memory().store_int(ptr + 5 * 65536 - 4, 77, 4)


def _stub_imports(module):
    """Import object with do-nothing implementations for every import."""
    from repro.wasm import FuncType

    imports = ImportObject()
    for imp in module.imports:
        if imp.kind != ExternKind.FUNC:
            continue
        ft = module.types[imp.desc]
        n_results = len(ft.results)
        imports.register(
            imp.module, imp.name, ft,
            lambda inst, *args, _n=n_results: 0 if _n == 1 else (0,) * _n,
        )
    return imports


def test_simd_flag_propagates_to_compiled_application():
    program = GuestProgram(name="p", main=lambda api, args: 0)
    assert compile_guest(program, simd=False).simd is False
    assert compile_guest(program.with_simd(False)).simd is False
    assert compile_guest(program).simd is True


# ------------------------------------------------------------------ linker model


def test_table2_rows_match_paper_shape():
    rows = {r.application: r for r in table2_rows()}
    assert set(rows) == {"IMB", "HPCG", "IOR", "IS", "DT"}
    # Statically linked binaries are tens of MiB; Wasm binaries are KiB-scale.
    for r in rows.values():
        assert r.static > 10 * MIB
        assert r.wasm < 2 * MIB
        assert r.static_to_wasm_ratio > 20
    # The paper's qualitative finding: three of the five applications have a
    # larger Wasm binary than dynamically linked native binary (HPCG, IS, DT).
    larger = {r.application for r in rows.values() if r.wasm_larger_than_dynamic}
    assert larger == {"HPCG", "IS", "DT"}


def test_average_static_to_wasm_ratio_near_paper_value():
    model = LinkerModel()
    ratio = model.average_static_to_wasm_ratio(table2_rows())
    assert 110 <= ratio <= 175     # paper: 139.5x


def test_table2_absolute_sizes_close_to_paper():
    rows = {r.application: r.row() for r in table2_rows()}
    paper = {
        "IMB": (1087, 27, 893),
        "HPCG": (164, 26, 722),
        "IOR": (364, 16, 315.32),
        "IS": (36, 15, 57.88),
        "DT": (40, 15, 49.51),
    }
    for app, (dyn_kib, static_mib, wasm_kib) in paper.items():
        row = rows[app]
        assert row["native_dynamic_kib"] == pytest.approx(dyn_kib, rel=0.15)
        assert row["native_static_mib"] == pytest.approx(static_mib, rel=0.15)
        assert row["wasm_kib"] == pytest.approx(wasm_kib, rel=0.15)


def test_cpp_applications_link_larger_static_binaries():
    model = LinkerModel()
    c_app = ApplicationProfile(name="c", object_code_size=100 * KIB, is_cpp=False)
    cpp_app = ApplicationProfile(name="cpp", object_code_size=100 * KIB, is_cpp=True)
    assert model.static_size(cpp_app) > model.static_size(c_app)
    assert model.wasm_size(cpp_app) > model.wasm_size(c_app)


def test_unknown_library_raises():
    model = LinkerModel()
    app = ApplicationProfile(name="x", object_code_size=1 * KIB,
                             extra_static_libraries=("libunicorn",))
    with pytest.raises(KeyError):
        model.static_size(app)
