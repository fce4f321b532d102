"""One conformance test for every collective, across every layer.

A collective is one row of ``registry.CONTRACTS`` plus its registered
builders; everything else -- the runtime's ``MPI_<C>``/``MPI_I<c>`` entry
points, the guest ABI rows, the embedder imports, the guest API (one class
for both execution modes) -- is derived from that row and must exist, agree
and stay within it.  Each provider is run through the same minimal
contract here instead of being spot-checked per layer.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.guest_api import GuestAPI
from repro.core.mpi_imports import build_mpi_imports
from repro.mpi.algorithms import registry
from repro.mpi.algorithms.decision import DEFAULT_RULES
from repro.mpi.runtime import MPIRuntime
from repro.toolchain import mpi_header as abi

CATALOG = registry.catalog()


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_the_catalog_is_the_contract_table():
    assert tuple(CATALOG) == registry.COLLECTIVES == tuple(registry.CONTRACTS)
    assert all(CATALOG.values()), "a contract row without a registered builder"
    with pytest.raises(ValueError, match="no call contract"):
        registry.register("nosuch", "linear")


@pytest.mark.parametrize("collective", CATALOG)
def test_runtime_has_both_entry_points_with_one_signature(collective):
    blocking, nonblocking = getattr(MPIRuntime, collective), getattr(MPIRuntime, "i" + collective)
    assert _parameters(blocking) == _parameters(nonblocking)
    assert _parameters(blocking)[0] == "self" and _parameters(blocking)[-1] == "comm"
    assert ("root" in _parameters(blocking)) == registry.CONTRACTS[collective].rooted


@pytest.mark.parametrize("collective", CATALOG)
def test_abi_has_both_functions(collective):
    blocking, nonblocking = registry.CONTRACTS[collective].mpi_names
    params, results = abi.MPI_SIGNATURES[blocking]
    # MPI_I<c> is MPI_<C> plus the request slot.
    assert abi.MPI_SIGNATURES[nonblocking] == (params + ["i32"], results)


def test_every_abi_row_is_declared_in_the_header_and_implemented_by_the_embedder():
    header = abi.header_source()
    assert all(f" {name}(" in header for name in abi.MPI_SIGNATURES)
    assert set(build_mpi_imports()) >= set(abi.MPI_SIGNATURES)


@pytest.mark.parametrize("collective", CATALOG)
def test_guest_and_native_api_expose_the_same_methods(collective):
    """Both modes run the benchmark code against the one ``GuestAPI``, whose
    ``MPI_<C>`` and ``MPI_I<c>`` take the same arguments under the same
    names, one per parameter of the import either mode calls."""
    blocking = _parameters(getattr(GuestAPI, collective))
    assert _parameters(getattr(GuestAPI, "i" + collective)) == blocking
    # One guest argument per parameter of the import.
    params, _results = abi.MPI_SIGNATURES[registry.CONTRACTS[collective].mpi_names[0]]
    assert len(blocking) - 1 == len(params)


def _referenced(schedule) -> set:
    names = set()
    for step in schedule.flat():
        names.update(getattr(step, attr) for attr in ("buf", "src", "dst") if hasattr(step, attr))
    return names - {None}


@pytest.mark.parametrize("collective,algorithm",
                         [(c, a) for c, algorithms in CATALOG.items() for a in algorithms])
def test_builders_stay_within_their_contract_row(collective, algorithm):
    """Called through the contract, a builder references only the buffers its
    row declares for that rank, plus the temporaries it declares itself."""
    row = registry.CONTRACTS[collective]
    builder = registry.get(collective, algorithm)
    for size in (2, 5):
        for root in (0, size - 1):
            for rank in range(size):
                schedule = row.build(builder, rank, size, 6, 8, root, 3)
                source, _, result, _ = row.buffers(row.rooted and rank == root, 48, size)
                declared = {buf.key for buf in (source, result) if buf is not None}
                assert _referenced(schedule) <= declared | set(schedule.temps), (size, root, rank)


def test_every_table_default_is_a_registered_builder():
    for collective in CATALOG:
        for rule in DEFAULT_RULES[collective]:
            assert registry.is_registered(collective, rule.algorithm), (
                f"decision table can pick {collective}/{rule.algorithm}, "
                "which has no schedule builder"
            )
