"""Counted call budget of a guest's MPI call (deterministic, untimed).

A guest's ``MPI_Send`` + ``MPI_Recv`` pair crosses the embedder's import
path twice: ``GuestAPI`` calls the callable the instance bound for the
import, which runs the ``env.MPI_*`` host function over the rank's ``Env``.
The budget counts every Python (``call``) and C (``c_call``) call the pair
makes on every thread -- the import path, the MPI runtime and the engine's
rank handoff -- as the difference between two runs that differ only in
their number of iterations, so start-up and teardown cancel out.  Each run
gets a fresh session: a session's metrics merge costs more calls the more
jobs it has run.

Measured with CPython 3.11 (calls per pair, Python + C):

* before imports were bound at instantiation: wasm 157 + 92, native 123 + 38;
* now: wasm 151 + 82, native 119 + 34.

Each ceiling is the present count plus :data:`MARGIN`.  A change that adds
a wrapper call to every import call (+2 per pair), or writes a receive's
status twice (+3), exceeds it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.api import Session
from repro.sim.metrics import MetricsRegistry
from repro.toolchain import mpi_header as abi
from repro.toolchain.guest import GuestProgram

#: Loop lengths of the two runs whose difference is counted.
SHORT, LONG = 20, 220

#: Calls one pair may add to the present count before the budget fails.
MARGIN = 1

#: (Python, C) calls per pair, by mode: the present counts.
PRESENT = {"wasm": (151, 82), "native": (119, 34)}


def counted_calls(fn):
    """``(python_calls, c_calls)`` made on all threads while ``fn()`` runs."""
    counts = {"call": 0, "c_call": 0}
    lock = threading.Lock()

    def profile(_frame, event, _arg):
        if event in counts:
            with lock:
                counts[event] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts["call"], counts["c_call"]


def _pingpong(iterations: int) -> GuestProgram:
    """Two ranks; each iteration is one send + recv pair on each rank."""

    def main(api, args):
        api.mpi_init()
        rank = api.rank()
        ptr, _ = api.alloc_array(8, abi.MPI_BYTE, fill=1)
        api.barrier()
        for _ in range(iterations):
            if rank == 0:
                api.send(ptr, 8, abi.MPI_BYTE, 1, 0)
                api.recv(ptr, 8, abi.MPI_BYTE, 1, 0)
            else:
                api.recv(ptr, 8, abi.MPI_BYTE, 0, 0)
                api.send(ptr, 8, abi.MPI_BYTE, 0, 0)
        api.mpi_finalize()
        return 0

    return GuestProgram(name=f"budget-pingpong-{iterations}", main=main)


def _calls_per_pair(mode: str):
    """Calls per send + recv pair, rounded: a rank thread that happens to
    wait on a lock a moment longer in one run adds a few calls per run,
    far less than one per pair."""
    programs = {n: _pingpong(n) for n in (SHORT, LONG)}

    def run(n):
        Session(backend="cranelift", metrics=MetricsRegistry()).run(programs[n], 2, mode=mode)

    run(SHORT)   # Cranelift generates the allocator's code on its first call
    short, long = counted_calls(lambda: run(SHORT)), counted_calls(lambda: run(LONG))
    pairs = 2 * (LONG - SHORT)
    return tuple(round((b - a) / pairs) for a, b in zip(short, long))


@pytest.mark.parametrize("mode", sorted(PRESENT))
def test_a_send_recv_pair_stays_within_its_counted_call_budget(mode):
    first, second = _calls_per_pair(mode), _calls_per_pair(mode)
    assert first == second
    python_calls, c_calls = first
    present_python, present_c = PRESENT[mode]
    assert python_calls <= present_python + MARGIN, first
    assert c_calls <= present_c + MARGIN, first
