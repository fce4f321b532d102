"""Linear memory that never moves and is never eagerly zeroed.

* a Hypothesis state machine interleaves ``grow``, zero-copy exports taken
  before a grow, writes through those old exports, checkpoint
  capture/restore and growth past the reservation against a plain
  ``bytearray`` model;
* a footprint guard: creating 32 toolchain-sized memories touches no page,
  and growing one leaves its base address where it was;
* a refused reservation falls back to the minimum, and growth past it is -1.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.fault.checkpoint import capture_instance_state, restore_instance_state  # noqa: E402
from repro.wasm import memory as memory_mod  # noqa: E402
from repro.wasm.memory import DEFAULT_RESERVED_PAGES, PAGE_SIZE, LinearMemory  # noqa: E402
from repro.wasm.types import Limits, MemoryType  # noqa: E402

#: The memory the toolchain gives every guest (``GuestProgram`` defaults).
TOOLCHAIN_MEMORY = MemoryType(Limits(64, 4096))


def _base_address(memory: LinearMemory) -> int:
    return np.frombuffer(memory.view(0, 1), dtype=np.uint8).__array_interface__["data"][0]


class GrowWithLiveExports(RuleBasedStateMachine):
    """``model`` holds what the guest's memory must read; ``exports`` the
    views/arrays handed out so far, each with the guest address it covers."""

    @initialize(maximum=st.sampled_from([1, 3, 6, None]))
    def create(self, maximum):
        self.memory = LinearMemory(MemoryType(Limits(1, maximum)))
        self.reserved = DEFAULT_RESERVED_PAGES if maximum is None else maximum
        self.model = bytearray(PAGE_SIZE)
        self.exports = []

    def _span(self, data):
        address = data.draw(st.integers(0, len(self.model) - 1), label="address")
        nbytes = data.draw(st.integers(1, min(64, len(self.model) - address)), label="nbytes")
        return address, nbytes

    @rule(data=st.data(), as_array=st.booleans())
    def export(self, data, as_array):
        address, nbytes = self._span(data)
        handle = (self.memory.ndarray(address, nbytes, np.uint8) if as_array
                  else self.memory.view(address, nbytes))
        self.exports.append((address, handle))

    @precondition(lambda self: self.exports)
    @rule(data=st.data())
    def write_through_old_export(self, data):
        index = data.draw(st.integers(0, len(self.exports) - 1), label="export")
        address, handle = self.exports[index]
        payload = data.draw(st.binary(min_size=len(handle), max_size=len(handle)), label="payload")
        handle[:] = np.frombuffer(payload, dtype=np.uint8) if isinstance(handle, np.ndarray) else payload
        self.model[address:address + len(payload)] = payload

    @rule(data=st.data())
    def write(self, data):
        address, nbytes = self._span(data)
        payload = data.draw(st.binary(min_size=nbytes, max_size=nbytes), label="payload")
        self.memory.write(address, payload)
        self.model[address:address + nbytes] = payload

    @rule(delta=st.integers(0, 2))
    def grow(self, delta):
        pages = len(self.model) // PAGE_SIZE
        expected = pages if pages + delta <= self.reserved else -1
        assert self.memory.grow(delta) == expected
        if expected >= 0:
            self.model.extend(bytes(delta * PAGE_SIZE))

    @rule(beyond=st.integers(1, 3))
    def grow_past_the_reservation(self, beyond):
        pages = self.memory.pages
        assert self.memory.grow(self.reserved - pages + beyond) == -1
        assert self.memory.pages == pages

    @rule()
    def checkpoint_round_trip(self):
        live = SimpleNamespace(memory=self.memory, globals=[], tables=[])
        state = capture_instance_state(live)
        assert state["memory_pages"] == self.memory.pages
        fresh = SimpleNamespace(memory=LinearMemory(self.memory.type), globals=[], tables=[])
        restore_instance_state(fresh, state)
        assert fresh.memory.read(0, fresh.memory.size) == bytes(self.model)
        # Write-back into the live memory itself: old exports still see it.
        restore_instance_state(live, state)

    @invariant()
    def memory_and_every_export_read_the_model(self):
        if not hasattr(self, "memory"):
            return
        assert self.memory.size == len(self.model)
        assert self.memory.read(0, self.memory.size) == bytes(self.model)
        for address, handle in self.exports:
            assert bytes(handle) == bytes(self.model[address:address + len(handle)])


TestGrowWithLiveExports = GrowWithLiveExports.TestCase
TestGrowWithLiveExports.settings = settings(
    max_examples=30, stateful_step_count=25, derandomize=True, deadline=None
)


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_memories_cost_no_resident_pages_until_touched_and_never_move():
    before = _resident_bytes()
    memories = [LinearMemory(TOOLCHAIN_MEMORY) for _ in range(32)]
    grown = _resident_bytes() - before
    # 32 x 4 MiB would be 128 MiB if creation zeroed the pages itself.
    assert grown < 8 * 2**20, f"creating 32 memories made {grown / 2**20:.1f} MiB resident"
    memory = memories[0]
    base = _base_address(memory)
    live = memory.ndarray(0, 16, np.uint8)
    assert memory.grow(64) == 64
    assert _base_address(memory) == base
    live[:] = 7
    assert memory.read(0, 16) == bytes([7] * 16)


def test_refused_reservation_falls_back_to_the_minimum(monkeypatch):
    real = memory_mod._reserve

    def strict_overcommit(pages):
        if pages > 2:
            raise OSError(12, "Cannot allocate memory")
        return real(pages)

    monkeypatch.setattr(memory_mod, "_reserve", strict_overcommit)
    memory = LinearMemory(MemoryType(Limits(2, 4096)))
    assert memory.pages == 2
    assert memory.grow(1) == -1 and memory.pages == 2
    assert memory.grow(0) == 2
