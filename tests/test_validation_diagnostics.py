"""ValidationError diagnostics: function index, instruction offset, opcode."""

from __future__ import annotations

import pytest

from repro.wasm import ModuleBuilder, validate_module
from repro.wasm.errors import ValidationError


def test_validation_error_carries_structured_location():
    mb = ModuleBuilder(name="diag")
    f = mb.function("oops", params=[], results=["i32"])
    f.emit("i32.add")  # stack underflow at instruction 0
    module = mb.build()
    with pytest.raises(ValidationError) as excinfo:
        validate_module(module)
    err = excinfo.value
    assert "function 0 (oops)" in str(err)
    assert "at instruction 0 (i32.add)" in str(err)
    assert err.func_index == 0
    assert err.func_name == "oops"
    assert err.instr_offset == 0
    assert err.opcode == "i32.add"


def test_offset_points_at_the_failing_instruction():
    mb = ModuleBuilder(name="diag2")
    f = mb.function("later", params=[("a", "i32")], results=["i32"])
    f.get("a")
    f.emit("i64.add")  # type mismatch at instruction 1
    module = mb.build()
    with pytest.raises(ValidationError) as excinfo:
        validate_module(module)
    err = excinfo.value
    assert err.instr_offset == 1
    assert err.opcode == "i64.add"
    assert err.func_name == "later"


def test_an_if_with_a_result_and_no_else_is_rejected():
    # (func (param i32) (result i32) local.get 0 if (result i32) i32.const 1 end)
    mb = ModuleBuilder(name="diag3")
    f = mb.function("h", params=[("a", "i32")], results=["i32"])
    f.get("a")
    with f.if_("i32"):
        f.i32_const(1)
    module = mb.build()
    with pytest.raises(ValidationError, match="if with a result has no else") as excinfo:
        validate_module(module)
    assert excinfo.value.instr_offset == 3
    assert excinfo.value.opcode == "end"


def test_attributes_default_to_none():
    err = ValidationError("plain message")
    assert err.func_index is None
    assert err.func_name is None
    assert err.instr_offset is None
    assert err.opcode is None
