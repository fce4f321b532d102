"""Tests for the Wasm substrate: values, encoding, builder, validation, memory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.wasm import (
    FuncType,
    Limits,
    MemoryType,
    Module,
    ModuleBuilder,
    ValType,
    decode_module,
    encode_module,
    module_to_wat,
    validate_module,
)
from repro.wasm import values as V
from repro.wasm.builder import BuildError
from repro.wasm.decoder import DecodeError, _Reader
from repro.wasm.encoder import encode_s32, encode_s64, encode_u32
from repro.wasm.errors import (
    IntegerDivideByZeroTrap,
    IntegerOverflowTrap,
    MemoryOutOfBoundsTrap,
    ValidationError,
    WasmError,
)
from repro.wasm.instructions import make
from repro.wasm.memory import PAGE_SIZE, LinearMemory
from repro.wasm.opcodes import count as opcode_count, info


# ----------------------------------------------------------------------- values


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_signed32_roundtrip(x):
    assert V.signed32(V.wrap32(x)) == x


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_signed64_roundtrip(x):
    assert V.signed64(V.wrap64(x)) == x


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_div_rem_identity_u32(a, b):
    if b == 0:
        with pytest.raises(IntegerDivideByZeroTrap):
            V.div_u(a, b, 32)
    else:
        q = V.div_u(a, b, 32)
        r = V.rem_u(a, b, 32)
        assert q * b + r == a


def test_div_s_overflow_traps():
    with pytest.raises(IntegerOverflowTrap):
        V.div_s(0x80000000, 0xFFFFFFFF, 32)  # INT_MIN / -1


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_rotl_rotr_inverse(a, b):
    assert V.rotr(V.rotl(a, b, 32), b, 32) == a


def test_clz_ctz_popcnt():
    assert V.clz(1, 32) == 31
    assert V.clz(0, 32) == 32
    assert V.ctz(0b1000, 32) == 3
    assert V.ctz(0, 64) == 64
    assert V.popcnt(0xFF00FF00, 32) == 16


def test_trunc_traps_on_nan_and_overflow():
    with pytest.raises(IntegerOverflowTrap):
        V.trunc_to_int(float("nan"), 32, True)
    with pytest.raises(IntegerOverflowTrap):
        V.trunc_to_int(1e20, 32, True)
    assert V.trunc_to_int(-3.7, 32, True) == V.wrap32(-3)


def test_nearest_ties_to_even():
    assert V.nearest(2.5) == 2.0
    assert V.nearest(3.5) == 4.0
    assert V.nearest(-0.5) == -0.0


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=100, deadline=None)
def test_f32_reinterpret_roundtrip(x):
    assert V.reinterpret_i32_to_f32(V.reinterpret_f32_to_i32(x)) == pytest.approx(x, nan_ok=True) or x != x


def test_float_min_max_zero_signs():
    assert str(V.float_min(0.0, -0.0)) == "-0.0"
    assert str(V.float_max(-0.0, 0.0)) == "0.0"


# ----------------------------------------------------------------------- LEB128


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_uleb_roundtrip(x):
    assert _Reader(encode_u32(x)).u32() == x


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_sleb32_roundtrip(x):
    assert _Reader(encode_s32(x)).s32() == x


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_sleb64_roundtrip(x):
    assert _Reader(encode_s64(x)).s64() == x


# --------------------------------------------------------------------- opcodes


def test_opcode_table_sanity():
    assert opcode_count() > 180
    assert info("i32.add").opcode == 0x6A
    assert info(0x6A).name == "i32.add"
    assert info("f64x2.mul").is_simd
    with pytest.raises(KeyError):
        info("i128.add")


# ----------------------------------------------------------------------- memory


def test_linear_memory_bounds_checks():
    mem = LinearMemory(MemoryType(Limits(1, 2)))
    assert mem.size == PAGE_SIZE
    mem.store_int(0, 0xDEADBEEF, 4)
    assert mem.load_int(0, 4) == 0xDEADBEEF
    with pytest.raises(MemoryOutOfBoundsTrap):
        mem.read(PAGE_SIZE - 2, 4)
    with pytest.raises(MemoryOutOfBoundsTrap):
        mem.write(-1, b"x")


def test_linear_memory_grow_respects_maximum():
    mem = LinearMemory(MemoryType(Limits(1, 2)))
    assert mem.grow(1) == 1
    assert mem.pages == 2
    assert mem.grow(1) == -1  # beyond the maximum
    assert mem.grow(-1) == -1


def test_linear_memory_zero_copy_view():
    mem = LinearMemory(MemoryType(Limits(1)))
    view = mem.view(100, 8)
    view[:] = b"ABCDEFGH"
    assert mem.read(100, 8) == b"ABCDEFGH"
    arr = mem.ndarray(100, 2, "int32")
    arr[0] = 7
    assert mem.load_int(100, 4) == 7


def test_linear_memory_float_and_string_access():
    mem = LinearMemory(MemoryType(Limits(1)))
    mem.store_f64(8, 2.5)
    assert mem.load_f64(8) == 2.5
    mem.store_f32(16, 1.5)
    assert mem.load_f32(16) == 1.5
    n = mem.write_cstring(64, "hello")
    assert n == 6
    assert mem.read_cstring(64) == "hello"


# ---------------------------------------------------------------------- builder


def _simple_module() -> Module:
    mb = ModuleBuilder(name="unit")
    mb.add_memory(1)
    mb.add_global("g", "i32", 5)
    mb.add_data(64, b"hi")
    f = mb.function("addg", params=[("x", "i32")], results=["i32"], export=True)
    f.get("x").emit("global.get", "g").emit("i32.add")
    return mb.build()


def test_builder_produces_valid_module():
    module = _simple_module()
    validate_module(module)
    assert module.export_by_name("addg") is not None
    assert module.export_by_name("memory") is not None
    assert module.summary()["functions"] == 1


def test_builder_rejects_duplicate_names_and_unknown_refs():
    mb = ModuleBuilder()
    mb.function("f")
    with pytest.raises(BuildError):
        mb.function("f")
    g = mb.function("g")
    g.call("nonexistent")
    with pytest.raises(BuildError):
        mb.build()
    mb2 = ModuleBuilder()
    mb2.add_memory(1)
    with pytest.raises(BuildError):
        mb2.add_memory(1)


def test_builder_local_management():
    mb = ModuleBuilder()
    f = mb.function("f", params=[("a", "i32")])
    idx = f.add_local("tmp", "f64")
    assert idx == 1
    with pytest.raises(BuildError):
        f.add_local("tmp", "f64")
    with pytest.raises(BuildError):
        f.get("missing")


# ------------------------------------------------------------------- round trip


def test_encode_decode_roundtrip_preserves_structure():
    module = _simple_module()
    data = encode_module(module)
    assert data[:4] == b"\x00asm"
    decoded = decode_module(data)
    validate_module(decoded)
    assert decoded.summary()["functions"] == module.summary()["functions"]
    assert [e.name for e in decoded.exports] == [e.name for e in module.exports]
    assert decoded.functions[0].body[-1].name == module.functions[0].body[-1].name
    assert decoded.data[0].data == b"hi"
    # Round-tripping again is byte-stable.
    assert encode_module(decoded) == data


def test_decoder_rejects_garbage():
    with pytest.raises(DecodeError):
        decode_module(b"not a wasm module")
    with pytest.raises(DecodeError):
        decode_module(b"\x00asm\x02\x00\x00\x00")


@given(st.integers(min_value=-100, max_value=100), st.integers(min_value=0, max_value=7))
@settings(max_examples=50, deadline=None)
def test_instruction_roundtrip_through_binary(const_value, local_index):
    mb = ModuleBuilder()
    mb.add_memory(1)
    f = mb.function("f", params=[("a", "i32")] * (local_index + 1), results=["i32"], export=True)
    f.i32_const(const_value).get(local_index).emit("i32.add")
    module = mb.build()
    decoded = decode_module(encode_module(module))
    body = decoded.functions[0].body
    assert body[0].operands[0] == const_value
    assert body[1].operands[0] == local_index


# ------------------------------------------------------------------------- WAT


def test_wat_rendering_mentions_key_constructs():
    module = _simple_module()
    wat = module_to_wat(module)
    assert wat.startswith("(module")
    assert '(export "addg"' in wat
    assert "i32.add" in wat
    assert "(memory" in wat


# ------------------------------------------------------------------ validation


def test_validator_rejects_type_mismatch():
    mb = ModuleBuilder()
    f = mb.function("bad", results=["i32"])
    f.f64_const(1.0)  # f64 left on the stack where an i32 result is required
    with pytest.raises(ValidationError):
        validate_module(mb.build())


def test_validator_rejects_stack_underflow():
    mb = ModuleBuilder()
    f = mb.function("bad")
    f.emit("i32.add")
    with pytest.raises(ValidationError):
        validate_module(mb.build())


def test_validator_rejects_bad_local_and_branch_depth():
    mb = ModuleBuilder()
    f = mb.function("bad")
    f.emit("local.get", 3)
    with pytest.raises(ValidationError):
        validate_module(mb.build())

    mb2 = ModuleBuilder()
    g = mb2.function("bad2")
    g.emit("br", 4)
    with pytest.raises(ValidationError):
        validate_module(mb2.build())


def test_validator_rejects_memory_ops_without_memory():
    mb = ModuleBuilder()
    f = mb.function("bad", results=["i32"])
    f.i32_const(0).load("i32.load")
    with pytest.raises(ValidationError):
        validate_module(mb.build())


def test_validator_accepts_unreachable_code():
    mb = ModuleBuilder()
    f = mb.function("ok", results=["i32"])
    f.emit("unreachable")
    f.emit("i32.add")  # dead code after unreachable is allowed to be polymorphic
    validate_module(mb.build())


def test_validator_rejects_duplicate_exports():
    module = _simple_module()
    module.exports.append(module.exports[0])
    with pytest.raises(ValidationError):
        validate_module(module)


def test_functype_wat_and_valtype_helpers():
    ft = FuncType.of(["i32", "f64"], ["i32"])
    assert ft.wat() == "(param i32 f64) (result i32)"
    assert ValType.from_byte(0x7F) is ValType.I32
    with pytest.raises(ValueError):
        ValType.from_byte(0x00)


# ----------------------------------------- untrusted-bytes decode hardening

import random as _random  # noqa: E402

from repro.wasm.decoder import MAX_FUNCTION_LOCALS  # noqa: E402


def _fuzz_corpus_modules():
    """Small seeded builder modules covering every binary section kind."""
    modules = []
    for seed in (11, 29, 47):
        rng = _random.Random(seed)
        mb = ModuleBuilder(name=f"harden-{seed}")
        mb.add_memory(1)
        mb.add_data(0, bytes(rng.randrange(256) for _ in range(16)))
        g = mb.add_global("counter", "i32", rng.randrange(-100, 100), mutable=True)
        f = mb.function("work", params=[("a", "i32"), ("b", "i32")],
                        results=["i32"], export=True)
        f.add_local("t", "i32")
        for _ in range(rng.randrange(3, 7)):
            f.get(rng.choice(("a", "b")))
            f.i32_const(rng.randrange(-1000, 1000))
            f.emit(rng.choice(("i32.add", "i32.sub", "i32.mul", "i32.xor")))
            f.set("t")
        f.i32_const(rng.randrange(0, 64) * 4)
        f.get("t")
        f.store("i32.store")
        f.get("t")
        f.get_global(g) if hasattr(f, "get_global") else f.emit("drop")
        modules.append(mb.build())
    return modules


def test_decode_error_is_a_typed_wasm_error():
    assert issubclass(DecodeError, WasmError)
    assert issubclass(DecodeError, ValueError)  # backwards compatibility


@pytest.mark.parametrize("module", _fuzz_corpus_modules(),
                         ids=lambda m: m.name or "m")
def test_truncation_fuzz_raises_only_typed_errors(module):
    """Every truncation of a valid module either decodes (a prefix can be a
    complete smaller module) or raises a typed WasmError -- never a raw
    struct.error / IndexError / KeyError."""
    data = encode_module(module)
    decode_module(data)  # the full module must decode
    for cut in range(len(data)):
        truncated = data[:cut]
        try:
            decoded = decode_module(truncated)
        except WasmError:
            continue
        # A truncation that still decodes must also survive validation
        # without leaking low-level exceptions.
        try:
            validate_module(decoded)
        except WasmError:
            pass


@pytest.mark.parametrize("module", _fuzz_corpus_modules(),
                         ids=lambda m: m.name or "m")
def test_mutation_fuzz_raises_only_typed_errors(module):
    """Seeded random byte flips: garbage input must never escape the
    WasmError family from decode or validation."""
    data = bytearray(encode_module(module))
    rng = _random.Random(0xF00D ^ len(data))
    for _trial in range(300):
        mutated = bytearray(data)
        for _ in range(rng.randrange(1, 4)):
            mutated[rng.randrange(8, len(mutated))] = rng.randrange(256)
        try:
            decoded = decode_module(bytes(mutated))
            validate_module(decoded)
        except WasmError:
            continue


def test_decoder_rejects_oversized_section_and_locals():
    # Section declaring more bytes than the stream holds.
    with pytest.raises(DecodeError):
        decode_module(b"\x00asm\x01\x00\x00\x00" + b"\x01\x7f\x01")
    # Hostile locals count: one entry declaring ~2^32 i32 locals must be
    # rejected by the MAX_FUNCTION_LOCALS bound, not attempted as an
    # allocation.
    mb = ModuleBuilder()
    f = mb.function("f", results=["i32"])
    f.i32_const(1)
    data = bytearray(encode_module(mb.build()))
    # Locate the code section (id 10) and rewrite its single body to declare
    # a huge run of locals: body = [locals_vec_len=1, (n=0xFFFFFFFF, i32)].
    idx = data.index(b"\x0a", 8)
    huge = b"\x01" + b"\xff\xff\xff\xff\x0f" + b"\x7f"  # 1 entry, n=2^32-1, i32
    body = huge + b"\x41\x01\x0b"                        # i32.const 1; end
    code = b"\x01" + bytes([len(body)]) + body           # 1 function
    data[idx:] = b"\x0a" + bytes([len(code)]) + code
    with pytest.raises(DecodeError) as excinfo:
        decode_module(bytes(data))
    assert str(MAX_FUNCTION_LOCALS) in str(excinfo.value)


# ------------------------------------------------- per-opcode decode table

from unittest import mock as _mock  # noqa: E402

from repro.wasm import validation as _validation  # noqa: E402
from repro.wasm.decoder import _OPS  # noqa: E402
from repro.wasm.encoder import MAGIC, VERSION  # noqa: E402
from repro.wasm.instructions import BlockType, Instruction, MemArg  # noqa: E402
from repro.wasm.module import Function  # noqa: E402
from repro.wasm.opcodes import BY_OPCODE, Imm  # noqa: E402

#: One representative immediate per kind; several need a multi-byte LEB128.
_IMMEDIATE_SAMPLES = {
    Imm.NONE: (),
    Imm.BLOCKTYPE: (BlockType(ValType.I32),),
    Imm.LABEL: (3,),
    Imm.LABEL_TABLE: ((0, 2, 130), 1),
    Imm.FUNC: (200,),
    Imm.CALL_INDIRECT: (5, 0),
    Imm.LOCAL: (1,),
    Imm.GLOBAL: (128,),
    Imm.MEMARG: (MemArg(2, 4096),),
    Imm.MEMORY: (0,),
    Imm.MEMORY_PAIR: (0, 0),
    Imm.I32_CONST: (-(2**31),),
    Imm.I64_CONST: (2**63 - 1,),
    Imm.F32_CONST: (1.5,),
    Imm.F64_CONST: (-2.25,),
    Imm.V128_CONST: (bytes(range(16)),),
    Imm.LANE: (15,),
}


def _raw_module(*bodies: bytes) -> bytes:
    """Module bytes with one ``() -> ()`` function per code entry in ``bodies``
    (each a locals vector plus instructions, shorter than 128 bytes)."""
    def section(section_id: int, payload: bytes) -> bytes:
        return bytes([section_id, len(payload)]) + payload

    types = section(1, b"\x01\x60\x00\x00")
    funcs = section(3, bytes([len(bodies)]) + b"\x00" * len(bodies))
    code = section(10, bytes([len(bodies)]) + b"".join(bytes([len(b)]) + b for b in bodies))
    return MAGIC + VERSION + types + funcs + code


def test_decode_table_has_exactly_the_opcode_registry():
    assert set(_OPS) == set(BY_OPCODE)
    assert set(_IMMEDIATE_SAMPLES) == set(Imm)


@pytest.mark.parametrize("opcode", sorted(BY_OPCODE), ids=lambda op: BY_OPCODE[op].name)
def test_every_opcode_roundtrips_through_binary(opcode):
    info_ = BY_OPCODE[opcode]
    instr = Instruction(info_, _IMMEDIATE_SAMPLES[info_.imm])
    if info_.name in ("block", "loop", "if"):
        body = [instr, make("end")]
    elif info_.name == "else":
        body = [make("if"), instr, make("end")]
    elif info_.name == "end":
        body = [make("block"), instr]
    else:
        body = [instr]
    module = Module(types=[FuncType((), ())], functions=[Function(0, [], body)])
    assert decode_module(encode_module(module)) == module


@pytest.mark.parametrize("code, message", [
    (b"\xff", "unknown opcode 0xff"),
    (b"\xfd\xff\x01", "unknown opcode 0xfdff"),
    (b"\xfc\x00", "unknown opcode 0xfc00"),
    # A sub-opcode past 0xFF must not alias into the next prefix's range
    # (0xFC00 | 0x100 would read as v128.load).
    (b"\xfc\x80\x02", "unknown opcode 0xfc 0x100"),
])
def test_unknown_opcode_message_is_exact(code, message):
    with pytest.raises(DecodeError) as excinfo:
        decode_module(_raw_module(b"\x00" + code + b"\x0b"))
    assert str(excinfo.value) == message


def _eof_at(offset):
    return f"unexpected end of stream at offset {offset} (wanted 1 bytes)"


@pytest.mark.parametrize("bodies, message", [
    # local.get whose single-byte u32 immediate is the body's last byte: the
    # body then ends without its ``end``.
    ((b"\x00\x20\x00",), _eof_at(25)),
    # local.get whose immediate would be one byte past the body (offset 25);
    # the byte there (the next body's size) exists but is not this body's.
    ((b"\x00\x20", b"\x00\x0b"), _eof_at(25)),
    # ... and one past the end of the whole stream.
    ((b"\x00\x20",), _eof_at(24)),
    # A 6-byte u32 LEB128 immediate, and a 6-byte s32 one.
    ((b"\x00\x20\x80\x80\x80\x80\x80\x00\x0b",), "u32 LEB128 too long"),
    ((b"\x00\x41\x80\x80\x80\x80\x80\x00\x0b",), "s32 LEB128 too long"),
    # A 0xFC prefix as the last byte of the stream.
    ((b"\x00\xfc",), _eof_at(24)),
    # br_table whose 2**32 - 1 target count runs past the body.
    ((b"\x00\x41\x00\x0e\xff\xff\xff\xff\x0f\x00\x00\x0b",), _eof_at(34)),
], ids=["imm-last-byte", "imm-past-body", "imm-past-stream", "u32-6-bytes",
        "s32-6-bytes", "prefix-at-eof", "br-table-count"])
def test_hostile_immediates_raise_decode_error(bodies, message):
    data = _raw_module(*bodies)
    with pytest.raises(DecodeError) as excinfo:
        decode_module(data)
    assert str(excinfo.value) == message


# ------------------------------------- validator accept table vs. slow path


class _OneByOneValidator(_validation.FunctionValidator):
    """Sends every instruction through ``_validate_instruction``: the
    validator before its inline accept path, kept as the oracle."""

    def validate(self, body):
        self._push_frame("func", [], list(self.func_type.results))
        for position, instr in enumerate(body):
            try:
                self._validate_instruction(instr)
            except ValidationError as exc:
                raise ValidationError(
                    f"at instruction {position} ({instr.name}): {exc}",
                    instr_offset=position,
                    opcode=instr.name,
                ) from None
        frame = self._pop_frame()
        self._push_many(frame.end_types)


def _verdict(module):
    try:
        validate_module(module)
    except WasmError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "instr_offset", None),
                getattr(exc, "opcode", None))
    return ("ok",)


def _reference_verdict(module):
    with _mock.patch.object(_validation, "FunctionValidator", _OneByOneValidator):
        return _verdict(module)


def _one_function(body, results=("i32",)):
    return Module(
        types=[FuncType.of(["i32", "i64"], list(results))],
        functions=[Function(0, [ValType.F64, ValType.I32], list(body), name="f")],
    )


_I = make
#: Well-typed, stack-neutral fragments (locals: 0 i32, 1 i64, 2 f64, 3 i32).
_SNIPPETS = [
    [_I("local.get", 0), _I("i32.const", 5), _I("i32.add"), _I("local.set", 3)],
    [_I("local.get", 1), _I("i64.const", 2), _I("i64.mul"), _I("local.tee", 1), _I("drop")],
    [_I("local.get", 2), _I("f64.const", 0.5), _I("f64.add"), _I("local.set", 2)],
    [_I("i32.const", 1), _I("if"), _I("local.get", 0), _I("local.set", 3), _I("else"),
     _I("local.get", 3), _I("local.set", 0), _I("end")],
    [_I("block", ValType.I32), _I("local.get", 0), _I("end"), _I("drop")],
    [_I("block"), _I("unreachable"), _I("i32.add"), _I("drop"), _I("end")],
    [_I("block"), _I("br", 0), _I("i64.add"), _I("i32.wrap_i64"), _I("drop"), _I("end")],
    [_I("local.get", 0), _I("i32.eqz"), _I("f64.convert_i32_s"), _I("local.set", 2)],
]

_token = st.one_of(
    st.sampled_from(_SNIPPETS),
    st.sampled_from(["i32.add", "i32.eqz", "i64.mul", "f64.add", "i32.wrap_i64",
                     "i64.extend_i32_s", "f64.convert_i32_s", "i32.lt_s", "nop",
                     "drop", "select", "unreachable", "else", "end", "return"]).map(lambda n: [_I(n)]),
    st.sampled_from([("i32.const", 7), ("i64.const", -3), ("f64.const", 1.5)]).map(lambda c: [_I(*c)]),
    st.tuples(st.sampled_from(["local.get", "local.set", "local.tee"]),
              st.integers(0, 4)).map(lambda t: [_I(*t)]),
    st.tuples(st.sampled_from(["block", "loop", "if"]),
              st.sampled_from([None, ValType.I32, ValType.F64])).map(lambda t: [_I(*t)]),
    st.integers(0, 3).map(lambda depth: [_I("br", depth)]),
    # A value left below a new frame, which no op inside it may consume.
    st.sampled_from([[_I("i32.const", 1), _I("block")], [_I("local.get", 2), _I("loop")]]),
)


#: Well-typed snippets around a few random tokens, so a body is sometimes
#: valid and otherwise fails at any depth, not only at its first instruction.
_body = st.tuples(
    st.lists(st.sampled_from(_SNIPPETS), max_size=5),
    st.lists(_token, max_size=4),
    st.lists(st.sampled_from(_SNIPPETS), max_size=3),
).map(lambda parts: [i for part in parts for snippet in part for i in snippet])

#: Function results, each with the instruction that pushes one.
_RESULTS = [((), []), (("i32",), [_I("local.get", 0)]), (("f64",), [_I("local.get", 2)])]


@given(_body, st.sampled_from(_RESULTS), st.booleans())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_inline_accept_path_matches_one_by_one_validation(body, results, push_result):
    types, push = results
    module = _one_function(body + (push if push_result else []), types)
    assert _verdict(module) == _reference_verdict(module)


@pytest.mark.parametrize("body", [
    [_I("unreachable"), _I("i32.add"), _I("i32.eqz")],
    [_I("i32.const", 0), _I("br", 0), _I("i32.add")],
    [_I("block"), _I("br", 0), _I("f64.add"), _I("drop"), _I("end"), _I("local.get", 0)],
], ids=["after-unreachable", "after-br", "after-br-in-block"])
def test_plain_ops_in_unreachable_code_are_stack_polymorphic(body):
    module = _one_function(body)
    assert _verdict(module) == ("ok",) == _reference_verdict(module)


@pytest.mark.parametrize("body, message", [
    ([_I("i32.const", 1), _I("block"), _I("i32.eqz"), _I("drop"), _I("end")],
     "at instruction 2 (i32.eqz): stack underflow (expected i32)"),
    ([_I("local.get", 0), _I("block"), _I("local.set", 3), _I("end")],
     "at instruction 2 (local.set): stack underflow (expected i32)"),
    ([_I("local.get", 0), _I("unreachable"), _I("block"), _I("local.tee", 0), _I("end")],
     "at instruction 3 (local.tee): stack underflow (expected i32)"),
], ids=["plain", "local.set", "local.tee"])
def test_ops_cannot_consume_values_below_their_frame(body, message):
    module = _one_function(body, ())
    verdict = _verdict(module)
    assert verdict == _reference_verdict(module)
    assert verdict[1] == f"function 0 (f): {message}"


_CONST_FOR = {
    ValType.I32: _I("i32.const", 0),
    ValType.I64: _I("i64.const", 0),
    ValType.F32: _I("f32.const", 0.0),
    ValType.F64: _I("f64.const", 0.0),
    ValType.V128: _I("v128.const", bytes(16)),
}


@pytest.mark.parametrize("opcode", sorted(op for op, row in _validation._ACCEPT.items()
                                          if row is not None and row[0] == _validation._PLAIN),
                         ids=lambda op: BY_OPCODE[op].name)
def test_every_inline_row_agrees_with_the_slow_path(opcode):
    """Each plain row accepts its operands and rejects one fewer exactly as
    ``_validate_instruction`` does, so the row and the if-chain cannot drift."""
    info_ = BY_OPCODE[opcode]
    instr = Instruction(info_, _IMMEDIATE_SAMPLES[info_.imm])
    operands = [_CONST_FOR[t] for t in info_.pops]
    drops = [_I("drop")] * len(info_.pushes)
    full = _one_function(operands + [instr] + drops, ())
    assert _verdict(full) == ("ok",) == _reference_verdict(full)
    if operands:
        short = _one_function(operands[1:] + [instr] + drops, ())
        assert _verdict(short) == _reference_verdict(short) != ("ok",)


def test_underflow_on_empty_stack_keeps_message_and_offset():
    module = _one_function([_I("i32.add")])
    expected = ("ValidationError",
                "function 0 (f): at instruction 0 (i32.add): stack underflow (expected i32)",
                0, "i32.add")
    assert _verdict(module) == expected == _reference_verdict(module)
