"""The byte-window decode memo (``decode_cached``) against plain decode.

The memo is sound because no encoding is longer than
``MAX_INSTR_BYTES``: the window at an offset decodes exactly like the
buffer does there, truncation included.  Only the fast engine reads it;
the naive engine must leave it untouched so that it stays the uncached
oracle the differential tests compare against.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.isa import (MAX_INSTR_BYTES, Instruction, Mnemonic, Reg, decode,
                       decode_cached, decoder, encode)
from repro.pipeline import CPU, ZEN2

from ..pipeline.conftest import USER_STACK, Harness
from ..pipeline.test_phantom_episodes import (build_training, build_victim,
                                              run_victim)
from .test_roundtrip_property import instructions

#: Byte strings mixing valid encodings with random bytes, so both the
#: instruction and the exception sides of the memo are exercised.
fragments = st.one_of(instructions.map(encode),
                      st.binary(min_size=1, max_size=4))
buffers = st.lists(fragments, max_size=6).map(b"".join)

MOV = encode(Instruction(Mnemonic.MOV_RI, dest=Reg.R9, imm=0x1234))


@pytest.fixture(autouse=True)
def empty_memo():
    decoder._MEMO.clear()
    yield
    decoder._MEMO.clear()


def _outcome(fn, buf, offset):
    try:
        return fn(buf, offset)
    except DecodeError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, derandomize=True)
@given(instructions)
def test_no_encoding_is_longer_than_the_window(instr):
    assert len(encode(instr)) <= MAX_INSTR_BYTES


@settings(max_examples=400, derandomize=True)
@given(buffers, st.integers(min_value=0, max_value=24), st.booleans(),
       st.booleans())
def test_memo_matches_plain_decode(buf, offset, mutable, warm):
    """Equal instruction, or the same exception type and message, on
    cold and warm lookups, for bytes and bytearray, at any offset
    (including past the end of a short buffer)."""
    source = bytearray(buf) if mutable else buf
    expected = _outcome(decode, buf, offset)
    if warm:
        _outcome(decode_cached, source, offset)
    assert _outcome(decode_cached, source, offset) == expected
    assert _outcome(decode_cached, source, offset) == expected


def test_repeat_lookup_returns_the_cached_object():
    buf = b"\x90" + MOV
    first = decode_cached(buf, 1)
    assert decode_cached(bytearray(buf), 1) is first
    assert decode_cached(MOV) is first


def test_cached_failure_raises_a_fresh_exception():
    with pytest.raises(DecodeError) as first:
        decode_cached(b"\x06")
    with pytest.raises(DecodeError) as second:
        decode_cached(b"\x06")
    assert first.value is not second.value
    assert str(first.value) == str(second.value)


def test_filling_past_the_cap_clears_and_still_decodes(monkeypatch):
    monkeypatch.setattr(decoder, "MEMO_CAP", 4)
    bufs = [bytes([0x48, 0xB8, n]) + bytes(7) for n in range(10)]
    for n, buf in enumerate(bufs):
        assert decode_cached(buf) == decode(buf)
        assert len(decoder._MEMO) == n % 4 + 1
    assert decode_cached(bufs[0]) == decode(bufs[0])


def _phantom_victim(fastpath):
    """Train a jmp*, then run an aliasing nop sled: the decoder detects
    a phantom episode and decodes the trained target transiently."""
    harness = Harness(uarch=ZEN2)
    harness.cpu = CPU(ZEN2, harness.mem, fastpath=fastpath)
    harness.cpu.record_episodes = True
    harness.cpu.state.write(Reg.RSP, USER_STACK)
    build_training(harness)
    build_victim(harness)
    run_victim(harness)
    assert harness.cpu.pmc.read("phantom_decode") > 0
    return harness.cpu


def test_naive_engine_leaves_the_memo_untouched():
    decoder._MEMO[b"\x90"] = decode(b"\x90")
    before = dict(decoder._MEMO)
    _phantom_victim(fastpath=False)
    assert decoder._MEMO == before
    # Positive control: the same run on the fast engine fills it.
    _phantom_victim(fastpath=True)
    assert len(decoder._MEMO) > len(before)
