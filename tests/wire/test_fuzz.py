"""Hostile bytes: the decoder raises FrameError and nothing else.

Valid frames - self-contained ones and the frames of one connection's
stream - are mutated byte by byte, truncated and spliced into each
other; whatever comes out, decoding either yields a message or raises
:class:`~repro.errors.FrameError`.  The named cases below pin the
reason each malformation is counted under.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.wire.strategies import frames_of
from repro import wire
from repro.core.messages import AppMsg, ViewMsg
from repro.errors import FrameError
from repro.types import make_view
from repro.wire import HEADER, INTERN_CAP, FrameDecoder, FrameEncoder, body_length

FUZZ_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def decode_hostile(decoder: FrameDecoder, frame: bytes) -> None:
    """Read ``frame`` as a socket would: header, then exactly that body."""
    try:
        length = body_length(frame[: HEADER.size])
        decoder.decode(frame[HEADER.size:HEADER.size + length])
    except FrameError as error:
        assert error.reason in (
            "truncated", "oversized", "version", "hello", "tag",
            "intern", "utf8", "trailing", "value", "depth",
        )


@st.composite
def mutated(draw, frame: bytes) -> bytes:
    data = bytearray(frame)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[at] = draw(st.integers(0, 255))
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=6))
        elif data:
            del data[at]
    return bytes(data)


@FUZZ_SETTINGS
@given(frames_of.flatmap(lambda m: mutated(FrameEncoder("a").frame(m))))
def test_mutated_self_contained_frames_raise_only_frame_errors(frame):
    decode_hostile(FrameDecoder(), frame)


@FUZZ_SETTINGS
@given(st.lists(frames_of, min_size=2, max_size=4), st.data())
def test_mutated_stream_frames_raise_only_frame_errors(stream, data):
    """A mutated frame deep in a connection's stream, against live tables."""
    encoder, decoder = FrameEncoder("a"), FrameDecoder()
    frames = [encoder.frame(message) for message in stream]
    for frame in frames[:-1]:
        decoder.decode(frame[HEADER.size:])
    decode_hostile(decoder, data.draw(mutated(frames[-1])))


@FUZZ_SETTINGS
@given(frames_of, frames_of, st.data())
def test_spliced_frames_raise_only_frame_errors(first, second, data):
    one, two = FrameEncoder("a").frame(first), FrameEncoder("b").frame(second)
    cut = data.draw(st.integers(0, len(one)))
    rest = data.draw(st.integers(0, len(two)))
    spliced = one[:cut] + two[rest:]
    # Keep the header honest half the time, so the body itself is parsed.
    if data.draw(st.booleans()) and len(spliced) >= HEADER.size:
        spliced = HEADER.pack(len(spliced) - HEADER.size) + spliced[HEADER.size:]
    decode_hostile(FrameDecoder(), spliced)


@FUZZ_SETTINGS
@given(st.binary(max_size=64))
def test_random_bodies_raise_only_frame_errors(body):
    decode_hostile(FrameDecoder(), HEADER.pack(len(body)) + body)


# ----------------------------------------------------------------------
# each malformation, by reason
# ----------------------------------------------------------------------

VIEW = make_view(3, ["p0", "p1"])


def reason_of(decoder: FrameDecoder, body: bytes) -> str:
    with pytest.raises(FrameError) as error:
        decoder.decode(body)
    return error.value.reason


def body(message, encoder=None) -> bytes:
    return (encoder or FrameEncoder("a")).frame(message)[HEADER.size:]


def test_truncated_body():
    full = body(AppMsg("payload", VIEW, 1))
    for end in range(len(full)):
        assert reason_of(FrameDecoder(), full[:end]) == "truncated"


def test_oversized_header():
    with pytest.raises(FrameError) as error:
        body_length(HEADER.pack(wire.MAX_FRAME + 1))
    assert error.value.reason == "oversized"
    with pytest.raises(FrameError) as error:
        body_length(b"\x00\x01")
    assert error.value.reason == "truncated"


def test_wrong_version():
    hello = bytearray(body(1))
    hello[1] = wire.VERSION + 1
    assert reason_of(FrameDecoder(), bytes(hello)) == "version"


def test_no_hello_and_a_second_hello():
    encoder = FrameEncoder("a")
    first, second = body(1, encoder), body(2, encoder)
    assert reason_of(FrameDecoder(), second) == "hello"
    decoder = FrameDecoder()
    decoder.decode(first)
    assert reason_of(decoder, first) == "hello"


def test_unknown_tag():
    assert reason_of(FrameDecoder(), body(None)[:-1] + b"\xfe") == "tag"


def test_unknown_intern_id():
    encoder = FrameEncoder("a")
    body(ViewMsg(VIEW), encoder)  # defined on the encoder's side only
    decoder = FrameDecoder()
    decoder.pid = "a"
    assert reason_of(decoder, body(ViewMsg(VIEW), encoder)) == "intern"


def test_bad_utf8():
    good = body("ok")
    assert reason_of(FrameDecoder(), good[:-2] + b"\xff\xfe") == "utf8"


def test_trailing_bytes():
    assert reason_of(FrameDecoder(), body(7) + b"\x00") == "trailing"


def test_a_field_of_the_wrong_type():
    # ViewMsg whose view field holds an int.
    encoder = FrameEncoder("a")
    frame = bytearray(body(ViewMsg(VIEW), encoder))
    start = frame.index(wire.T_VIEWMSG)
    bad = bytes(frame[:start + 1]) + struct.pack(">Bi", wire.T_I32, 5)
    assert reason_of(FrameDecoder(), bad) == "value"


def test_nesting_past_the_recursion_limit():
    depth = 5000
    nested = struct.pack(">BI", wire.T_TUPLE, 1) * depth + bytes([wire.T_NONE])
    hello = body(None)[:-1]
    assert reason_of(FrameDecoder(), hello + nested) == "depth"


def test_a_full_table_must_be_reset():
    decoder = FrameDecoder()
    decoder.pid = "a"
    decoder.views = [VIEW] * INTERN_CAP
    assert reason_of(decoder, bytes([wire.T_NONE])) == "intern"
    decoder.decode(bytes([wire.T_RESET, wire.T_NONE]))
    assert decoder.views == []
