"""The codec contract of ``repro.wire``: exact round trips, small frames,
bounded tables, and failures that leave a connection usable."""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.wire.conftest import same
from tests.wire.strategies import frames_of, messages, values, views
from repro import wire
from repro._collections import frozendict
from repro.chaos.faults import DuplicateCopy
from repro.core.messages import AppMsg, SyncMsg, ViewMsg
from repro.errors import FrameError
from repro.links import MessageBatch
from repro.membership.protocol import GroupEnvelope
from repro.runtime.tcp import encode_batch, encode_frame, read_frame
from repro.types import ViewId, make_view
from repro.wire import HEADER, INTERN_CAP, MAX_DEPTH, FrameDecoder, FrameEncoder

CODEC_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

PEERS = [f"p{i}" for i in range(8)]


def framed(message) -> bytes:
    """``message`` as one self-contained frame."""
    return FrameEncoder("x").frame(message)


def decode(decoder: FrameDecoder, frame: bytes):
    assert HEADER.unpack(frame[: HEADER.size])[0] == len(frame) - HEADER.size
    return decoder.decode(frame[HEADER.size:])


def holds_marker(message) -> bool:
    """Whether ``message`` holds a DuplicateCopy, which compares by identity."""
    if isinstance(message, MessageBatch):
        return any(map(holds_marker, message.copies))
    if isinstance(message, GroupEnvelope):
        return holds_marker(message.message)
    return isinstance(message, DuplicateCopy)


def assert_exact(decoded, message) -> None:
    """decode(encode(m)) == m, and field by field - history tags included."""
    assert same(decoded, message)
    if not holds_marker(message):
        assert decoded == message


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


@CODEC_SETTINGS
@given(st.lists(frames_of, min_size=1, max_size=6))
def test_stream_roundtrip_is_field_exact(stream):
    """One connection: decode(encode(m)) == m, field by field, in order."""
    encoder, decoder = FrameEncoder("a"), FrameDecoder()
    for message in stream:
        src, decoded = decode(decoder, encoder.frame(message))
        assert src == "a"
        assert_exact(decoded, message)


@CODEC_SETTINGS
@given(frames_of)
def test_self_contained_frame_roundtrip(message):
    src, decoded = decode(FrameDecoder(), encode_frame("a", message))
    assert src == "a"
    assert_exact(decoded, message)


@CODEC_SETTINGS
@given(messages)
def test_every_record_roundtrips(message):
    assert_exact(decode(FrameDecoder(), framed(message))[1], message)


@CODEC_SETTINGS
@given(views(), st.integers(), st.integers())
def test_appmsg_history_tags_roundtrip(view, payload, index):
    """AppMsg equality ignores Hv / Hi; the wire must not."""
    message = AppMsg(payload, history_view=view, history_index=index)
    decoded = decode(FrameDecoder(), framed(message))[1]
    assert decoded.history_view == view
    assert decoded.history_index == index
    assert type(decoded.history_index) is int


def test_a_bool_stays_a_bool_and_a_tuple_a_tuple():
    encoder, decoder = FrameEncoder("a"), FrameDecoder()
    for value in (True, False, (1, (True, "x")), (), 0, 1):
        decoded = decode(decoder, encoder.frame(value))[1]
        assert decoded == value and type(decoded) is type(value)
    assert decode(decoder, encoder.frame((1, True)))[1][1] is True


def test_a_view_decodes_once_per_connection():
    view = make_view(3, PEERS, {pid: 3 for pid in PEERS})
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    first = decode(decoder, encoder.frame(ViewMsg(view)))[1]
    second = decode(decoder, encoder.frame(AppMsg(7, view, 1)))[1]
    assert second.history_view is first.view  # the table's one object


def test_frozensets_travel_sorted():
    """Bytes follow the value, not the interpreter's hash order."""
    names = ["n%d" % i for i in range(20)]
    assert framed(frozenset(names)) == framed(frozenset(reversed(names)))


# ----------------------------------------------------------------------
# the steady-state frame
# ----------------------------------------------------------------------


def test_steady_state_appmsg_frame_is_at_most_24_bytes():
    view = make_view(3, PEERS, {pid: 3 for pid in PEERS})
    encoder = FrameEncoder("p0")
    first = encoder.frame(AppMsg(1, view, 1))
    steady = encoder.frame(AppMsg(2, view, 2))
    assert len(steady) <= 24
    assert len(first) > len(steady)  # hello and view definition ride once
    decoder = FrameDecoder()
    decode(decoder, first)
    decoded = decode(decoder, steady)[1]
    assert (decoded.payload, decoded.history_view, decoded.history_index) == (2, view, 2)


def test_appmsg_ints_past_32_bits_roundtrip():
    view = make_view(3, PEERS)
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    for message in (AppMsg(1, view, 1), AppMsg(1 << 40, view, 2), AppMsg(3, view, 1 << 40)):
        assert_exact(decode(decoder, encoder.frame(message))[1], message)


# ----------------------------------------------------------------------
# bounded tables
# ----------------------------------------------------------------------


def test_two_hundred_reconfigurations_keep_both_tables_bounded():
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    previous = make_view(0, PEERS[:4])
    peak = 0
    for counter in range(1, 201):
        members = PEERS[: 4 + counter % 5]
        view = make_view(counter, members, {pid: counter for pid in members})
        cut = frozendict({pid: counter for pid in members})
        for message in (
            SyncMsg(counter, previous, cut),
            ViewMsg(view),
            AppMsg(counter, view, 1),
            MessageBatch((AppMsg(counter, view, 2), AppMsg(counter, view, 3))),
        ):
            assert_exact(decode(decoder, encoder.frame(message))[1], message)
            peak = max(peak, len(encoder.views), len(decoder.views))
        previous = view
    assert peak <= INTERN_CAP


def test_an_equal_view_in_another_object_is_defined_again():
    """The table is keyed by object: correct either way, one definition more."""
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    first, second = make_view(3, PEERS), make_view(3, PEERS)
    for view in (first, second, first):
        assert_exact(decode(decoder, encoder.frame(ViewMsg(view)))[1], ViewMsg(view))
    assert len(encoder.views) == len(decoder.views) == 2


# ----------------------------------------------------------------------
# failures leave the connection usable
# ----------------------------------------------------------------------


def test_a_value_outside_the_schema_is_a_type_error_naming_it():
    with pytest.raises(TypeError, match="list"):
        framed(AppMsg(["not", "wire"]))
    with pytest.raises(TypeError, match="dict"):
        framed({"a": 1})
    with pytest.raises(TypeError, match="set"):
        framed((1, {2}))
    with pytest.raises(TypeError, match="object"):
        framed(object())


def test_unrepresentable_values_are_value_errors():
    with pytest.raises(ValueError):
        framed("\ud800")  # a lone surrogate has no utf-8
    with pytest.raises(ValueError):
        framed(ViewId(1 << 70))
    with pytest.raises(ValueError):
        framed(make_view(1, ["a\0b"]))


# ----------------------------------------------------------------------
# the payload check at the sender
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values)
def test_check_payload_passes_every_wire_value(value):
    wire.check_payload(value)


@pytest.mark.parametrize(
    "payload, error",
    [
        (["not", "wire"], TypeError),
        ({"a": 1}, TypeError),
        ((1, {2}), TypeError),
        (frozendict({"k": [1]}), TypeError),
        (frozenset({1, "a"}), TypeError),
        (AppMsg(1), TypeError),
        (object(), TypeError),
        (("ok", "\ud800"), ValueError),
    ],
    ids=["list", "dict", "nested-set", "frozendict-value", "unsortable", "record", "object", "surrogate"],
)
def test_check_payload_refuses_what_the_encoder_refuses(payload, error):
    with pytest.raises(error):
        wire.check_payload(payload)
    if not isinstance(payload, AppMsg):  # a record frames, but is no payload
        with pytest.raises(error):
            framed(payload)


def test_check_payload_refuses_deep_nesting_as_a_value_error():
    payload = ()
    for _ in range(10_000):
        payload = (payload,)
    with pytest.raises(ValueError, match="deep"):
        wire.check_payload(payload)


def test_check_payload_refuses_a_record_nested_in_a_payload():
    """The payload check runs the value encoders alone, inside containers
    too: a record frames as a message, never as part of a payload."""
    with pytest.raises(TypeError, match="AppMsg"):
        wire.check_payload((1, frozendict({"k": AppMsg(1)})))


def test_nesting_is_a_rule_of_the_format():
    """``MAX_DEPTH`` nested containers frame and decode; one more is
    refused by the payload check, the encoder and the decoder alike."""
    # Every container counts: a frozenset of a frozendict of a tuple is
    # three levels, wrapped in tuples up to the rule.
    deepest = frozenset({frozendict({1: ()})})
    for _ in range(MAX_DEPTH - 3):
        deepest = (deepest,)
    wire.check_payload(deepest)
    assert decode(FrameDecoder(), framed(AppMsg(deepest)))[1].payload == deepest
    too_deep = (deepest,)
    with pytest.raises(ValueError, match="deep"):
        wire.check_payload(too_deep)
    with pytest.raises(ValueError, match="deep"):
        framed(too_deep)
    # The same bytes a permissive encoder would write, one level deeper.
    frame = bytearray(framed(deepest))
    at = frame.index(wire.T_TUPLE, HEADER.size)
    frame[at:at] = struct.pack(">BI", wire.T_TUPLE, 1)
    with pytest.raises(FrameError) as refused:
        FrameDecoder().decode(bytes(frame[HEADER.size:]))
    assert refused.value.reason == "depth"


@pytest.mark.parametrize(
    "bad", [AppMsg([1]), MessageBatch((ViewMsg(make_view(5, ["q"])), [2]))], ids=["type", "late"]
)
def test_a_failed_frame_leaves_both_tables_in_step(bad):
    """A frame that never reached the wire defined nothing: the next
    frame, which reuses the table, still decodes."""
    view = make_view(3, PEERS)
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    decode(decoder, encoder.frame(AppMsg(1, view, 1)))
    with pytest.raises(TypeError):
        encoder.frame(bad)
    later = make_view(6, ["q"])
    for message in (ViewMsg(later), AppMsg(2, later, 1), AppMsg(3, view, 2)):
        assert_exact(decode(decoder, encoder.frame(message))[1], message)
    assert len(encoder.views) == len(decoder.views) == 2


def test_an_oversized_frame_is_refused_and_rolled_back(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME", 200)
    encoder, decoder = FrameEncoder("p0"), FrameDecoder()
    for counter in range(INTERN_CAP):  # a full table: the next frame resets it
        decode(decoder, encoder.frame(ViewMsg(make_view(counter, ["z"]))))
    with pytest.raises(FrameError) as error:
        encoder.frame(("x" * 300, make_view(1, ["a"])))
    assert error.value.reason == "oversized"
    assert len(encoder.views) == INTERN_CAP  # neither the reset nor the definition happened
    view = make_view(2, ["a"])
    assert_exact(decode(decoder, encoder.frame(ViewMsg(view)))[1], ViewMsg(view))
    assert len(encoder.views) == len(decoder.views) == 1


# ----------------------------------------------------------------------
# the runtime's three entry points
# ----------------------------------------------------------------------


def test_stateless_frames_read_back_through_read_frame():
    view = make_view(3, PEERS)
    frames = [encode_frame("p0", AppMsg(i, view, i)) for i in range(3)]
    frames.append(encode_batch("p1", [AppMsg(7, view, 4), ViewMsg(view)]))

    async def read_all():
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(frames))
        return [await read_frame(reader) for _ in frames]

    read = asyncio.run(read_all())
    assert [src for src, _ in read] == ["p0", "p0", "p0", "p1"]
    assert read[2][1] == AppMsg(2, view, 2)
    assert read[3][1] == MessageBatch((AppMsg(7, view, 4), ViewMsg(view)))


def test_read_frame_refuses_an_oversized_header_before_reading_the_body():
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(HEADER.pack(wire.MAX_FRAME + 1))
        return await read_frame(reader)

    with pytest.raises(FrameError) as error:
        asyncio.run(read())
    assert error.value.reason == "oversized"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(values)
def test_values_roundtrip_as_bare_payloads(value):
    assert_exact(decode(FrameDecoder(), framed(value))[1], value)
