"""Unit tests for the GcsTrace event record and its queries."""

from repro.checking.events import (
    DeliverEvent,
    GcsTrace,
    SendEvent,
    ViewEvent,
)
from repro.types import make_view

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})


def sample_trace():
    trace = GcsTrace()
    trace.append(SendEvent(0.0, "a", "early"))
    trace.append(ViewEvent(1.0, "a", V1, frozenset({"a"})))
    trace.append(SendEvent(2.0, "a", "m1"))
    trace.append(DeliverEvent(3.0, "a", "a", "m1"))
    trace.append(DeliverEvent(3.0, "b", "a", "m1"))
    trace.append(ViewEvent(4.0, "a", V2, frozenset({"a", "b"})))
    trace.append(SendEvent(5.0, "a", "m2"))
    return trace


def test_of_type_and_at():
    trace = sample_trace()
    assert len(trace.of_type(SendEvent)) == 3
    assert trace.processes() == {"a", "b"}


def test_views_at():
    trace = sample_trace()
    assert [e.view for e in trace.views_at("a")] == [V1, V2]
    assert trace.views_at("b") == []


def test_merged_orders_by_time():
    t1, t2 = GcsTrace(), GcsTrace()
    t1.append(SendEvent(2.0, "a", "late"))
    t2.append(SendEvent(1.0, "b", "early"))
    merged = t1.merged(t2)
    assert [e.payload for e in merged] == ["early", "late"]
