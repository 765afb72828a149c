"""Unit tests for the GcsTrace event record and its view-relative queries."""

from repro.checking.events import (
    DeliverEvent,
    GcsTrace,
    RecoverEvent,
    SendEvent,
    ViewEvent,
)
from repro.types import initial_view, make_view

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
    assert len(trace.at("b")) == 1
    assert trace.processes() == {"a", "b"}


def test_views_at():
    trace = sample_trace()
    assert [e.view for e in trace.views_at("a")] == [V1, V2]
    assert trace.views_at("b") == []


def test_per_view_segments_assigns_events_to_views():
    trace = sample_trace()
    segments = trace.per_view_segments("a")
    by_view = {view: events for view, events in segments}
    assert any(isinstance(e, SendEvent) and e.payload == "early"
               for e in by_view[initial_view("a")])
    assert any(isinstance(e, SendEvent) and e.payload == "m1" for e in by_view[V1])
    assert any(isinstance(e, SendEvent) and e.payload == "m2" for e in by_view[V2])


def test_sends_and_deliveries_in_view():
    trace = sample_trace()
    assert trace.sends_in_view("a", V1) == ["m1"]
    assert trace.deliveries_in_view("a", V1) == [("a", "m1")]
    assert trace.deliveries_in_view("a", V1, sender="b") == []


def test_transition_of():
    trace = sample_trace()
    assert trace.transition_of("a", V1) == initial_view("a")
    assert trace.transition_of("a", V2) == V1
    assert trace.transition_of("b", V2) is None


def test_recovery_resets_segments_and_transitions():
    trace = sample_trace()
    trace.append(RecoverEvent(6.0, "a"))
    trace.append(SendEvent(7.0, "a", "fresh"))
    v3 = make_view(3, ["a"], {"a": 3})
    trace.append(ViewEvent(8.0, "a", v3, frozenset({"a"})))
    # the post-recovery send belongs to a fresh initial-view segment
    segments = trace.per_view_segments("a")
    last_initial = [events for view, events in segments if view == initial_view("a")][-1]
    assert any(getattr(e, "payload", None) == "fresh" for e in last_initial)
    # and the transition into v3 is from the initial view, not V2
    assert trace.transition_of("a", v3) == initial_view("a")


def test_merged_orders_by_time():
    t1, t2 = GcsTrace(), GcsTrace()
    t1.append(SendEvent(2.0, "a", "late"))
    t2.append(SendEvent(1.0, "b", "early"))
    merged = t1.merged(t2)
    assert [e.payload for e in merged] == ["early", "late"]
