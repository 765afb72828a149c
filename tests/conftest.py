"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.checking.events import (
    DeliverEvent,
    GcsTrace,
    SendEvent,
    ViewEvent,
)
from repro.harness import ModelHarness
from repro.types import View, make_view


@pytest.fixture
def abc_harness() -> ModelHarness:
    """A strict three-process model with scripted clients."""
    return ModelHarness(
        "abc",
        seed=7,
        scripts={p: [f"{p}{i}" for i in range(3)] for p in "abc"},
    )


def run_clean_view_change(harness: ModelHarness, members: str = "abc", max_steps: int = 30_000):
    """Form a view over ``members`` and run fairly to quiescence."""
    view = harness.form_view(members)
    scheduler = harness.scheduler("fair")
    scheduler.run(max_steps=max_steps)
    return view, scheduler


def each_message(handle):
    """A fabric or tier handler - one run of ``(src, messages)`` groups
    per hand-over - that gives ``handle(src, message)`` every message of
    its run, in order."""

    def on_run(run):
        for src, messages in run:
            for message in messages:
                handle(src, message)

    return on_run


def trace_of(*events) -> GcsTrace:
    """Build a GcsTrace from (kind, proc, ...) shorthand tuples.

    Shorthands: ("send", p, payload), ("dlv", p, sender, payload),
    ("view", p, view, transitional-iterable).
    """
    trace = GcsTrace()
    for time, event in enumerate(events):
        kind = event[0]
        if kind == "send":
            _, p, payload = event
            trace.append(SendEvent(float(time), p, payload))
        elif kind == "dlv":
            _, p, sender, payload = event
            trace.append(DeliverEvent(float(time), p, sender, payload))
        elif kind == "view":
            _, p, view, transitional = event
            trace.append(ViewEvent(float(time), p, view, frozenset(transitional)))
        else:
            raise ValueError(f"unknown shorthand {kind!r}")
    return trace


@pytest.fixture
def view_ab() -> View:
    return make_view(1, ["a", "b"], {"a": 1, "b": 1})


@pytest.fixture
def view_abc() -> View:
    return make_view(2, ["a", "b", "c"], {"a": 2, "b": 2, "c": 2})
