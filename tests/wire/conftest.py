"""The hub as a codec check: every message it carries is framed first.

In-process delivery hands the sender's own objects to the receiver, so a
wire type the codec cannot carry - or carries inexactly - would only
show on the socket fabric.  ``wire_hub`` closes that gap for tests: it
wraps :meth:`AsyncHub.send` so each message goes through a per-sender
encoder and decoder (the tables one connection would hold) and the
decoded copy is what travels on.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any

import pytest

from repro._collections import frozendict
from repro.chaos.faults import DuplicateCopy
from repro.links import MessageBatch
from repro.runtime.transport import AsyncHub
from repro.wire import HEADER, FrameDecoder, FrameEncoder


def same(a: Any, b: Any) -> bool:
    """Equality that also sees what ``==`` skips: an AppMsg's history
    tags, a DuplicateCopy's message, and every value's exact type."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, frozenset):
        return same(tuple(sorted(a)), tuple(sorted(b)))
    if isinstance(a, frozendict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, MessageBatch):
        return same(a.copies, b.copies)
    if isinstance(a, DuplicateCopy):
        return same(a.message, b.message)
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
        )
    return a == b


@pytest.fixture
def wire_hub(monkeypatch):
    """Route every ``AsyncHub`` message through encode -> decode; returns
    the count of messages carried, by type name."""
    send = AsyncHub.send
    connections = {}
    carried: Counter = Counter()

    def framed_send(hub, src, targets, message):
        if src not in connections:
            connections[src] = (FrameEncoder(src), FrameDecoder())
        encoder, decoder = connections[src]
        pid, decoded = decoder.decode(encoder.frame(message)[HEADER.size:])
        assert pid == src and same(decoded, message), (decoded, message)
        carried[type(message).__name__] += 1
        send(hub, src, targets, decoded)

    monkeypatch.setattr(AsyncHub, "send", framed_send)
    return carried
