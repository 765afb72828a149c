"""Fabric harness: one cluster suite over the hub and over sockets.

Every cluster test states its scenario once, as a coroutine taking the
cluster constructor, and hands it to the ``on_fabrics`` fixture, which
runs it on each runtime fabric (cf. the ``driver_factory`` fixture of
``tests/links/conftest.py``).  The scenarios loop inside one test item -
not ``[hub]``/``[tcp]`` items - so the test ids the earlier, per-substrate
files established stay the ids of the same behaviours.
"""

from __future__ import annotations

import asyncio
import signal
from contextlib import contextmanager
from weakref import WeakKeyDictionary

import pytest

from repro.runtime import AsyncDeployment, TcpDeployment

FABRICS = {"hub": AsyncDeployment, "tcp": TcpDeployment}


@pytest.fixture
def on_fabrics():
    """``on_fabrics(scenario)`` runs ``scenario(make_cluster)`` per fabric."""

    def run(scenario) -> None:
        for name in sorted(FABRICS):
            print(f"[fabric: {name}]")  # names the fabric in a failure's captured output
            asyncio.run(scenario(FABRICS[name]))

    return run


# Per node, how far of its ``delivered`` and ``views`` lists the tests
# have read.
_read = WeakKeyDictionary()


def drain_events(node):
    """What ``node`` delivered and installed since the last drain, as
    ``(deliveries, views)``: lists of ``(sender, payload)`` and of
    ``(view, transitional set)``, each in order."""
    delivered, viewed = _read.get(node, (0, 0))
    _read[node] = (len(node.delivered), len(node.views))
    return node.delivered[delivered:], node.views[viewed:]


def payloads(node):
    """The payloads delivered to ``node`` since the last drain, in order."""
    return [payload for _sender, payload in drain_events(node)[0]]


@contextmanager
def fail_after(seconds: float):
    """Fail, instead of hanging, a block that stops yielding to its event
    loop - where ``asyncio.wait_for`` can never fire."""

    def expired(signum, frame):
        raise AssertionError(f"no progress after {seconds}s: the event loop never regained control")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
