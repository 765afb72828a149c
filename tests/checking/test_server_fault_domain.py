"""Negative-path tests for the server fault-domain trace rules.

A recovery that forks the view history or forgets its durable counter
watermark must be *caught*, not merely avoided.  These tests exercise
the two Section-8 rules directly on hand-built traces, then run a real
server-crash-and-recovery on the simulated substrate and forge a
ViewNotice-shaped formation with a stale view counter into its trace:
the verdict must FAIL with ``MBRSHP-SRV-MONO`` at the earliest witness.
"""

import asyncio

import pytest

from repro._collections import frozendict
from repro.checking.events import GcsTrace, MbrshpFormEvent, ViewEvent
from repro.checking.verdict import run_verdict
from repro.deploy import make_deployment
from repro.types import View, ViewId

SRV_CODES = ("MBRSHP-SRV-FORK", "MBRSHP-SRV-MONO")


def _view(counter, origin, members, cid=1):
    return View(
        ViewId(counter, origin),
        frozenset(members),
        frozendict({pid: cid for pid in members}),
    )


def _form(time, sid, view):
    return MbrshpFormEvent(time, sid, view)


class TestServerForkRule:
    def test_one_vid_one_view_passes(self):
        v = _view(1, "srv:0", "ab")
        trace = GcsTrace(
            [
                _form(0.0, "srv:0", v),
                _form(0.1, "srv:1", v),
                ViewEvent(0.2, "a", v, frozenset("ab")),
            ]
        )
        assert run_verdict(trace, ["a", "b"], include=SRV_CODES).ok

    def test_same_vid_different_members_is_a_fork(self):
        # The signature of a forked recovery: a server that forgot it
        # already issued counter 1 re-forms it over other members.
        trace = GcsTrace(
            [
                _form(0.0, "srv:0", _view(1, "srv:0", "ab")),
                _form(0.1, "srv:1", _view(1, "srv:0", "ac")),
            ]
        )
        verdict = run_verdict(trace, ["a", "b", "c"], include=SRV_CODES)
        assert verdict.primary.code == "MBRSHP-SRV-FORK"
        assert verdict.primary.witness_index == 1

    def test_fork_seen_across_client_and_server_events(self):
        # The rule spans observation kinds: a client-side view delivery
        # and a later server formation must agree on the denotation too.
        trace = GcsTrace(
            [
                ViewEvent(0.0, "a", _view(2, "srv:1", "ab"), frozenset("ab")),
                _form(0.5, "srv:1", _view(2, "srv:1", "abc")),
            ]
        )
        verdict = run_verdict(trace, ["a", "b", "c"], include=SRV_CODES)
        assert verdict.primary.code == "MBRSHP-SRV-FORK"
        assert verdict.primary.witness_index == 1


class TestServerCounterMonotonicityRule:
    def test_origin_regression_fails_at_earliest_witness(self):
        trace = GcsTrace(
            [
                _form(0.0, "srv:0", _view(2, "srv:0", "ab")),
                _form(0.1, "srv:0", _view(1, "srv:0", "a")),
                _form(0.2, "srv:0", _view(1, "srv:0", "b")),
            ]
        )
        verdict = run_verdict(trace, ["a", "b"], include=SRV_CODES)
        assert verdict.primary.code == "MBRSHP-SRV-MONO"
        assert verdict.primary.witness_index == 1  # earliest, not last

    def test_equal_counter_is_a_regression_too(self):
        trace = GcsTrace(
            [
                _form(0.0, "srv:0", _view(3, "srv:0", "ab")),
                _form(0.1, "srv:0", _view(3, "srv:0", "ab")),
            ]
        )
        verdict = run_verdict(trace, ["a", "b"], include=SRV_CODES)
        assert verdict.primary.code == "MBRSHP-SRV-MONO"

    def test_non_origin_formations_are_ignored(self):
        # Co-formers adopt rounds in whatever order messages land; only
        # the origin's own sequence is causally ordered in the trace.
        trace = GcsTrace(
            [
                _form(0.0, "srv:1", _view(5, "srv:0", "ab")),
                _form(0.1, "srv:1", _view(4, "srv:0", "ab")),
            ]
        )
        assert run_verdict(trace, ["a", "b"], include=SRV_CODES).ok

    def test_per_origin_watermarks_are_independent(self):
        trace = GcsTrace(
            [
                _form(0.0, "srv:0", _view(7, "srv:0", "a")),
                _form(0.1, "srv:1", _view(2, "srv:1", "b")),
            ]
        )
        assert run_verdict(trace, ["a", "b"], include=SRV_CODES).ok


# ----------------------------------------------------------------------
# the real thing: forged stale notice after an actual recovery
# ----------------------------------------------------------------------


def _recovery_run():
    """A full sim run: crash a membership server, recover it, keep going."""

    async def main():
        d = make_deployment("sim", servers=3)
        await d.setup(["a", "b", "c"])
        await d.send("a", "m1")
        sid = await d.server_crash()
        await d.send("b", "m2")
        await d.server_recover(sid)
        await d.reconfigure(["a", "b"])
        await d.reconfigure(["a", "b", "c"])
        await d.settle()
        await d.close()
        return d, sid

    return asyncio.run(main())


@pytest.fixture(scope="module")
def recovery():
    return _recovery_run()


def test_genuine_recovery_verdict_is_green(recovery):
    deployment, _sid = recovery
    verdict = deployment.verdict()
    assert verdict.ok, verdict.to_json(indent=2)
    assert set(SRV_CODES) <= set(verdict.rules)


def test_forged_stale_notice_after_recovery_fails_srv_mono(recovery):
    """Satellite: a forged view formation claiming a stale counter from
    the recovered server FAILs with MBRSHP-SRV-MONO at its index."""
    deployment, _sid = recovery
    origins = [
        e
        for e in deployment.trace.of_type(MbrshpFormEvent)
        if e.proc == e.view.vid.origin
    ]
    assert origins, "a tier-mode run must record origin formations"
    victim = origins[-1]
    stale = MbrshpFormEvent(victim.time, victim.proc, victim.view)
    forged = GcsTrace(deployment.trace)
    forged.append(stale)  # a server re-announcing a counter it already issued
    verdict = run_verdict(forged, deployment.processes())
    assert not verdict.ok
    assert verdict.primary.code == "MBRSHP-SRV-MONO", verdict.to_json(indent=2)
    assert verdict.primary.witness_index == len(forged) - 1


def test_forged_forked_view_after_recovery_fails_srv_fork(recovery):
    deployment, sid = recovery
    formations = deployment.trace.of_type(MbrshpFormEvent)
    victim = formations[-1].view
    fork = _view(victim.vid.counter, victim.vid.origin, victim.members | {"z"})
    forged = GcsTrace(deployment.trace)
    forged.append(MbrshpFormEvent(formations[-1].time, sid, fork))
    verdict = run_verdict(forged, deployment.processes())
    assert not verdict.ok
    assert verdict.primary.code == "MBRSHP-SRV-FORK"
    assert verdict.primary.witness_index == len(forged) - 1
