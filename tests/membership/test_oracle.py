"""Unit tests for the centralized membership oracle."""

from collections import defaultdict

import pytest

from repro.links import LinkCore
from repro.membership.oracle import OracleMembership
from repro.membership.protocol import StartChangeNotice
from repro.net.simclock import EventScheduler


class Sink:
    def __init__(self):
        self.start_changes = []
        self.views = []


def attach(oracle, pids):
    for pid in pids:
        oracle.add_client(pid)
    return oracle.sinks


@pytest.fixture
def world():
    sinks = defaultdict(Sink)

    def deliver(pid, notice):
        """The end-point host's dispatch, reduced to bookkeeping."""
        if isinstance(notice, StartChangeNotice):
            sinks[pid].start_changes.append((notice.cid, notice.members))
        else:
            sinks[pid].views.append(notice.view)

    clock = EventScheduler()
    oracle = OracleMembership(clock, deliver, LinkCore(), round_duration=3.0)
    oracle.sinks = sinks
    return clock, oracle


def test_timing_of_start_change_and_view(world):
    clock, oracle = world
    sinks = attach(oracle, ["a", "b"])
    oracle.reconfigure([["a", "b"]])
    assert sinks["a"].start_changes == []  # scheduled, never re-entrant
    clock.run_until(0.0)
    assert len(sinks["a"].start_changes) == 1
    clock.run_until(2.9)
    assert sinks["a"].views == []
    clock.run_until(3.0)
    assert len(sinks["a"].views) == 1


def test_view_start_ids_match_latest_start_changes(world):
    clock, oracle = world
    sinks = attach(oracle, ["a", "b"])
    oracle.reconfigure([["a", "b"]])
    clock.run()
    view = sinks["a"].views[0]
    assert view.start_id("a") == sinks["a"].start_changes[-1][0]
    assert view.start_id("b") == sinks["b"].start_changes[-1][0]


def test_extra_changes_emit_multiple_start_changes(world):
    clock, oracle = world
    sinks = attach(oracle, ["a"])
    oracle.reconfigure([["a"]], extra_changes=2)
    clock.run()
    assert len(sinks["a"].start_changes) == 3
    assert sinks["a"].views[0].start_id("a") == sinks["a"].start_changes[-1][0]


def test_new_reconfigure_cancels_pending_view(world):
    clock, oracle = world
    sinks = attach(oracle, ["a", "b"])
    oracle.reconfigure([["a", "b"]])
    clock.run_until(2.0)  # mid-round
    oracle.reconfigure([["a"]])
    clock.run()
    # the first (superseded) view never reaches a
    assert len(sinks["a"].views) == 1
    assert sinks["a"].views[0].members == {"a"}


def test_crashed_clients_excluded(world):
    clock, oracle = world
    sinks = attach(oracle, ["a", "b"])
    oracle.client_crashed("b")  # forms the survivors' view itself
    oracle.reconfigure([["a", "b"]])
    clock.run()
    assert sinks["b"].views == []
    assert [view.members for view in sinks["a"].views] == [{"a"}]
    assert [view.members for view in oracle.views_formed] == [{"a"}, {"a"}]


def test_view_counters_increase_across_groups(world):
    clock, oracle = world
    attach(oracle, ["a", "b"])
    views = oracle.reconfigure([["a"], ["b"]])
    assert views[0].vid != views[1].vid
    more = oracle.reconfigure([["a", "b"]])
    assert more[0].vid > max(views[0].vid, views[1].vid)


def test_empty_group_skipped(world):
    _clock, oracle = world
    attach(oracle, ["a"])
    assert oracle.client_crashed("a") == [] and oracle.views_formed == []
    assert oracle.reconfigure([["a"]]) == []
