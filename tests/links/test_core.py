"""Unit tests for the substrate-agnostic link core itself."""

from __future__ import annotations

from repro.chaos.faults import DuplicateCopy, FaultInjector, FaultModel
from repro.links import LinkCore, LinkStats, Transmission, kind_of


def core_with(*pids):
    core = LinkCore()
    for pid in pids:
        core.ensure(pid)
    return core


# ----------------------------------------------------------------------
# the partition/reachability matrix
# ----------------------------------------------------------------------


def test_everyone_starts_connected():
    core = core_with("a", "b", "c")
    assert core.connected("a", "b")
    assert core.reachable_from("a") == {"a", "b", "c"}
    assert core.processes() == ["a", "b", "c"]


def test_partition_and_heal():
    core = core_with("a", "b", "c")
    core.partition([["a", "b"], ["c"]])
    assert core.connected("a", "b")
    assert not core.connected("a", "c")
    core.heal()
    assert core.connected("a", "c")


def test_partition_auto_registers_and_leaves_rest_in_group_zero():
    core = core_with("a")
    core.partition([["x"]])  # x unseen before; a stays in group 0
    assert "x" in core.processes()
    assert not core.connected("a", "x")


def test_restrict_requires_mutual_allowance():
    core = core_with("a", "b", "c")
    core.restrict("a", ["c"])
    assert not core.connected("a", "b")
    assert not core.connected("b", "a")  # symmetric: b cannot reach a either
    assert core.connected("a", "c")
    assert core.connected("b", "c")  # unrelated pair untouched
    core.restrict("a", None)
    assert core.connected("a", "b")


def test_heal_lifts_restrictions():
    core = core_with("a", "b")
    core.restrict("a", [])
    assert not core.connected("a", "b")
    core.heal()
    assert core.connected("a", "b")


def test_topology_listeners_fire_on_every_change():
    core = core_with("a", "b")
    calls = []
    core.on_topology_change(lambda: calls.append(1))
    core.partition([["a"], ["b"]])
    core.restrict("a", ["b"])
    core.heal()
    assert len(calls) == 3


# ----------------------------------------------------------------------
# per-link FIFO clamp
# ----------------------------------------------------------------------


def test_fifo_arrival_is_monotone_per_link():
    core = core_with("a", "b")
    assert core.fifo_arrival("a", "b", 5.0) == 5.0
    assert core.fifo_arrival("a", "b", 3.0) == 5.0  # clamped: no overtaking
    assert core.fifo_arrival("a", "b", 7.0) == 7.0
    assert core.fifo_arrival("b", "a", 1.0) == 1.0  # other direction independent


# ----------------------------------------------------------------------
# outbound / inbound / bounced
# ----------------------------------------------------------------------


def test_outbound_across_a_cut_is_refused_and_uncounted():
    core = core_with("a", "b")
    core.partition([["a"], ["b"]])
    assert core.outbound("a", "b", "m") is None
    assert core.totals() == {}


def test_outbound_without_faults_is_one_plain_copy():
    core = core_with("a", "b")
    transmission = core.outbound("a", "b", "m")
    assert isinstance(transmission, Transmission)
    assert transmission.copies == (("m", 0.0),)
    assert not transmission.dropped
    assert core.totals() == {"str": 1}


def test_outbound_duplicate_puts_second_copy_behind_original():
    injector = FaultInjector(FaultModel(duplicate=1.0, seed=1))
    core = LinkCore(faults=injector)
    core.ensure("a")
    core.ensure("b")
    transmission = core.outbound("a", "b", "m")
    (first, _d1), (second, _d2) = transmission.copies
    assert first == "m"
    assert isinstance(second, DuplicateCopy)
    assert second.message == "m"
    assert core.totals() == {"str": 1, "DuplicateCopy": 1}
    # The marker itself must not draw a second fault decision.
    assert injector.counters["messages"] == 1


def test_outbound_drop_is_a_delay_not_a_loss():
    injector = FaultInjector(FaultModel(drop=1.0, seed=2))
    core = LinkCore(faults=injector)
    core.ensure("a")
    core.ensure("b")
    transmission = core.outbound("a", "b", "m")
    assert transmission.dropped
    ((wire, extra),) = transmission.copies
    assert wire == "m"
    assert extra > 0.0  # the retransmission penalty


def test_inbound_dedups_and_counts():
    injector = FaultInjector(FaultModel())
    core = LinkCore(faults=injector)
    core.ensure("a")
    core.ensure("b")
    assert core.inbound("a", "b", "m") == "m"
    assert core.inbound("a", "b", DuplicateCopy("m")) is None
    assert injector.counters["suppressed"] == 1
    assert core.stats.delivered == {"str": 1, "DuplicateCopy": 1}


def test_inbound_check_topology_drops_frames_across_a_cut():
    core = core_with("a", "b")
    core.partition([["a"], ["b"]])
    assert core.inbound("a", "b", "m", check_topology=True) is None
    assert core.stats.delivered == {}  # never counted as delivered
    core.heal()
    assert core.inbound("a", "b", "m", check_topology=True) == "m"


def test_single_frame_dropped_at_a_cut_counts_as_bounced():
    """A lone frame across a cut is accounted exactly like a batch of one."""
    core = core_with("a", "b")
    core.outbound("a", "b", "m")
    core.partition([["a"], ["b"]])
    assert core.inbound("a", "b", "m", check_topology=True) is None
    assert core.stats.bounced == {"str": 1}
    assert core.in_flight == 0


# ----------------------------------------------------------------------
# the in-flight ledger
# ----------------------------------------------------------------------


def test_ledger_counts_admitted_copies_until_resolved():
    core = LinkCore(faults=FaultInjector(FaultModel(duplicate=1.0, seed=1)))
    core.ensure("a")
    core.ensure("b")
    core.outbound("a", "b", "m1")  # original + duplicate marker
    core.outbound("a", "b", "m2")
    core.outbound("a", "b", "m3")
    core.outbound("a", "b", "m4")
    assert core.in_flight == 8
    assert core.inbound_batch("a", "b", ["m1", DuplicateCopy("m1")]) == ["m1"]
    assert core.inbound("a", "b", "m2") == "m2"
    assert core.inbound("a", "b", DuplicateCopy("m2")) is None
    core.lost("a", "b", ["m3"])
    core.lost("a", "b", [DuplicateCopy("m3")])
    assert core.in_flight == 2
    core.lost("a", "b", ["m4", DuplicateCopy("m4")])
    assert core.in_flight == 0
    assert core.stats.bounced == {"str": 2, "DuplicateCopy": 2}


def test_ledger_survives_reset_and_ignores_refused_sends():
    core = core_with("a", "b")
    core.outbound("a", "b", "m")
    core.reset_counters()  # statistics only: the copy is still on the wire
    assert core.in_flight == 1
    core.partition([["a"], ["b"]])
    assert core.outbound("a", "b", "cut") is None
    assert core.in_flight == 1


def test_idle_listeners_fire_each_time_the_ledger_returns_to_zero():
    core = core_with("a", "b")
    calls = []
    core.on_idle(lambda: calls.append(core.in_flight))
    core.outbound("a", "b", "m1")
    core.outbound("a", "b", "m2")
    core.inbound("a", "b", "m1")
    assert calls == []
    core.inbound("a", "b", "m2")
    core.outbound("a", "b", "m3")
    core.lost("a", "b", ["m3"])
    assert calls == [0, 0]


def test_describe_stall_names_ledger_and_links():
    core = core_with("a", "srv:0")
    core.outbound("a", "srv:0", "m")
    assert core.describe_stall() == (
        "wire copies in flight: 1; tier links a->srv:0: 1; busiest links: a->srv:0: 1"
    )


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def test_kind_of_uses_class_name():
    assert kind_of("x") == "str"
    assert kind_of(3) == "int"
    assert kind_of(DuplicateCopy("x")) == "DuplicateCopy"


def test_totals_and_reset():
    core = core_with("a", "b")
    core.outbound("a", "b", "m1")
    core.outbound("a", "b", 2)
    assert core.totals() == {"str": 1, "int": 1}
    assert core.stats.per_link[("a", "b")] == 2
    core.reset_counters()
    assert core.totals() == {}
    assert sum(core.stats.per_link.values()) == 0


def test_volume_counts_estimated_sizes():
    class Sized:
        def estimated_size(self):
            return 7

    stats = LinkStats()
    stats.record_sent("a", "b", Sized())
    stats.record_sent("a", "b", Sized())
    assert stats.volume == {"Sized": 14}


def test_describe_links_orders_by_traffic():
    stats = LinkStats()
    assert stats.describe_links() == "no traffic"
    for _ in range(3):
        stats.record_sent("a", "b", "m")
    stats.record_sent("b", "a", "m")
    assert stats.describe_links() == "a->b: 3, b->a: 1"


def test_describe_tier_links_singles_out_server_traffic():
    stats = LinkStats()
    assert stats.describe_tier_links() == "no tier traffic"
    for _ in range(3):
        stats.record_sent("a", "srv:0", "m")
    stats.record_sent("srv:0", "a", "m")
    stats.record_sent("a", "b", "m")  # client traffic: not a tier link
    assert stats.describe_tier_links() == "tier links a->srv:0: 3, srv:0->a: 1"


def test_describe_links_truncates():
    stats = LinkStats()
    for i in range(9):
        stats.record_sent(f"p{i}", "q", "m")
    text = stats.describe_links(limit=6)
    assert text.endswith("(+3 more)")


def test_repr_mentions_groups_and_restrictions():
    core = core_with("a", "b")
    core.partition([["a"], ["b"]])
    core.restrict("a", ["b"])
    text = repr(core)
    assert "groups=[1, 2]" in text
    assert "'a'" in text
