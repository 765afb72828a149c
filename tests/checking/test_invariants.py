"""The invariant checkers must hold on real runs and flag corrupted state."""

import pytest

from repro._collections import frozendict
from repro.checking.invariants import (
    WorldView,
    check_invariants,
    invariant_6_1,
    invariant_6_2,
    invariant_6_7,
    invariant_6_9,
    invariant_6_12,
    invariant_6_13,
    invariant_7_1,
    invariant_7_2,
)
from repro.core.messages import SyncMsg
from repro.errors import InvariantViolation
from repro.harness import ModelHarness
from repro.spec.client import BlockStatus
from repro.types import make_view


@pytest.fixture
def settled_harness():
    harness = ModelHarness("abc", seed=1, scripts={p: [f"{p}0"] for p in "abc"})
    harness.form_view("abc")
    harness.scheduler("fair").run(max_steps=20_000)
    return harness


def test_all_invariants_hold_after_settled_run(settled_harness):
    check_invariants(settled_harness.world)


def test_invariant_hook_runs_during_execution():
    harness = ModelHarness("ab", seed=2)
    scheduler = harness.scheduler("fair")
    scheduler.add_hook(harness.invariant_hook())
    harness.form_view("ab")
    scheduler.run(max_steps=20_000)  # raises on any violation


def test_6_1_detects_missing_self(settled_harness):
    ep = settled_harness.endpoints["a"]
    ep.current_view = make_view(9, ["b"], {"b": 9})
    with pytest.raises(InvariantViolation, match="6.1"):
        invariant_6_1(settled_harness.world)


def test_6_2_detects_shrunk_reliable_set(settled_harness):
    # 6.2 speaks of an announced view, and the marker waits for a send.
    settled_harness.clients["a"].queue("a1")
    settled_harness.scheduler("fair").run(max_steps=20_000)
    ep = settled_harness.endpoints["a"]
    assert ep.view_msg_of("a") == ep.current_view
    ep.reliable_set = frozenset({"a"})
    with pytest.raises(InvariantViolation, match="6.2"):
        invariant_6_2(settled_harness.world)


def test_6_7_detects_forged_sync_copy(settled_harness):
    world = settled_harness.world
    ep_b = settled_harness.endpoints["b"]
    forged = SyncMsg(99, ep_b.current_view, frozendict({"a": 5}))
    ep_b.sync_msg.setdefault("a", {})[99] = forged
    ep_a = settled_harness.endpoints["a"]
    ep_a.sync_msg.setdefault("a", {})[99] = SyncMsg(99, ep_a.current_view, frozendict({"a": 0}))
    with pytest.raises(InvariantViolation, match="6.7"):
        invariant_6_7(world)


def test_6_9_detects_wrong_sync_view(settled_harness):
    from repro.types import StartChange

    ep = settled_harness.endpoints["a"]
    ep.start_change = StartChange(50, frozenset("abc"))
    ep.sync_msg.setdefault("a", {})[50] = SyncMsg(50, make_view(7, ["a"], {"a": 7}), frozendict())
    with pytest.raises(InvariantViolation, match="6.9"):
        invariant_6_9(settled_harness.world)


def test_6_12_detects_premature_sync(settled_harness):
    from repro.types import StartChange

    ep = settled_harness.endpoints["a"]
    ep.start_change = StartChange(50, frozenset("abc"))
    ep.block_status = BlockStatus.UNBLOCKED
    settled_harness.clients["a"].block_status = BlockStatus.UNBLOCKED
    ep.sync_msg.setdefault("a", {})[50] = SyncMsg(50, ep.current_view, frozendict())
    with pytest.raises(InvariantViolation, match="6.12"):
        invariant_6_12(settled_harness.world)


def test_6_13_detects_incomplete_cut(settled_harness):
    from repro.types import StartChange

    ep = settled_harness.endpoints["a"]
    ep.buffer("a", ep.current_view).append("unsent")
    ep.start_change = StartChange(50, frozenset("abc"))
    ep.block_status = BlockStatus.BLOCKED
    settled_harness.clients["a"].block_status = BlockStatus.BLOCKED
    ep.sync_msg.setdefault("a", {})[50] = SyncMsg(50, ep.current_view, frozendict({"a": 0}))
    with pytest.raises(InvariantViolation, match="6.13"):
        invariant_6_13(settled_harness.world)


def test_7_1_detects_delivery_beyond_cut(settled_harness):
    from repro.types import StartChange

    ep = settled_harness.endpoints["a"]
    ep.start_change = StartChange(50, frozenset("abc"))
    ep.sync_msg.setdefault("a", {})[50] = SyncMsg(
        50, ep.current_view, frozendict({q: 0 for q in "abc"})
    )
    ep.last_dlvrd["b"] = 7
    with pytest.raises(InvariantViolation, match="7.1"):
        invariant_7_1(settled_harness.world)


def test_7_2_detects_commitment_to_missing_message(settled_harness):
    from repro.types import StartChange

    ep = settled_harness.endpoints["a"]
    ep.start_change = StartChange(50, frozenset("abc"))
    ep.sync_msg.setdefault("a", {})[50] = SyncMsg(50, ep.current_view, frozendict({"b": 42}))
    with pytest.raises(InvariantViolation, match="7.2"):
        invariant_7_2(settled_harness.world)


def test_worldview_from_composition_requires_co_rfifo():
    from repro.ioa import Composition
    from repro.spec.client import ScriptedClient

    with pytest.raises(ValueError):
        WorldView.from_composition(Composition([ScriptedClient("a")]))
