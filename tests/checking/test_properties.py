"""The property checkers must accept good traces and reject bad ones.

Positive cases come from real runs; negative cases are hand-crafted
traces embodying each specific violation (a mutation-style test of the
checkers themselves).
"""

import pytest

from repro.checking.codes import SAFETY_CODES
from repro.checking.events import (
    GcsTrace,
    MbrshpStartChangeEvent,
    MbrshpViewEvent,
)
from repro.checking.verdict import run_verdict
from repro.errors import SpecificationViolation
from repro.types import make_view

from tests.conftest import trace_of

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})
V2_SOLO = make_view(2, ["a"], {"a": 2})


class TestSelfInclusion:
    def test_accepts_inclusive_views(self):
        trace = trace_of(("view", "a", V1, {"a"}))
        run_verdict(trace, include=["VS-SELF-INCL"]).raise_for()

    def test_rejects_exclusive_view(self):
        alien = make_view(1, ["b"], {"b": 1})
        trace = trace_of(("view", "a", alien, {"a"}))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-SELF-INCL"]).raise_for()


class TestLocalMonotonicity:
    def test_accepts_increasing(self):
        trace = trace_of(("view", "a", V1, {"a"}), ("view", "a", V2, {"a"}))
        run_verdict(trace, include=["VS-MONO"]).raise_for()

    def test_rejects_decreasing(self):
        trace = trace_of(("view", "a", V2, {"a"}), ("view", "a", V1, {"a"}))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-MONO"]).raise_for()

    def test_rejects_duplicate_view(self):
        trace = trace_of(("view", "a", V1, {"a"}), ("view", "a", V1, {"a"}))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-MONO"]).raise_for()


class TestSafetySpecReplay:
    def test_accepts_within_view_fifo(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m1"),
            ("send", "a", "m2"),
            ("dlv", "b", "a", "m1"),
            ("dlv", "b", "a", "m2"),
            ("dlv", "a", "a", "m1"),
            ("dlv", "a", "a", "m2"),
        )
        run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()

    def test_rejects_out_of_order_delivery(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m1"),
            ("send", "a", "m2"),
            ("dlv", "b", "a", "m2"),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()

    def test_rejects_phantom_delivery(self):
        trace = trace_of(("view", "b", V1, {"b"}), ("dlv", "b", "a", "ghost"))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()

    def test_rejects_cross_view_delivery(self):
        # a sends in V1; b delivers it while still in its initial view.
        trace = trace_of(("view", "a", V1, {"a"}), ("send", "a", "m"), ("dlv", "b", "a", "m"))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()

    def test_rejects_virtual_synchrony_violation_via_cut(self):
        # both move V1 -> V2, but a delivered m and b did not.
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("view", "a", V2, {"a", "b"}),
            ("view", "b", V2, {"a", "b"}),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()

    def test_rejects_self_delivery_violation(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("send", "a", "mine"),
            ("view", "a", V2, {"a"}),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, ["a", "b"], include=["VS-SPEC-REFINE"]).raise_for()


class TestVirtualSynchronyDirect:
    def test_accepts_matching_delivery_counts(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("dlv", "b", "a", "m"),
            ("view", "a", V2, {"a", "b"}),
            ("view", "b", V2, {"a", "b"}),
        )
        run_verdict(trace, include=["VS-VSYNC"]).raise_for()

    def test_rejects_mismatched_counts(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("view", "a", V2, {"a", "b"}),
            ("view", "b", V2, {"a", "b"}),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-VSYNC"]).raise_for()

    def test_different_previous_views_not_compared(self):
        # b reaches V2 from its initial view, a from V1: no constraint.
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("view", "a", V2, {"a"}),
            ("view", "b", V2, {"b"}),
        )
        run_verdict(trace, include=["VS-VSYNC"]).raise_for()


class TestTransitionalSets:
    def test_rejects_self_missing_from_t(self):
        trace = trace_of(("view", "a", V1, set()))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-TRANS-SET"]).raise_for()

    def test_rejects_t_outside_intersection(self):
        trace = trace_of(("view", "a", V1, {"a", "b"}))  # b not in a's old view
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-TRANS-SET"]).raise_for()

    def test_rejects_wrong_co_mover_classification(self):
        # both reach V2 from V1... but a's T omits b.
        shared = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        trace = trace_of(
            ("view", "a", shared, {"a"}),
            ("view", "b", shared, {"b"}),
            ("view", "a", V2, {"a"}),
            ("view", "b", V2, {"a", "b"}),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-TRANS-SET"]).raise_for()

    def test_accepts_correct_sets(self):
        shared = make_view(1, ["a", "b"], {"a": 1, "b": 1})
        trace = trace_of(
            ("view", "a", shared, {"a"}),
            ("view", "b", shared, {"b"}),
            ("view", "a", V2, {"a", "b"}),
            ("view", "b", V2, {"a", "b"}),
        )
        run_verdict(trace, include=["VS-TRANS-SET"]).raise_for()


class TestSelfDeliveryDirect:
    def test_rejects_undelivered_own_message(self):
        trace = trace_of(("send", "a", "m"), ("view", "a", V1, {"a"}))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, include=["VS-SELF-DLV"]).raise_for()

    def test_accepts_delivered_own_messages(self):
        trace = trace_of(
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("view", "a", V1, {"a"}),
        )
        run_verdict(trace, include=["VS-SELF-DLV"]).raise_for()


class TestLiveness:
    def test_rejects_member_missing_final_view(self):
        trace = trace_of(("view", "a", V1, {"a"}))
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, final_view=V1, include=["VS-LIVE"]).raise_for()

    def test_rejects_undelivered_message(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
        )
        with pytest.raises(SpecificationViolation):
            run_verdict(trace, final_view=V1, include=["VS-LIVE"]).raise_for()

    def test_accepts_complete_stable_run(self):
        trace = trace_of(
            ("view", "a", V1, {"a"}),
            ("view", "b", V1, {"b"}),
            ("send", "a", "m"),
            ("dlv", "a", "a", "m"),
            ("dlv", "b", "a", "m"),
        )
        run_verdict(trace, final_view=V1, include=["VS-LIVE"]).raise_for()


def test_check_all_safety_bundles_everything():
    bad = trace_of(("view", "a", V2, {"a"}), ("view", "a", V1, {"a"}))
    with pytest.raises(SpecificationViolation):
        run_verdict(bad, ["a", "b"], include=SAFETY_CODES).raise_for()


class TestMbrshpConformance:
    """The MBRSHP-CONF rule replays notices through Figure 2."""

    def mb_trace(self, *events):
        trace = GcsTrace()
        for time, event in enumerate(events):
            kind = event[0]
            if kind == "sc":
                _, p, cid, members = event
                trace.append(
                    MbrshpStartChangeEvent(float(time), p, cid, frozenset(members))
                )
            elif kind == "mv":
                _, p, view = event
                trace.append(MbrshpViewEvent(float(time), p, view))
            else:
                raise ValueError(kind)
        return trace

    def test_accepts_valid_notice_stream(self):
        trace = self.mb_trace(
            ("sc", "a", 1, {"a", "b"}),
            ("sc", "b", 1, {"a", "b"}),
            ("mv", "a", V1),
            ("mv", "b", V1),
        )
        run_verdict(trace, include=["MBRSHP-CONF"]).raise_for()

    def test_rejects_view_without_start_change(self):
        trace = self.mb_trace(("mv", "a", V1))
        with pytest.raises(SpecificationViolation, match="MBRSHP conformance"):
            run_verdict(trace, include=["MBRSHP-CONF"]).raise_for()

    def test_rejects_non_increasing_cid(self):
        trace = self.mb_trace(
            ("sc", "a", 2, {"a", "b"}),
            ("sc", "a", 2, {"a"}),
        )
        with pytest.raises(SpecificationViolation, match="MBRSHP conformance"):
            run_verdict(trace, include=["MBRSHP-CONF"]).raise_for()

    def test_rejects_members_outside_suggested_set(self):
        trace = self.mb_trace(
            ("sc", "a", 1, {"a"}),
            ("mv", "a", V1),  # V1 has members {a, b}, announced only {a}
        )
        with pytest.raises(SpecificationViolation, match="MBRSHP conformance"):
            run_verdict(trace, include=["MBRSHP-CONF"]).raise_for()

    def test_rejects_stale_start_id(self):
        trace = self.mb_trace(
            ("sc", "a", 5, {"a", "b"}),
            ("mv", "a", V1),  # V1 binds startId(a) = 1, but cid 5 was announced
        )
        with pytest.raises(SpecificationViolation, match="MBRSHP conformance"):
            run_verdict(trace, include=["MBRSHP-CONF"]).raise_for()

    def test_empty_trace_passes(self):
        run_verdict(GcsTrace(), include=["MBRSHP-CONF"]).raise_for()
