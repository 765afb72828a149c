"""The verdict engine: earliest witnesses, deterministic order, one pass.

The contract under test (see ``repro.checking.verdict``): a rule's
``witness_index`` is the smallest ``i`` such that ``trace[0..i]``
already violates it; every rule contributes at most its first violation;
violations are ordered by ``(witness_index, class rank, lexical code)``;
and the serialised verdict is byte-stable.  The trans-set tests here are
the regression suite for the old batch-mode checker, which grouped view
deliveries by view and could report a later event than the earliest
demonstrable one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checking import (
    CLASS_ORDER,
    DEFAULT_CODES,
    REGISTRY,
    SAFETY_CODES,
    SOUNDNESS,
    Verdict,
    extract_skeleton,
    run_verdict,
)
from repro.checking.codes import class_rank, violation_sort_key
from repro.checking.events import GcsTrace, MbrshpFormEvent, SendEvent, ViewEvent
from repro.types import make_view

from tests.conftest import trace_of

V1 = make_view(1, ["a", "b"], {"a": 1, "b": 1})
V2 = make_view(2, ["a", "b"], {"a": 2, "b": 2})


def good_trace():
    """Two FIFO messages over a shared view; passes every default rule."""
    return trace_of(
        ("view", "a", V1, {"a"}),
        ("view", "b", V1, {"b"}),
        ("send", "a", "m1"),
        ("send", "a", "m2"),
        ("dlv", "a", "a", "m1"),
        ("dlv", "a", "a", "m2"),
        ("dlv", "b", "a", "m1"),
        ("dlv", "b", "a", "m2"),
    )


class TestPassVerdict:
    def test_shape(self):
        trace = good_trace()
        verdict = run_verdict(trace, ["a", "b"])
        assert verdict.ok
        assert verdict.status == "PASS"
        assert verdict.events == len(trace)
        assert verdict.violations == ()
        assert verdict.primary is None
        assert verdict.witness_index is None
        assert verdict.rules == tuple(sorted(DEFAULT_CODES))

    def test_to_dict_carries_the_soundness_statement(self):
        verdict = run_verdict(good_trace(), ["a", "b"])
        payload = verdict.to_dict()
        assert payload["soundness"] == SOUNDNESS
        assert payload["status"] == "PASS"
        assert payload["violations"] == []

    def test_liveness_and_golden_rules_join_on_demand(self):
        trace = good_trace()
        verdict = run_verdict(
            trace, ["a", "b"], final_view=V1, golden=extract_skeleton(trace)
        )
        assert verdict.ok
        assert "VS-LIVE" in verdict.rules
        assert "VS-SKEL" in verdict.rules


class TestEarliestWitness:
    def test_multi_violation_trace_is_ordered_by_witness_then_class(self):
        # index 1: an origin server's counter regresses (membership);
        # index 3: a re-used view identifier that is not monotone at a
        # (contract), with a outside its own T (contract) and the
        # identifier now denoting two views (membership).
        high = make_view(2, ["x"], {"x": 2}, origin="s")
        stale = make_view(1, ["x"], {"x": 3}, origin="s")
        fork = make_view(2, ["a"], {"a": 2})
        trace = GcsTrace([
            MbrshpFormEvent(0.0, "s", high),
            MbrshpFormEvent(1.0, "s", stale),
            ViewEvent(2.0, "a", V2, frozenset({"a"})),
            ViewEvent(3.0, "a", fork, frozenset({"b"})),
        ])
        verdict = run_verdict(trace, ["a", "b"])
        assert not verdict.ok
        found = [(v.code, v.witness_index) for v in verdict.violations]
        assert found == [
            ("MBRSHP-SRV-MONO", 1),  # the earlier witness first, whatever its class
            ("VS-MONO", 3),  # contract beats membership on the shared index
            ("VS-TRANS-SET", 3),  # lexically after VS-MONO, same class
            ("MBRSHP-SRV-FORK", 3),
        ]
        assert verdict.primary.code == "MBRSHP-SRV-MONO"
        assert verdict.witness_index == 1

    def test_each_rule_reports_only_its_first_violation(self):
        # Two independent monotonicity violations; only the earlier counts.
        trace = trace_of(
            ("view", "a", V2, {"a"}),
            ("view", "a", V1, {"a"}),
            ("view", "b", V2, {"b"}),
            ("view", "b", V1, {"b"}),
        )
        violation = run_verdict(trace, include=["VS-MONO"]).primary
        assert violation.witness_index == 1
        verdict = run_verdict(trace, ["a", "b"])
        mono = [v for v in verdict.violations if v.code == "VS-MONO"]
        assert [v.witness_index for v in mono] == [1]

    def test_sort_key_matches_the_published_order(self):
        assert violation_sort_key("VS-MONO", 3) < violation_sort_key(
            "VS-SPEC-REFINE", 3
        )
        assert violation_sort_key("VS-SPEC-REFINE", 2) < violation_sort_key(
            "VS-MONO", 3
        )
        # lexical facts the forgeries rely on (same class, same index)
        assert "VS-SELF-INCL" < "VS-TRANS-SET"
        assert "VS-MONO" < "VS-TRANS-SET"
        assert "VS-SELF-DLV" < "VS-VSYNC"


class TestTransSetRegression:
    """The out-of-order arrival cases the batch checker got wrong."""

    SHARED = make_view(1, ["a", "b", "c"], {"a": 1, "b": 1, "c": 1})
    NEXT = make_view(2, ["a", "b", "c"], {"a": 2, "b": 2, "c": 2})

    def two_violation_trace(self):
        # Same-previous-view movers disagree on T, demonstrable only at
        # the second arrival (index 4); a later, independent violation
        # (c's T missing c, index 5) must NOT be the one reported.
        solo = make_view(3, ["c"], {"c": 3})
        return trace_of(
            ("view", "a", self.SHARED, {"a"}),
            ("view", "b", self.SHARED, {"b"}),
            ("view", "c", self.SHARED, {"c"}),
            ("view", "a", self.NEXT, {"a"}),
            ("view", "b", self.NEXT, {"a", "b"}),
            ("view", "c", solo, set()),
        )

    def test_disagreement_is_witnessed_at_the_second_arrival(self):
        violation = run_verdict(self.two_violation_trace(), include=["VS-TRANS-SET"]).primary
        assert violation is not None
        assert violation.code == "VS-TRANS-SET"
        assert violation.witness_index == 4

    def test_verdict_keeps_the_earliest_trans_set_witness(self):
        verdict = run_verdict(self.two_violation_trace(), ["a", "b", "c"])
        trans = [v for v in verdict.violations if v.code == "VS-TRANS-SET"]
        assert [v.witness_index for v in trans] == [4]

    def test_classification_mismatch_caught_on_arrival(self):
        # b moved with a (same previous view) but a's T excluded it:
        # check (c)/(d) must fire at b's event, not later.
        trace = trace_of(
            ("view", "a", self.SHARED, {"a"}),
            ("view", "b", self.SHARED, {"b"}),
            ("view", "a", self.NEXT, {"a"}),
            ("view", "b", self.NEXT, {"a", "b"}),
        )
        violation = run_verdict(trace, include=["VS-TRANS-SET"]).primary
        assert violation is not None
        assert violation.witness_index == 3


class TestDeterminism:
    def test_failing_verdict_is_byte_identical_across_runs(self):
        alien = make_view(3, ["a"], {"a": 3})
        trace = trace_of(
            ("view", "a", V2, {"a"}),
            ("view", "a", V1, {"a"}),
            ("view", "b", alien, {"b"}),
        )
        first = run_verdict(trace, ["a", "b"]).to_json()
        second = run_verdict(trace, ["a", "b"]).to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == "FAIL"
        assert payload["rules"] == sorted(DEFAULT_CODES)

    def test_indented_form_parses_to_the_same_payload(self):
        verdict = run_verdict(good_trace(), ["a", "b"])
        assert json.loads(verdict.to_json()) == json.loads(
            verdict.to_json(indent=2)
        )


def _verdict_under_hash_seeds(*args, expect):
    """``python -m repro verdict *args`` under hash seeds 0 and 1."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "verdict", "--backend", "sim", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == expect, result.stderr
        outputs.append(result.stdout)
    return outputs


class TestCrossProcessDeterminism:
    def test_forged_verdict_is_hash_seed_independent(self):
        """Two interpreters with different hash seeds must emit the same
        verdict bytes: trace order (wire fan-out) and message text (set
        reprs) may not leak the hash seed."""
        outputs = _verdict_under_hash_seeds(
            "--seed", "7", "--mutate", "VS-MONO", expect=1
        )
        assert outputs[0] == outputs[1]

    def test_server_chaos_verdict_is_hash_seed_independent(self, tmp_path):
        """The same with a three-server tier under server faults: the
        servers' proposal fan-out and the transports' pump order feed the
        fault injector's RNG stream, so a hash-ordered loop in either
        changes the whole episode (event count, even the verdict)."""
        from repro.chaos import ChaosPlan

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(ChaosPlan.generate(5, servers=3).to_dict()))
        outputs = _verdict_under_hash_seeds("--plan", str(plan_file), expect=0)
        assert outputs[0] == outputs[1]


class TestEndOfRunWitnesses:
    def test_liveness_violation_is_witnessed_at_trace_length(self):
        trace = trace_of(("view", "a", V1, {"a"}))  # b never arrives
        verdict = run_verdict(trace, ["a", "b"], final_view=V1)
        assert verdict.primary.code == "VS-LIVE"
        assert verdict.primary.witness_index == len(trace)

    def test_extra_event_under_golden_is_witnessed_where_it_occurred(self):
        trace = good_trace()
        golden = extract_skeleton(trace)
        mutated = trace_of(*[])
        for event in trace:
            mutated.append(event)
        mutated.append(SendEvent(99.0, "a", "extra"))
        verdict = run_verdict(mutated, ["a", "b"], golden=golden)
        assert verdict.primary.code == "VS-SKEL"
        assert verdict.primary.witness_index == len(trace)


class TestParameterValidation:
    def test_unknown_code_is_rejected(self):
        with pytest.raises(ValueError, match="unknown violation code"):
            run_verdict(good_trace(), ["a", "b"], include=["VS-NOPE"])

    def test_runtime_findings_are_not_trace_rules(self):
        with pytest.raises(ValueError, match="runtime finding"):
            run_verdict(good_trace(), ["a", "b"], include=["RUN-STALL"])
        # ... and the other way round: a trace rule is not a runtime finding.
        with pytest.raises(ValueError, match="trace rule"):
            Verdict.runtime("VS-MONO", "not a run-level fact")
        stall = Verdict.runtime("RUN-STALL", "settle timeout")
        assert not stall.ok and (stall.events, stall.rules) == (0, ())
        assert stall.primary.describe() == "RUN-STALL: settle timeout"
        assert stall.to_dict()["violations"] == [
            {"code": "RUN-STALL", "witness_index": None, "message": "settle timeout"}
        ]

    def test_live_code_requires_a_final_view(self):
        with pytest.raises(ValueError, match="final_view"):
            run_verdict(good_trace(), ["a", "b"], include=["VS-LIVE"])

    def test_skeleton_code_requires_a_golden(self):
        with pytest.raises(ValueError, match="golden"):
            run_verdict(good_trace(), ["a", "b"], include=["VS-SKEL"])


class TestRegistry:
    def test_class_order_backs_the_documented_priorities(self):
        assert CLASS_ORDER.index("contract") < CLASS_ORDER.index("refinement")
        assert class_rank("VS-MONO") < class_rank("VS-SPEC-REFINE")
        assert class_rank("VS-SPEC-REFINE") < class_rank("MBRSHP-CONF")
        assert class_rank("VS-SKEL") < class_rank("VS-LIVE")

    def test_default_and_safety_sets_are_registered_trace_rules(self):
        assert set(SAFETY_CODES) < set(DEFAULT_CODES) <= set(REGISTRY)
        for code in DEFAULT_CODES:
            assert REGISTRY[code].trace_rule
        assert not REGISTRY["RUN-STALL"].trace_rule

    def test_every_code_documents_complexity_and_paper_ref(self):
        for info in REGISTRY.values():
            assert info.complexity
            assert info.paper_ref
            assert info.rule_class in CLASS_ORDER
