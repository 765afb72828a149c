"""--strict-parity: the static and runtime enforcers of [26] agree."""

from repro.analysis import analyze, load_targets
from repro.analysis.parity import diff_ownership, run_strict_parity
from repro.analysis.rules import make_class_index
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.wv_endpoint import WvRfifoEndpoint


def _index():
    return make_class_index(load_targets(("repro.core",)))


def test_strict_parity_is_clean_on_the_composed_world():
    assert run_strict_parity(_index()) == []


def test_analyze_accepts_the_flag():
    report = analyze(["repro.core"], strict_parity=True)
    assert not [f for f in report.active if f.rule_id == "R2.parity"]


def test_predicted_owners_match_a_real_endpoint():
    index = _index()
    owners = index.owners(GcsEndpoint)
    assert owners["msgs"] is WvRfifoEndpoint
    assert owners["block_status"] is GcsEndpoint


def test_read_parity_is_clean_on_the_endpoint_stack():
    """The driven endpoint's guards read only what the analyzer sees."""
    from repro.analysis.parity import _seeded_endpoint, diff_read_fingerprints

    findings = diff_read_fingerprints(
        GcsEndpoint, _index(), factory=_seeded_endpoint
    )
    assert findings == []


def test_hidden_guard_read_is_caught_by_the_probe():
    """getattr indirection in a precondition must surface as drift."""
    import os

    from repro.analysis.parity import diff_read_fingerprints

    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    index = make_class_index(load_targets((fixtures,)))
    from tests.analysis.fixtures.r5_dynamic_read import SneakyGuard

    findings = diff_read_fingerprints(SneakyGuard, index)
    assert [f.rule_id for f in findings] == ["R5.read-parity"]
    (finding,) = findings
    assert "'hidden'" in finding.explanation
    assert "tick" in finding.explanation


def test_ownership_drift_is_detected():
    index = _index()
    runtime = dict(index.owners(GcsEndpoint))
    del runtime["msgs"]  # runtime "lost" a variable
    runtime["ghost"] = GcsEndpoint  # and grew one statically invisible
    runtime["block_status"] = WvRfifoEndpoint  # and re-homed another
    findings = diff_ownership(GcsEndpoint, runtime, index)
    assert len(findings) == 3
    assert {f.rule_id for f in findings} == {"R2.parity"}
    texts = " ".join(f.explanation for f in findings)
    assert "msgs" in texts and "ghost" in texts and "block_status" in texts
