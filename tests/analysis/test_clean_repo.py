"""The repository's own automata pass the verifier (tier-1 gate)."""

from repro.analysis import DEFAULT_DET_SCOPE, RULE_CATALOGUE, analyze
from repro.analysis.runner import _in_scope


def test_repo_is_clean(repo_report):
    assert repo_report.ok, "\n".join(f.render() for f in repo_report.active)


def test_fastpath_is_in_determinism_scope():
    # The steady-state fast lane replays automaton effects directly, so
    # it must stay under the R4 determinism rule like the engine itself.
    assert _in_scope("repro.core.fastpath", DEFAULT_DET_SCOPE)
    assert _in_scope("repro.links.batch", DEFAULT_DET_SCOPE)
    # The wire codec decides the bytes every socket frame carries.
    assert _in_scope("repro.wire", DEFAULT_DET_SCOPE)


def test_repo_coverage(repo_report):
    # every Automaton subclass in the tree is actually discovered
    assert repo_report.classes >= 15
    assert repo_report.modules >= 50


def test_repo_suppressions_are_all_known_rules(repo_report):
    # the deliberate allow[...] waivers map to catalogued rules
    assert repo_report.suppressed, "expected deliberate waivers in the repo"
    for finding in repo_report.suppressed:
        assert finding.rule_id in RULE_CATALOGUE


def test_analyzer_is_fast(repo_report):
    # acceptance: the full-repo scan stays well under five seconds
    assert repo_report.elapsed < 5.0


def test_repo_violations_resurface_without_suppressions():
    report = analyze(["repro"], respect_suppressions=False)
    active_ids = {f.rule_id for f in report.active}
    # the garbage-collection writes and the trace-driven spec actions
    assert "R2.parent-write" in active_ids
    assert "R3.missing-candidates" in active_ids
