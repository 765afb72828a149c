"""R6 meta-test: a seeded fast-lane drift mutation must be caught.

The forge style of the verdict battery, applied to the analyzer: take
the *real* ``repro.core.fastpath`` source, splice one spurious write
into a replay body (the mutation a hurried optimisation would make),
and require ``check_r6`` to flag exactly it.  The unmutated source must
stay clean - the rule's power comes from the gap between those two
outcomes.  The lane's second obligation, holding no end-point state
(``R6.lane-state``), is seeded the same way: a cached reference spliced
into the lane must be flagged, while the version counter and the peer
set it builds stay clean.
"""

import ast
import inspect

import pytest

from repro.analysis.discovery import load_targets
from repro.analysis.fastlane import check_r6
from repro.analysis.rules import make_class_index
from repro.core import fastpath
from repro.core.fastpath import REPLAYED_ACTIONS
from repro.core.gcs_endpoint import GcsEndpoint

# Inserted after a genuine try_send write: a membership-state write that
# no claimed transition of the send chain performs.  mbrshp_view is
# written only by _eff_mbrshp_view, which try_send does not claim.
_ANCHOR = "        ep.last_sent = index\n"
_MUTATION = _ANCHOR + "        ep.mbrshp_view = view\n"


@pytest.fixture(scope="module")
def lane_checker():
    source = inspect.getsource(fastpath)
    targets = load_targets(("repro.core.fastpath",))
    index = make_class_index(targets)

    def check(text, replays=REPLAYED_ACTIONS):
        tree = ast.parse(text)
        (node,) = [
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "FastLane"
        ]
        return check_r6(
            index,
            module_name="repro.core.fastpath",
            path="<mutated>",
            class_node=node,
            replays=replays,
            endpoint_cls=GcsEndpoint,
        )

    return source, check


def test_shipped_fast_lane_is_clean(lane_checker):
    """Clean, also of R6.lane-state: the version counter and the peer set
    the lane builds are not end-point state."""
    source, check = lane_checker
    assert "self._version = ep._state_version" in source
    assert "self._peers = frozenset(" in source
    assert check(source) == []


def test_seeded_spurious_write_is_flagged(lane_checker):
    source, check = lane_checker
    assert source.count(_ANCHOR) == 1, "mutation anchor drifted"
    findings = check(source.replace(_ANCHOR, _MUTATION))
    assert [f.rule_id for f in findings] == ["R6.spurious-write"]
    (finding,) = findings
    assert "mbrshp_view" in finding.explanation
    assert "try_send" in finding.explanation


def _line_of(source, text):
    """The one source line containing ``text`` (located like _ANCHOR)."""
    (line,) = [n for n, row in enumerate(source.splitlines(), 1) if text in row]
    return line


def _spurious(findings, method):
    """(line, attribute) of every R6.spurious-write against ``method``."""
    return {
        (f.location.line, f.explanation.split("endpoint state '")[1].split("'")[0])
        for f in findings
        if f.rule_id == "R6.spurious-write" and f.location.obj == f"FastLane.{method}"
    }


def _narrowed(method, claims):
    return {**REPLAYED_ACTIONS, method: claims}


@pytest.mark.parametrize("method, claims, expected", [
    # the helper fallback, a local aliasing both the buffer lookup and
    # the helper's return, and a store through an end-point local
    ("try_receive", ("deliver",), {
        ("ep.buffer(src, announced)", "msgs"),
        ("log.put(index, payload)", "msgs"),
        ("ep.last_rcvd[src] = index", "last_rcvd"),
    }),
    # the same on the send side, and the view marker's store
    # (co_rfifo.send's, claimed by neither)
    ("try_send", ("deliver",), {
        ("ep.buffer(pid, view)", "msgs"),
        ("log.append(payload)", "msgs"),
        ("ep.view_msg[pid] = view", "view_msg"),
        ("ep.last_sent = index", "last_sent"),
    }),
    ("try_send", ("send",), {
        ("ep.view_msg[pid] = view", "view_msg"),
        ("ep.last_sent = index", "last_sent"),
        ("ep.last_dlvrd[pid] = index", "last_dlvrd"),
    }),
])
def test_narrowed_claims_flag_writes_through_every_alias_path(
    lane_checker, method, claims, expected
):
    source, check = lane_checker
    findings = check(source, replays=_narrowed(method, claims))
    assert _spurious(findings, method) == {
        (_line_of(source, text), attr) for text, attr in expected
    }


def _splice(source, anchor, line):
    """``source`` with ``line`` inserted after the one ``anchor`` line."""
    assert source.count(anchor) == 1, "splice anchor drifted"
    return source.replace(anchor, anchor + line)


def _lane_state(findings):
    """(method, line) of every R6.lane-state finding."""
    return {
        (f.location.obj, f.location.line)
        for f in findings if f.rule_id == "R6.lane-state"
    }


@pytest.mark.parametrize("method, anchor, cached", [
    # a store under a lane container: the item is a buffer of msgs
    ("try_receive", "        log.put(index, payload)\n",
     "        self._logs[src] = log\n"),
    # a cached reference to a live end-point dict, bound where the lane
    # proves steadiness and read by no replay body: a write check alone
    # never sees it
    ("_revalidate", "        self._peers = frozenset(view.members - {ep.pid})\n",
     "        self._cache = ep.last_rcvd\n"),
    # a view object the lane would keep across a view change
    ("_revalidate", "        self._peers = frozenset(view.members - {ep.pid})\n",
     "        self._view = view\n"),
    # an item appended to a lane list
    ("try_send", "        log.append(payload)\n",
     "        self._seen.append(ep.last_dlvrd)\n"),
], ids=["lane-container-item", "cached-dict", "cached-view", "lane-list-item"])
def test_end_point_state_held_by_the_lane_is_flagged(lane_checker, method, anchor, cached):
    source, check = lane_checker
    findings = check(_splice(source, anchor, cached))
    line = _line_of(source, anchor.strip()) + 1
    assert _lane_state(findings) == {(f"FastLane.{method}", line)}


def test_unknown_replay_claim_is_flagged(lane_checker):
    source, check = lane_checker
    replays = dict(REPLAYED_ACTIONS)
    replays["try_send"] = ("send", "no.such.action", "deliver")
    findings = check(source, replays=replays)
    assert "R6.unknown-replay" in {f.rule_id for f in findings}


def test_replay_claims_are_complete_and_resolvable():
    """Pin REPLAYED_ACTIONS to the lane: every replay method is claimed
    and every claimed action resolves to a real effect chain."""
    lane_methods = {
        name for name, _ in inspect.getmembers(
            fastpath.FastLane, predicate=inspect.isfunction
        ) if name.startswith("try_")
    }
    assert lane_methods == set(REPLAYED_ACTIONS)
    for method, actions in REPLAYED_ACTIONS.items():
        assert actions, f"{method} claims no transitions"
        for action in actions:
            suffix = action.replace(".", "_")
            assert hasattr(GcsEndpoint, f"_eff_{suffix}"), (
                f"{method} claims {action!r} but the endpoint stack has "
                f"no _eff_{suffix} chain"
            )
