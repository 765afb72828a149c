"""Hypothesis strategies for every type the wire schema carries."""

from __future__ import annotations

from hypothesis import strategies as st

from repro._collections import frozendict
from repro.chaos.faults import DuplicateCopy
from repro.core.messages import AckMsg, AppMsg, FwdMsg, SyncMsg, ViewMsg
from repro.links import MessageBatch
from repro.membership.protocol import (
    GroupEnvelope,
    ServerProposal,
    StartChangeNotice,
    ViewNotice,
)
from repro.scale.overlay import AggregatedSync, UpSync
from repro.types import View, ViewId

# Text a str can hold on the wire (no lone surrogates), and process ids
# (no NUL either: a view's member names are NUL-joined).
text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
pids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    min_size=1,
    max_size=5,
)
ints = st.one_of(
    st.integers(-(1 << 31), (1 << 31) - 1),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.integers(-(1 << 200), 1 << 200),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=False),
    text,
    st.binary(max_size=8),
)
view_ids = st.builds(ViewId, st.integers(0, (1 << 63) - 1), st.one_of(st.just(""), pids))


@st.composite
def views(draw) -> View:
    members = draw(st.frozensets(pids, min_size=1, max_size=5))
    ordered = draw(st.permutations(sorted(members)))
    start_ids = {member: draw(st.integers(0, 1 << 40)) for member in ordered}
    shape = draw(st.sampled_from(["aligned", "extra key", "huge id"]))
    if shape == "extra key":  # keys beyond the members: the frozendict layout
        start_ids[draw(pids.filter(lambda pid: pid not in members))] = 0
    elif shape == "huge id":  # no 64-bit integer: the frozendict layout
        start_ids[ordered[0]] = 1 << 70
    return View(draw(view_ids), members, frozendict(start_ids))


cuts = st.dictionaries(pids, st.integers(0, 1 << 20), max_size=5).map(frozendict)
member_sets = st.frozensets(pids, max_size=5)
values = st.recursive(
    st.one_of(scalars, views(), view_ids, cuts, member_sets, st.frozensets(ints, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(pids, children, max_size=3).map(frozendict),
    ),
    max_leaves=12,
)

syncs = st.one_of(
    st.builds(SyncMsg, st.integers(0, 1 << 20), views(), cuts),
    st.builds(SyncMsg, st.integers(0, 1 << 20), st.none(), st.none()),
)
messages = st.one_of(
    st.builds(AppMsg, values, st.one_of(st.none(), views()), st.one_of(st.none(), ints)),
    st.builds(AppMsg, ints, views(), st.integers(1, 1 << 20)),  # the steady-state record
    st.builds(ViewMsg, views()),
    st.builds(FwdMsg, pids, views(), st.integers(1, 1 << 20), values),
    syncs,
    st.builds(AckMsg, view_ids, cuts),
    st.builds(StartChangeNotice, pids, st.integers(0, 1 << 20), member_sets),
    st.builds(ViewNotice, pids, views()),
    st.builds(
        ServerProposal,
        pids,
        st.integers(0, 1 << 20),
        member_sets,
        member_sets,
        cuts,
        member_sets,
        st.integers(0, 1 << 20),
    ),
    st.builds(UpSync, pids, syncs),
    st.builds(
        AggregatedSync,
        st.lists(st.builds(UpSync, pids, syncs), max_size=3).map(
            lambda ups: MessageBatch(tuple(ups))
        ),
        st.booleans(),
    ),
)
wire_copies = st.one_of(messages, values, st.builds(DuplicateCopy, messages))
frames_of = st.one_of(
    wire_copies,
    st.builds(GroupEnvelope, pids, wire_copies),
    st.lists(wire_copies, min_size=2, max_size=4).map(lambda copies: MessageBatch(tuple(copies))),
)
