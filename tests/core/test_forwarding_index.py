"""The reconfiguration index against its oracles.

``VsRfifoTsEndpoint`` answers "who lags behind my cut", "what is T" and
"what is the agreed cut" from an index its effects maintain; the
forwarding strategies iterate that index.  Here a seeded fuzzer drives
single end-points through random interleavings of every input and
output that touches the index and, after every step, holds

* ``strategy.candidates`` to ``strategy.naive_candidates`` - the full
  rescan, same candidates in the same order - for both strategies,
* ``strategy.allows`` to membership in that list,
* the indexed transitional set / agreed cut / per-view latest syncs to
  rescans written out below, and
* ``enabled_actions`` to ``naive_enabled_actions``,
* the delivery index (``deliverable``, on ``WvRfifoEndpoint``) to the
  buffer rescan ``naive_candidates_deliver``, and the widened reliable
  set to the union it caches.

Two work-count guards then show on the simulator that a settled view
change touches O(n) peer cuts per end-point (the rescans touched
O(evaluations x n x n)), and that its delivery candidates read O(n)
buffers per end-point (the rescan read O(evaluations x n)).  CI runs
this module under PYTHONHASHSEED 0 and 1.  The fuzzer draws over sets
in sorted order, so the interleavings it reaches - and the coverage it
asserts - do not depend on the hash seed.
"""

import random
from collections import Counter

import pytest

from repro._collections import MessageLog, frozendict
from repro.core.forwarding import MinCopiesStrategy, SimpleStrategy
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg, FwdMsg, SyncMsg, ViewMsg
from repro.core.vs_endpoint import VsRfifoTsEndpoint
from repro.core.wv_endpoint import WvRfifoEndpoint, naive_candidates_deliver
from repro.ioa import Action
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from repro.types import View, ViewId, initial_view

PEERS = ["b", "c", "d", "e"]
EVERYONE = ["a"] + PEERS
STRATEGIES = (SimpleStrategy(), MinCopiesStrategy())


# ---------------------------------------------------------------------------
# rescans the index is held to
# ---------------------------------------------------------------------------


def scanned_transitional(ep):
    """(T or None, agreed cut) for ep.mbrshp_view, straight from sync_msg."""
    v, current = ep.mbrshp_view, ep.current_view
    members, agreed, missing = [], {}, False
    for q in v.members & current.members:
        sync = ep.sync_msg_for(q, v.start_id(q))
        if sync is None:
            missing = True
        elif sync.view == current:
            members.append(q)
            for origin, committed in sync.cut.items():
                agreed[origin] = max(agreed.get(origin, 0), committed)
    return (None if missing else frozenset(members)), agreed


def scanned_limit(ep, q):
    """Figure 10's delivery limit for ``q``, straight from sync_msg."""
    change = ep.start_change
    own = ep.own_sync_msg()
    if change is None or own is None:
        return None
    if ep.mbrshp_view.start_ids.get(ep.pid) != change.cid:
        return own.cut.get(q, 0)
    return scanned_transitional(ep)[1].get(q, 0)


def check_index(ep):
    assert ep.enabled_actions() == ep.naive_enabled_actions()
    if ep.crashed:
        return
    current = ep.current_view
    naive_deliver = list(naive_candidates_deliver(ep))
    assert ep.deliverable == {q for _p, q, _m in naive_deliver}
    assert list(WvRfifoEndpoint._candidates_deliver(ep)) == naive_deliver  # order included
    change = ep.start_change
    assert ep.widened == (None if change is None else current.members | change.members)
    assert ep.view_syncs == dict(ep.latest_sync_msgs_in_view(current))
    expected_t, agreed = scanned_transitional(ep)
    assert ep.transitional_set_for(ep.mbrshp_view) == expected_t
    assert {q: n for q, n in ep.agreed_cut.items() if n} == {q: n for q, n in agreed.items() if n}
    for q in EVERYONE:
        assert ep._delivery_limit(q) == scanned_limit(ep, q)
    for strategy in STRATEGIES:
        naive = list(strategy.naive_candidates(ep))
        assert list(strategy.candidates(ep)) == naive  # order included
        proposed = set(naive)
        for probe in naive:
            assert strategy.allows(ep, *probe), probe
        target_sets = [frozenset({q}) for q in PEERS] + [frozenset(), frozenset(PEERS[:2])]
        target_sets += [targets for targets, _o, _v, _i in naive[:2]]
        for targets in target_sets:
            for origin in EVERYONE:
                for index in range(0, 5):
                    probe = (targets, origin, current, index)
                    assert strategy.allows(ep, *probe) == (probe in proposed), probe


# ---------------------------------------------------------------------------
# the fuzzer
# ---------------------------------------------------------------------------


class Fuzzer:
    """Random but plausible inputs for end-point ``a`` among ``PEERS``."""

    def __init__(self, seed, endpoint):
        self.rng = random.Random(seed)
        self.ep = endpoint
        self.cids = Counter()  # last cid handed out per process
        self.vid = 0
        self.views = [initial_view("a")]
        self.blocked = False
        self.seen = Counter()

    # -- helpers ----------------------------------------------------------

    def deliver(self, q, m):
        self.ep.apply(Action("co_rfifo.deliver", (q, "a", m)))

    def some_view(self):
        ep = self.ep
        return self.rng.choice([ep.current_view] * 3 + [ep.mbrshp_view] + self.views[-3:])

    def prefix(self, origin, view):
        log = self.ep.peek_buffer(origin, view)
        return log.longest_prefix() if log is not None else 0

    @staticmethod
    def payload(origin, view, index):
        return f"{origin}/{view.vid.counter}/{index}"  # one payload per slot (Inv. 6.6)

    # -- steps ------------------------------------------------------------

    def start_change(self):
        self.cids["a"] += 1
        members = {"a"} | {q for q in PEERS if self.rng.random() < 0.7}
        self.ep.apply(Action("mbrshp.start_change", ("a", self.cids["a"], frozenset(members))))

    def membership_view(self):
        ep = self.ep
        change = ep.start_change
        pool = change.members if change is not None else frozenset(EVERYONE)
        members = {"a"} | {q for q in sorted(pool) if self.rng.random() < 0.8}
        start_ids = {}
        for q in sorted(members - {"a"}):
            # The last sync q sent, or the one it is about to send.
            start_ids[q] = self.cids[q] + self.rng.choice([0, 0, 1])
        start_ids["a"] = self.cids["a"] - (1 if self.rng.random() < 0.15 else 0)
        self.vid += 1
        view = View(ViewId(self.vid), frozenset(members), frozendict(start_ids))
        self.views.append(view)
        ep.apply(Action("mbrshp.view", ("a", view)))

    def peer_sync(self):
        q = self.rng.choice(PEERS)
        self.cids[q] += 1
        if self.rng.random() < 0.15:
            return self.deliver(q, SyncMsg(self.cids[q], None, None))  # Section 5.2.4
        view = self.some_view()
        cut = {}
        for origin in sorted(view.members):
            committed = max(0, self.prefix(origin, view) + self.rng.choice([-2, -1, 0, 0, 0, 1]))
            if committed or self.rng.random() < 0.3:
                cut[origin] = committed
        self.deliver(q, SyncMsg(self.cids[q], view, frozendict(cut)))

    def peer_view_msg(self):
        self.deliver(self.rng.choice(PEERS), ViewMsg(self.some_view()))

    def peer_app(self):
        q = self.rng.choice(PEERS)
        view = self.ep.view_msg_of(q)
        for _ in range(self.rng.randint(1, 3)):
            self.deliver(q, AppMsg(self.payload(q, view, self.ep.rcvd(q) + 1)))

    def peer_fwd(self):
        q = self.rng.choice(PEERS)
        view = self.some_view()
        origin = self.rng.choice(sorted(view.members))
        index = self.prefix(origin, view) + self.rng.choice([1, 1, 2, 3])  # holes
        self.deliver(q, FwdMsg(origin, view, index, self.payload(origin, view, index)))

    def app_send(self):
        if not self.blocked:
            ep = self.ep
            index = len(ep.peek_buffer("a", ep.current_view) or ()) + 1
            ep.apply(Action("send", ("a", self.payload("a", ep.current_view, index))))

    def whole_change(self):
        """A complete change out of the current view, stopped where the
        transitional set is known and members of it still lag: traffic in
        the view, start_change, own sync, the stayers' syncs, the view."""
        ep = self.ep
        current = ep.current_view
        peers = sorted(current.members - {"a"})
        stay = [q for q in peers if self.rng.random() < 0.7]
        for q in peers:
            self.deliver(q, ViewMsg(current))
            for _ in range(self.rng.randint(0, 3)):
                self.deliver(q, AppMsg(self.payload(q, current, ep.rcvd(q) + 1)))
            check_index(ep)
        self.cids["a"] += 1
        ep.apply(Action("mbrshp.start_change", ("a", self.cids["a"], frozenset(EVERYONE))))
        self.act(drain=True, stop_before="view")
        for q in stay:
            self.cids[q] += 1
            cut = {o: max(0, self.prefix(o, current) - self.rng.randint(0, 2)) for o in sorted(current.members)}
            self.deliver(q, SyncMsg(self.cids[q], current, frozendict(cut)))
            check_index(ep)
        self.vid += 1
        joiners = [q for q in PEERS if q not in current.members and self.rng.random() < 0.6]
        start_ids = {q: self.cids[q] for q in ["a"] + stay + joiners}
        self.views.append(View(ViewId(self.vid), frozenset(start_ids), frozendict(start_ids)))
        ep.apply(Action("mbrshp.view", ("a", self.views[-1])))
        check_index(ep)
        if self.rng.random() < 0.6:
            self.act(drain=True)  # what a runner would do next

    def act(self, drain=None, stop_before=None):
        """Run one enabled action, or drain (forwards, syncs, deliveries, view)."""
        ep = self.ep
        if drain is None:
            drain = self.rng.random() < 0.5
        while True:
            enabled = [a for a in ep.enabled_actions() if a.name != stop_before]
            if not enabled:
                return
            action = self.rng.choice(enabled)
            ep.apply(action)
            self.seen[type(action.params[-1]).__name__ if action.name == "co_rfifo.send" else action.name] += 1
            if action.name == "block":
                self.blocked = True
                ep.apply(Action("block_ok", ("a",)))
            elif action.name == "view":
                self.blocked = False
            check_index(ep)
            if not drain:
                return

    def crash_recover(self):
        ep = self.ep
        ep.apply(Action("crash", ("a",)))
        check_index(ep)
        self.peer_sync()  # inputs are ignored while crashed
        ep.apply(Action("recover", ("a",)))
        self.blocked = False
        self.views.append(initial_view("a"))

    STEPS = (
        (start_change, 8), (membership_view, 8), (peer_sync, 24), (peer_view_msg, 10),
        (peer_app, 14), (peer_fwd, 8), (app_send, 6), (act, 22), (crash_recover, 1),
        (whole_change, 5),
    )

    def run(self, steps):
        population = [step for step, _weight in self.STEPS]
        weights = [weight for _step, weight in self.STEPS]
        for _ in range(steps):
            self.rng.choices(population, weights)[0](self)
            check_index(self.ep)
        return self.seen


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize(
    "endpoint_cls, options",
    [
        (VsRfifoTsEndpoint, {"strict": True}),
        (GcsEndpoint, {"strict": True, "compact_syncs": True}),
        (GcsEndpoint, {"gc_views": True}),  # strict mode rejects GC by design
    ],
    ids=["vs-strict", "gcs-strict-compact", "gcs-gc"],
)
def test_index_matches_rescans_under_random_interleavings(endpoint_cls, options, strategy):
    seen = Counter()
    for seed in range(8):
        endpoint = endpoint_cls("a", forwarding=strategy, **options)
        seen += Fuzzer(seed, endpoint).run(120)
    # The interleavings reach what the index exists for (min-copies
    # forwards need a lagging member of T and an outsider's messages).
    forwards = 100 if strategy.name == "simple" else 5
    assert seen["view"] >= 20 and seen["SyncMsg"] >= 50 and seen["FwdMsg"] >= forwards, seen


def test_lagging_follows_the_own_cut_and_the_forwards_sent():
    """A superseding cid before the view arrives: nobody lags behind a cut
    not yet sent, the next own sync re-derives who does, and each forward
    sent advances the entry until it is gone."""
    ep = VsRfifoTsEndpoint("a", strict=True)

    def run(until=None):
        while True:
            enabled = ep.enabled_actions()
            if not enabled:
                return
            ep.apply(enabled[0])
            check_index(ep)
            if isinstance(enabled[0].params[-1], until or ()):
                return

    for payload in ("m1", "m2"):
        ep.apply(Action("send", ("a", payload)))
    run()
    ep.apply(Action("mbrshp.start_change", ("a", 1, frozenset("ab"))))
    run(until=SyncMsg)
    ep.apply(Action("co_rfifo.deliver", ("b", "a", SyncMsg(1, initial_view("a"), frozendict()))))
    assert ep.lagging == {"b": {"a": 1}}
    ep.apply(Action("mbrshp.start_change", ("a", 2, frozenset("abc"))))
    assert ep.lagging == {}
    check_index(ep)
    run(until=SyncMsg)
    assert ep.lagging == {"b": {"a": 1}}
    run(until=FwdMsg)
    assert ep.lagging == {"b": {"a": 2}}
    run(until=FwdMsg)
    assert ep.lagging == {} and len(ep.forwarded_set) == 2


# ---------------------------------------------------------------------------
# work-count guard: a settled view change is linear per end-point
# ---------------------------------------------------------------------------


class CountingCut(frozendict):
    """A cut that counts every examination, by whoever is running."""

    __slots__ = ()
    reads = Counter()
    running = [None]  # the pid whose end-point code is executing

    def _count(self):
        CountingCut.reads[CountingCut.running[0]] += 1

    def __eq__(self, other):
        self._count()
        return super().__eq__(other)

    __hash__ = frozendict.__hash__

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._count()
        return super().get(key, default)

    def items(self):
        self._count()
        return super().items()

    def __iter__(self):
        self._count()
        return super().__iter__()


def test_settled_view_change_touches_linearly_many_cuts(monkeypatch):
    n = 32
    pre_view_reads = []

    def running_as(method):
        def wrapper(self, *args, **kwargs):
            previous, CountingCut.running[0] = CountingCut.running[0], self.pid
            try:
                return method(self, *args, **kwargs)
            finally:
                CountingCut.running[0] = previous
        return wrapper

    def counted_pre_view(method):
        def wrapper(self, *args):
            before = sum(CountingCut.reads.values())
            try:
                return method(self, *args)
            finally:
                pre_view_reads.append(sum(CountingCut.reads.values()) - before)
        return wrapper

    original_sync_cut = VsRfifoTsEndpoint.sync_cut
    monkeypatch.setattr(VsRfifoTsEndpoint, "sync_cut", lambda self: CountingCut(original_sync_cut(self)))
    monkeypatch.setattr(VsRfifoTsEndpoint, "_pre_view", counted_pre_view(VsRfifoTsEndpoint._pre_view))
    monkeypatch.setattr(GcsEndpoint, "_ioa_chains", {}, raising=False)  # recompile with the wrapper
    for name in ("apply", "enabled_actions", "is_enabled"):
        monkeypatch.setattr(GcsEndpoint, name, running_as(getattr(GcsEndpoint, name)), raising=False)

    world = SimWorld(latency=ConstantLatency(1.0), fastpath=False)
    pids = [f"p{i:02d}" for i in range(n)]
    nodes = world.add_nodes(pids)
    world.start()
    world.settle()
    for node in nodes:  # settled load: every cut commits to every sender
        node.send(f"m-{node.pid}")
    world.settle()
    CountingCut.reads.clear()
    pre_view_reads.clear()
    world.oracle.reconfigure([pids[:-1]])  # one member leaves
    world.settle()
    assert all(node.current_view.members == frozenset(pids[:-1]) for node in nodes[:-1])
    assert CountingCut.reads, "the counting cut was never examined"
    # Per end-point: each peer cut is examined when it arrives (lagging),
    # when the view names it (agreed cut) - and a constant times more for
    # the own sync's precondition - never once per enabled-set evaluation.
    assert max(CountingCut.reads.values()) <= 4 * n, CountingCut.reads.most_common(3)
    # The view precondition reads the agreed cut; it rebuilds none.
    assert pre_view_reads and max(pre_view_reads) == 0


# ---------------------------------------------------------------------------
# work-count guard: quiet drains examine no buffers
# ---------------------------------------------------------------------------


class CountingLog(MessageLog):
    """A buffer that counts every examination made while a delivery
    candidate scan of ``running`` is executing."""

    __slots__ = ()
    reads = Counter()
    running = [None]

    def _count(self):
        if CountingLog.running[0] is not None:
            CountingLog.reads[CountingLog.running[0]] += 1

    def has(self, index):
        self._count()
        return super().has(index)

    def get(self, index):
        self._count()
        return super().get(index)


def test_settled_view_change_drains_examine_linearly_many_buffers(monkeypatch):
    n = 64
    evaluations = Counter()

    def counted(scan):
        # Count only inside the scan's own steps: the engine evaluates
        # each yielded candidate's precondition between them.
        def wrapper(self):
            evaluations[self.pid] += 1
            inner = scan(self)
            while True:
                CountingLog.running[0] = self.pid
                try:
                    candidate = next(inner, None)
                finally:
                    CountingLog.running[0] = None
                if candidate is None:
                    return
                yield candidate
        return wrapper

    monkeypatch.setattr("repro.core.wv_endpoint.MessageLog", CountingLog)
    scan = VsRfifoTsEndpoint._candidates_deliver  # the most-derived one: the whole scan
    monkeypatch.setattr(VsRfifoTsEndpoint, "_candidates_deliver", counted(scan))
    monkeypatch.setattr(GcsEndpoint, "_ioa_chains", {}, raising=False)  # recompile with the wrapper

    world = SimWorld(latency=ConstantLatency(1.0), fastpath=False)
    pids = [f"p{i:02d}" for i in range(n)]
    nodes = world.add_nodes(pids)
    world.start()
    world.settle()
    for node in nodes:  # settled load: every member holds a buffered log
        node.send(f"m-{node.pid}")
    world.settle()
    CountingLog.reads.clear()
    evaluations.clear()
    world.oracle.reconfigure([pids[:-1]])  # one member leaves
    world.settle()
    assert all(node.current_view.members == frozenset(pids[:-1]) for node in nodes[:-1])
    assert all(evaluations[pid] for pid in pids[:-1]), "some end-point never scanned"
    # Per end-point: the delivery candidates of the whole change read only
    # the buffers of ready senders - never every sender's buffer once per
    # drain before the view, as the rescan did (4,224 reads at n = 64).
    assert max(CountingLog.reads.values(), default=0) <= 4 * n, CountingLog.reads.most_common(3)
