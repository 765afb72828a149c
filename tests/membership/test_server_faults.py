"""The server fault domain: crash, recovery, durable watermarks.

The paper's Section 8 assumes membership servers "never crash and never
forget".  These tests exercise the machinery that *relaxes* that
assumption - the tier-owned :class:`WatermarkStore` floors and the
rehoming of a crashed server's clients - at the tier level, over a
synchronous loopback link.
"""


import pytest

from repro.checking.events import GcsTrace, MbrshpFormEvent
from repro.links import LinkCore
from repro.membership import MembershipTier
from repro.membership.state import WatermarkStore


class LoopbackLink:
    """Buffering TierLink: fire-and-forget send, FIFO drain."""

    def __init__(self):
        self.handlers = {}
        self.inboxes = {}
        self.queue = []

    def attach(self, sid, handler):
        self.handlers[sid] = handler

    def send(self, src, targets, message):
        self.queue.extend((src, dst, message) for dst in targets)

    def step(self):
        src, dst, message = self.queue.pop(0)
        if dst in self.handlers:
            self.handlers[dst]([(src, [message])])
        else:
            self.inboxes.setdefault(dst, []).append(message)

    def drain(self):
        while self.queue:
            self.step()


class Driver:
    def __init__(self, clients=("a", "b", "c"), servers=2, **tier_kwargs):
        self.link = LoopbackLink()
        self.tier = MembershipTier(self.link, servers=servers, links=LinkCore(), **tier_kwargs)
        for pid in clients:
            self.tier.add_client(pid)
        self.tier.start()
        self.link.drain()

    def do(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        self.link.drain()
        return result


# ----------------------------------------------------------------------
# WatermarkStore values
# ----------------------------------------------------------------------


def test_watermark_store_dict_roundtrip():
    store = WatermarkStore()
    store.observe(5, 11)
    store.observe(3, 9)  # floors only rise
    store.observe_group("chat", 4)
    store.observe_group("chat", 2)
    store.observe_group("audit", 7)
    assert store.round_floor() == 5
    assert store.counter_floor() == 11
    # per-group floors: independent of the default group's and of each other
    assert store.counter_floor("chat") == 4
    assert store.counter_floor("audit") == 7 and store.counter_floor("nobody") == 0
    assert WatermarkStore().counter_floor("chat") == 0


# ----------------------------------------------------------------------
# crash / recover at the tier
# ----------------------------------------------------------------------


def test_crash_rehomes_clients_and_persists_snapshot():
    driver = Driver(clients=("a", "b", "c", "d"), servers=2)
    tier = driver.tier
    sid = driver.do(tier.crash_server)
    assert tier.servers[sid].crashed
    # Its clients failed over: the survivor re-forms the full view.
    view = tier.views_formed[-1]
    assert view.members == {"a", "b", "c", "d"}
    assert tier.clients_of(tier.alive_servers()) == {"a", "b", "c", "d"}


def test_last_alive_server_cannot_crash():
    driver = Driver(servers=2)
    driver.do(driver.tier.crash_server)
    with pytest.raises(ValueError, match="last alive server"):
        driver.tier.crash_server()


def test_crashed_server_says_and_hears_nothing():
    driver = Driver(servers=2)
    tier = driver.tier
    sid = driver.do(tier.crash_server)
    dead = tier.servers[sid]
    rounds = dead.rounds_started
    dead.on_message("srv:0", object())  # dropped, not an error
    dead.activate(tier.servers)
    assert dead.rounds_started == rounds


def test_recovery_rejoins_without_forking():
    driver = Driver(clients=("a", "b", "c"), servers=3)
    tier = driver.tier
    sid = driver.do(tier.crash_server)
    pre_crash = tier.watermark()
    # Life goes on without the dead server.
    driver.do(tier.set_members, ["a", "b"])
    driver.do(tier.set_members, ["a", "b", "c"])
    driver.do(tier.recover_server, sid)
    server = tier.servers[sid]
    assert not server.crashed
    # Floored by the durable store: its first new round exceeds every
    # pre-crash round, and it can never issue a counter a client saw.
    assert server.round >= tier.store.round_floor()
    assert server.max_counter >= tier.store.counter_floor() > pre_crash
    driver.do(tier.set_members, ["a", "b"])
    counters = [v.vid.counter for v in tier.views_formed]
    assert counters == sorted(set(counters)), "a recovery must not fork views"


def test_floors_cover_every_server_after_every_message():
    # The floors never lag a server: whenever a crash strikes, the round
    # it reached and the counter it formed are already durable - a
    # client-less co-former's formation included, before any notice.
    driver = Driver(clients=("a", "b"), servers=3)
    tier, link = driver.tier, driver.link

    def do(fn, *args):
        result = fn(*args)
        while link.queue:
            link.step()
            for server in tier.servers.values():
                assert server.round <= tier.store.round_floor(), server
                assert server.max_counter <= tier.store.counter_floor(), server
        return result

    for members in (["a"], ["a", "b"], ["b"], ["a", "b"]):
        do(tier.set_members, members)
    do(tier.recover_server, do(tier.crash_server))
    assert len(tier.views_formed) >= 6
    assert {s.max_counter for s in tier.servers.values()} == {tier.store.counter_floor()}


def test_watermark_survives_every_server_crashing():
    driver = Driver(clients=("a", "b"), servers=2)
    tier = driver.tier
    driver.do(tier.set_members, ["a"])
    high = tier.watermark()
    driver.do(tier.crash_server)
    # The live server's memory is irrelevant: the floor is durable.
    assert tier.store.counter_floor() >= high
    assert tier.watermark() >= high


def test_clientless_coformer_snapshot_is_persisted():
    # Three servers, two clients: one server forms views it serves no
    # client in.  Durability must cover it anyway (a recovery after all
    # its peers crash must still know the watermarks).
    driver = Driver(clients=("a", "b"), servers=3)
    tier = driver.tier
    clientless = [s for s in tier.servers.values() if not s.local_clients]
    assert clientless, "expected at least one client-less server"
    for server in clientless:
        assert server.round <= tier.store.round_floor()
        assert server.max_counter <= tier.store.counter_floor()


# ----------------------------------------------------------------------
# formation trace events (the rules' raw material)
# ----------------------------------------------------------------------


def test_formation_events_cover_every_coformer():
    trace = GcsTrace()
    driver = Driver(clients=("a", "b"), servers=2, trace=trace)
    formations = trace.of_type(MbrshpFormEvent)
    view = driver.tier.views_formed[-1]
    assert {e.proc for e in formations} == set(driver.tier.servers)
    assert all(e.view == view for e in formations)


def test_origin_formation_counters_strictly_increase():
    trace = GcsTrace()
    driver = Driver(clients=("a", "b", "c"), servers=2, trace=trace)
    tier = driver.tier
    sid = driver.do(tier.crash_server)
    driver.do(tier.set_members, ["a", "b"])
    driver.do(tier.recover_server, sid)
    driver.do(tier.set_members, ["a", "b", "c"])
    by_origin = {}
    for event in trace.of_type(MbrshpFormEvent):
        vid = event.view.vid
        if event.proc != vid.origin:
            continue
        assert vid.counter > by_origin.get(vid.origin, 0)
        by_origin[vid.origin] = vid.counter
    assert by_origin, "expected at least one origin formation"
