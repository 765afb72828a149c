"""Unit tests for the membership server protocol."""

from typing import Any, Dict, List, Tuple

import pytest

from repro.membership.protocol import ServerProposal, StartChangeNotice, ViewNotice
from repro.membership.server import MembershipServer


class Fabric:
    """Zero-latency loopback fabric for servers and client mailboxes."""

    def __init__(self):
        self.servers: Dict[str, MembershipServer] = {}
        self.client_mail: Dict[str, List[Any]] = {}
        self.in_flight: List[Tuple[str, str, Any]] = []
        self.online = True

    def add_server(self, sid: str, clients=()):
        server = MembershipServer(sid, send=lambda dst, m, s=sid: self.send(s, dst, m), clients=clients)
        self.servers[sid] = server
        return server

    def send(self, src: str, dst: str, message: Any) -> None:
        if dst in self.servers:
            self.in_flight.append((src, dst, message))
        else:
            self.client_mail.setdefault(dst, []).append(message)

    def pump(self, rounds: int = 50):
        for _ in range(rounds):
            if not self.in_flight:
                return
            batch, self.in_flight = self.in_flight, []
            for src, dst, message in batch:
                self.servers[dst].on_message(src, message)

    def bootstrap(self):
        sids = frozenset(self.servers)
        for server in self.servers.values():
            server.activate(sids)
        self.pump()

    def views_of(self, client: str) -> List[Any]:
        return [m.view for m in self.client_mail.get(client, []) if isinstance(m, ViewNotice)]

    def notices_of(self, client: str) -> List[Any]:
        return list(self.client_mail.get(client, []))


@pytest.fixture
def fabric():
    return Fabric()


def test_single_server_forms_view_in_one_round(fabric):
    server = fabric.add_server("srv:0", clients=["a", "b"])
    fabric.bootstrap()
    assert server.rounds_started == 1
    views = fabric.views_of("a")
    assert len(views) == 1
    assert views[0].members == {"a", "b"}


def test_start_change_precedes_view(fabric):
    fabric.add_server("srv:0", clients=["a"])
    fabric.bootstrap()
    notices = fabric.notices_of("a")
    assert isinstance(notices[0], StartChangeNotice)
    assert isinstance(notices[-1], ViewNotice)


def test_view_start_ids_match_notices(fabric):
    fabric.add_server("srv:0", clients=["a", "b"])
    fabric.bootstrap()
    last_cid = {}
    for notice in fabric.notices_of("a"):
        if isinstance(notice, StartChangeNotice):
            last_cid[notice.client] = notice.cid
        else:
            assert notice.view.start_id("a") == last_cid["a"]


def test_two_servers_converge_to_identical_view(fabric):
    fabric.add_server("srv:0", clients=["a"])
    fabric.add_server("srv:1", clients=["b"])
    fabric.bootstrap()
    va = fabric.views_of("a")[-1]
    vb = fabric.views_of("b")[-1]
    assert va == vb  # identical triples, including startId maps
    assert va.members == {"a", "b"}


def test_cold_start_takes_at_most_two_rounds(fabric):
    fabric.add_server("srv:0", clients=["a"])
    fabric.add_server("srv:1", clients=["b"])
    fabric.bootstrap()
    assert all(s.rounds_started <= 2 for s in fabric.servers.values())


def test_warm_registry_single_round(fabric):
    s0 = fabric.add_server("srv:0", clients=["a"])
    fabric.add_server("srv:1", clients=["b"])
    fabric.bootstrap()
    before = {sid: s.rounds_started for sid, s in fabric.servers.items()}
    s0.add_client("c")
    fabric.pump()
    after = {sid: s.rounds_started for sid, s in fabric.servers.items()}
    # one extra round each: registries were warm
    assert all(after[sid] == before[sid] + 1 for sid in after)
    assert fabric.views_of("c")[-1].members == {"a", "b", "c"}


def test_client_crash_removes_from_next_view(fabric):
    server = fabric.add_server("srv:0", clients=["a", "b"])
    fabric.bootstrap()
    server.client_crashed("b")
    fabric.pump()
    assert fabric.views_of("a")[-1].members == {"a"}


def test_client_recovery_rejoins(fabric):
    server = fabric.add_server("srv:0", clients=["a", "b"])
    fabric.bootstrap()
    server.client_crashed("b")
    fabric.pump()
    server.client_recovered("b")
    fabric.pump()
    assert fabric.views_of("a")[-1].members == {"a", "b"}


def test_cids_monotonic_per_client_across_views(fabric):
    server = fabric.add_server("srv:0", clients=["a"])
    fabric.bootstrap()
    server.add_client("b")
    fabric.pump()
    server.remove_client("b")
    fabric.pump()
    cids = [n.cid for n in fabric.notices_of("a") if isinstance(n, StartChangeNotice)]
    assert cids == sorted(cids)
    assert len(set(cids)) == len(cids)


def test_view_counters_strictly_increase(fabric):
    server = fabric.add_server("srv:0", clients=["a"])
    fabric.bootstrap()
    server.add_client("b")
    fabric.pump()
    counters = [v.vid.counter for v in fabric.views_of("a")]
    assert counters == sorted(counters)
    assert len(set(counters)) == len(counters)


def test_shrunk_reachability_forms_partition_view(fabric):
    s0 = fabric.add_server("srv:0", clients=["a"])
    fabric.add_server("srv:1", clients=["b"])
    fabric.bootstrap()
    fabric.online = False
    s0.set_reachable({"srv:0"})
    # messages to srv:1 would be dropped; s0 is alone and forms {a}
    assert fabric.views_of("a")[-1].members == {"a"}


def test_stale_proposals_ignored(fabric):
    s0 = fabric.add_server("srv:0", clients=["a"])
    fabric.bootstrap()
    stale = ServerProposal(
        server="srv:9",
        attempt=1,
        config=frozenset({"srv:0", "srv:9"}),
        local_clients=frozenset({"z"}),
        cids={},
        estimate=frozenset({"z"}),
        max_counter=0,
    )
    s0.on_message("srv:9", stale)  # unknown server: must be ignored
    assert "srv:9" not in s0._proposals


def test_inactive_server_defers_rounds():
    server = MembershipServer("srv:0", send=lambda dst, m: None)
    server.add_client("a")
    server.add_client("b")
    assert server.rounds_started == 0


def test_crash_hands_clients_over_in_the_snapshot():
    server = MembershipServer("srv:0", send=lambda dst, m: None, clients=("a", "b"))
    server.client_crashed("b")
    assert server.crash() == (("a", "b"), ("b",))
    assert server.crashed and not server.local_clients and not server.active_clients()


def test_inherited_clients_keep_counter_floor_and_crashed_flags():
    server = MembershipServer("srv:1", send=lambda dst, m: None, initial_counter=2)
    assert not server.inherit_clients((), counter_floor=9)
    assert server.max_counter == 2  # nothing inherited: no floor to honour
    assert server.inherit_clients(("a", "b"), counter_floor=9, crashed={"b", "z"})
    assert server.max_counter == 9
    assert server.local_clients == {"a", "b"}
    assert server.active_clients() == {"a"}  # moving b did not resurrect it
    assert server.rounds_started == 0  # the caller changes topology next
