"""Wire protocol of the membership service (server-server, server-client).

The client-facing notices realise the MBRSHP interface of Figure 2;
the server-server :class:`ServerProposal` realises the one-round
agreement in the style of the paper's companion membership service [27]:
each server proposes its local clients, their fresh start_change
identifiers, and its view-counter watermark, for one *configuration* (the
set of servers it believes reachable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet

from repro._collections import frozendict
from repro.types import ProcessId, StartChangeId, View

# Servers are network processes too; by convention their identifiers are
# prefixed so they never collide with client identifiers.
SERVER_PREFIX = "srv:"


def server_id(name: str) -> ProcessId:
    return name if name.startswith(SERVER_PREFIX) else SERVER_PREFIX + name


@dataclass(frozen=True)
class StartChangeNotice:
    """MBRSHP.start_change_p(cid, set), addressed to ``client``."""

    client: ProcessId
    cid: StartChangeId
    members: FrozenSet[ProcessId]


@dataclass(frozen=True)
class ViewNotice:
    """MBRSHP.view_p(v), addressed to ``client``."""

    client: ProcessId
    view: View


@dataclass(frozen=True)
class GroupEnvelope:
    """A group-tagged wire message: a named group's traffic on a
    process's one transport, and its notices on its owning server's link."""

    group: str
    message: Any


@dataclass(frozen=True)
class ServerProposal:
    """One server's contribution to a membership round.

    ``config`` is the proposing server's reachable-server set; a view can
    only form from proposals that agree on the configuration.  ``cids``
    are the start_change identifiers the proposer handed to its local
    clients for this attempt; the union of all proposals' ``cids`` maps
    become the view's ``startId`` function - the paper's key idea carried
    through the membership substrate.
    """

    server: ProcessId
    attempt: int
    config: FrozenSet[ProcessId]
    local_clients: FrozenSet[ProcessId]
    cids: frozendict  # client -> StartChangeId
    estimate: FrozenSet[ProcessId]  # the member set announced to clients
    max_counter: int  # view-counter watermark
