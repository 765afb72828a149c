"""Baseline: virtual synchrony with identifier pre-agreement (two rounds).

``TwoRoundVsEndpoint`` models the prior-art algorithms the paper
contrasts itself with (e.g. [7, 22]): after the membership view arrives,
the processes must first *agree on a common identifier* for the
synchronization exchange - one additional communication round in which a
coordinator (the least member of the new view) broadcasts the identifier
- and only then exchange synchronization messages.

The syncs themselves stay the paper's cid-tagged ``SyncMsg``: the agreed
identifier gates the sync round (one more precondition conjunct) rather
than tagging it.  Reconfiguration therefore costs the membership round
**plus two** message exchanges, versus plus-one for the sequential
baseline and plus-zero (overlapped) for the paper's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Tuple

from repro.baselines.base import SequentialVsEndpoint
from repro.core.messages import WireMessage
from repro.types import ProcessId, ViewId


@dataclass(frozen=True)
class ProposeIdMsg(WireMessage):
    """Round one: the coordinator proposes the agreed identifier."""

    view_id: ViewId
    gid: Hashable


class TwoRoundVsEndpoint(SequentialVsEndpoint):
    """Identifier pre-agreement, then the synchronization round."""

    def _state(self) -> None:
        # agreed_gid[view_id]: the identifier the coordinator announced.
        self.agreed_gid: Dict[ViewId, Hashable] = {}

    def _propose_ready(self) -> bool:
        view = self.mbrshp_view
        return (
            self.view_arrived()
            and self.pid == min(view.members)
            and view.vid not in self.agreed_gid
            and view.members <= self.reliable_set
        )

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send - the identifier proposal (round one), and
    # syncs wait for the identifier of the membership view
    # ------------------------------------------------------------------

    def _sync_common_ready(self) -> bool:
        return super()._sync_common_ready() and self.mbrshp_view.vid in self.agreed_gid

    def _pre_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> bool:
        if isinstance(m, ProposeIdMsg):
            view = self.mbrshp_view
            return (
                self._propose_ready()
                and m.view_id == view.vid
                and frozenset(targets) == view.members - {self.pid}
            )
        return True

    def _eff_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> None:
        if isinstance(m, ProposeIdMsg):
            self.agreed_gid[m.view_id] = m.gid

    def _candidates_co_rfifo_send(self) -> Iterable[Tuple[ProcessId, FrozenSet[ProcessId], WireMessage]]:
        if self._propose_ready():
            view = self.mbrshp_view
            gid = ("gid", view.vid, self.pid)
            yield (self.pid, frozenset(view.members - {self.pid}), ProposeIdMsg(view.vid, gid))
        yield from super()._candidates_co_rfifo_send()

    # ------------------------------------------------------------------
    # INPUT co_rfifo.deliver - learn the agreed identifier
    # ------------------------------------------------------------------

    def _eff_co_rfifo_deliver(self, q: ProcessId, p: ProcessId, m: WireMessage) -> None:
        if isinstance(m, ProposeIdMsg):
            self.agreed_gid.setdefault(m.view_id, m.gid)
