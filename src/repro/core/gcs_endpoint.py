"""The complete GCS end-point: adding Self Delivery, Figure 11.

``GcsEndpoint`` is the child of :class:`VsRfifoTsEndpoint` that realises
the paper's full service, GCS_p = VS_RFIFO+TS+SD_p.  To deliver all of
the application's own messages before each view change - in a live way -
the end-point must *block* the application: after the first
``start_change`` in a view it issues ``block`` and waits for ``block_ok``
before sending its synchronization message.  The cut it then sends
commits to every message the (now silent) application sent in the current
view, so Self Delivery follows from Virtual Synchrony.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro.core.messages import SyncMsg, WireMessage
from repro.core.vs_endpoint import VsRfifoTsEndpoint
from repro.ioa import ActionKind
from repro.spec.client import BlockStatus
from repro.types import ProcessId, View


class GcsEndpoint(VsRfifoTsEndpoint):
    """GCS_p = VS_RFIFO+TS+SD_p MODIFIES VS_RFIFO+TS_p (Figure 11)."""

    SIGNATURE = {
        "block_ok": ActionKind.INPUT,  # (p,) new
        "block": ActionKind.OUTPUT,  # (p,) new
        "view": ActionKind.OUTPUT,  # modified (same parameters)
    }

    def _state(self) -> None:
        self.block_status = BlockStatus.UNBLOCKED

    # ------------------------------------------------------------------
    # OUTPUT block_p()
    # ------------------------------------------------------------------

    def _pre_block(self, p: ProcessId) -> bool:
        return self.start_change is not None and self.block_status is BlockStatus.UNBLOCKED

    def _eff_block(self, p: ProcessId) -> None:
        self.block_status = BlockStatus.REQUESTED

    def _candidates_block(self) -> Iterable[Tuple[ProcessId]]:
        if self.start_change is not None and self.block_status is BlockStatus.UNBLOCKED:
            yield (self.pid,)

    # ------------------------------------------------------------------
    # INPUT block_ok_p()
    # ------------------------------------------------------------------

    def _eff_block_ok(self, p: ProcessId) -> None:
        self.block_status = BlockStatus.BLOCKED

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send_p - sync messages wait for the block
    # ------------------------------------------------------------------

    def _sync_common_ready(self) -> bool:
        # Both sync variants wait for the application to acknowledge the
        # block; the compact variant carries no cut but still marks the
        # point after which this end-point sends nothing new in the view.
        return super()._sync_common_ready() and self.block_status is BlockStatus.BLOCKED

    def _pre_co_rfifo_send(self, p: ProcessId, targets: FrozenSet[ProcessId], m: WireMessage) -> bool:
        if isinstance(m, SyncMsg):
            return self.block_status is BlockStatus.BLOCKED
        return True

    # ------------------------------------------------------------------
    # OUTPUT view_p(v, T) - unblock the application
    # ------------------------------------------------------------------

    def _eff_view(self, p: ProcessId, v: View, T: FrozenSet[ProcessId]) -> None:
        self.block_status = BlockStatus.UNBLOCKED
