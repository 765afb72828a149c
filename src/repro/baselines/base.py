"""Baseline: sequential virtual synchrony (no parallel round).

``SequentialVsEndpoint`` is the paper's end-point with the *traditional*
timing the paper improves upon: the synchronization round starts only
**after** the membership view answering the current ``start_change`` has
arrived.  The paper's contribution is precisely avoiding this
serialisation, so this end-point is the ablation baseline for the
parallelism experiments (E1/E3).

It is a child of :class:`~repro.core.gcs_endpoint.GcsEndpoint` in the
inheritance construct of [26] that only adds one precondition conjunct
to ``block`` and to the sync sends.  Everything else - the cid-tagged
syncs matched through the view's ``startId`` map, the cut, the
transitional set, the delivery limit, forwarding, view GC and the
Figure 12 block / ``block_ok`` face - is inherited, and with it the
paper's safety proofs.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.gcs_endpoint import GcsEndpoint
from repro.types import ProcessId


class SequentialVsEndpoint(GcsEndpoint):
    """GCS_p with the sync round serialised after the membership round."""

    def view_arrived(self) -> bool:
        """The membership view answering the current start_change is here."""
        change = self.start_change
        return change is not None and self.mbrshp_view.start_ids.get(self.pid) == change.cid

    # ------------------------------------------------------------------
    # OUTPUT block_p() - requested once the new view is known
    # ------------------------------------------------------------------

    def _pre_block(self, p: ProcessId) -> bool:
        return self.view_arrived()

    def _candidates_block(self) -> Iterable[Tuple[ProcessId]]:
        if self.view_arrived():
            yield from super()._candidates_block()

    # ------------------------------------------------------------------
    # OUTPUT co_rfifo.send_p - syncs wait for the membership view
    # ------------------------------------------------------------------

    def _sync_common_ready(self) -> bool:
        return super()._sync_common_ready() and self.view_arrived()
