"""Virtually synchronous reliable FIFO multicast specification, Figure 5.

VS_RFIFO : SPEC is a *child* of WV_RFIFO : SPEC in the inheritance
construct of [26]: it adds the internal ``set_cut`` action which
non-deterministically fixes, per (old view, new view) pair, the vector of
last-delivered indices every process moving between the two views must
realise before delivering the new view.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.ioa import ActionKind
from repro.spec.self_delivery import SelfDeliverySpec
from repro.spec.wv_rfifo import WvRfifoSpec
from repro.types import Cut, ProcessId, View


class VsRfifoSpec(WvRfifoSpec):
    """VS_RFIFO : SPEC MODIFIES WV_RFIFO : SPEC (Figure 5)."""

    SIGNATURE = {
        # repro: allow[R3.missing-candidates] - trace-checked spec; the
        # implementation trace drives it, never enabled_actions().
        "view": ActionKind.OUTPUT,  # modifies wv_rfifo.view (same params)
        # repro: allow[R3.missing-candidates]
        "set_cut": ActionKind.INTERNAL,  # (v, v', c) new
    }

    def _state(self) -> None:
        # cut[(v, v')]: the agreed delivery cut for moving from v to v',
        # or absent (the paper's bottom) while not yet fixed.
        self.cut: Dict[Tuple[View, View], Cut] = {}

    # -- set_cut(v, v', c) -------------------------------------------------

    def _pre_set_cut(self, v: View, v_new: View, c: Cut) -> bool:
        return (v, v_new) not in self.cut

    def _eff_set_cut(self, v: View, v_new: View, c: Cut) -> None:
        self.cut[(v, v_new)] = c

    # -- view_p(v) restriction ------------------------------------------------

    def _pre_view(self, p: ProcessId, v: View, T: Any = None) -> bool:
        key = (self.current_view[p], v)
        if key not in self.cut:
            return False
        cut = self.cut[key]
        return all(self.last_dlvrd[(q, p)] == cut.get(q, 0) for q in self.processes)


class FullSafetySpec(VsRfifoSpec, SelfDeliverySpec):
    """The conjunction of VS_RFIFO : SPEC and SELF : SPEC.

    Both are children of WV_RFIFO : SPEC; composing their transition
    restrictions (this class's MRO conjoins every ``view`` precondition)
    yields the complete safety specification the GCS automaton must
    satisfy, except for TRANS_SET : SPEC which is stated as a separate
    automaton (Figure 6) and checked independently.
    """
