"""The paper's invariants (6.1-6.13, 7.1, 7.2) as executable predicates.

The proofs of Sections 6 and 7 establish these assertions inductively;
here they become runtime checks, asserted after every step of a
model-based test run.  A failure raises
:class:`~repro.errors.InvariantViolation` naming the invariant.

The checks need a view of the *whole* system state - end-points, CO_RFIFO
channels, membership, clients.  :class:`WorldView` adapts either an IOA
composition or the discrete-event simulator to the shape the predicates
expect.

Invariant 6.10 concerns the prophecy variable ``P_legal_views`` used in
the TS simulation proof; it has no concrete system state to check and is
covered instead by the refinement checker in
:mod:`repro.checking.refinement`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.messages import AppMsg, FwdMsg, ViewMsg
from repro.core.vs_endpoint import VsRfifoTsEndpoint
from repro.core.wv_endpoint import WvRfifoEndpoint
from repro.errors import InvariantViolation
from repro.spec.client import BlockStatus, ClientSpec
from repro.spec.co_rfifo import CoRfifoSpec
from repro.spec.mbrshp import MbrshpSpec
from repro.types import ProcessId, View


class WorldView:
    """A uniform read-only view of a running system's global state."""

    def __init__(
        self,
        endpoints: Dict[ProcessId, WvRfifoEndpoint],
        channel_of: Callable[[ProcessId, ProcessId], Sequence[Any]],
        reliable_set_of: Callable[[ProcessId], Iterable[ProcessId]],
        mbrshp: Optional[MbrshpSpec] = None,
        clients: Optional[Dict[ProcessId, ClientSpec]] = None,
    ) -> None:
        self.endpoints = endpoints
        self.channel_of = channel_of
        self.reliable_set_of = reliable_set_of
        self.mbrshp = mbrshp
        self.clients = clients or {}

    @classmethod
    def from_composition(cls, system: Any) -> "WorldView":
        """Build from an :class:`~repro.ioa.composition.Composition`."""
        endpoints: Dict[ProcessId, WvRfifoEndpoint] = {}
        clients: Dict[ProcessId, ClientSpec] = {}
        co_rfifo: Optional[CoRfifoSpec] = None
        mbrshp: Optional[MbrshpSpec] = None
        for component in system.components:
            if isinstance(component, WvRfifoEndpoint):
                endpoints[component.pid] = component
            elif isinstance(component, ClientSpec):
                clients[component.pid] = component
            elif isinstance(component, CoRfifoSpec):
                co_rfifo = component
            elif isinstance(component, MbrshpSpec):
                mbrshp = component
        if co_rfifo is None:
            raise ValueError("composition has no CoRfifoSpec component")
        net = co_rfifo
        return cls(
            endpoints,
            channel_of=lambda p, q: list(net.channel[(p, q)]),
            reliable_set_of=lambda p: net.reliable_set[p],
            mbrshp=mbrshp,
            clients=clients,
        )

    @classmethod
    def from_sim_world(cls, world: Any) -> "WorldView":
        """Build from a :class:`~repro.net.world.SimWorld`.

        The CO_RFIFO "channel" from p to q is the network's: the copies in
        flight on the (p, q) link, then the originals held for it across a
        cut - exactly the unreceived FIFO suffix the centralized automaton
        models.
        """
        endpoints = {pid: node.endpoint for pid, node in world.nodes.items()}
        return cls(
            endpoints,
            channel_of=world.network.channel,
            reliable_set_of=world.network.reliable_set,
            mbrshp=None,
            clients=None,
        )

    def processes(self) -> List[ProcessId]:
        return sorted(self.endpoints)


def _fail(name: str, message: str) -> None:
    raise InvariantViolation(f"Invariant {name}: {message}")


# ----------------------------------------------------------------------
# Section 6.1 - within-view reliable FIFO
# ----------------------------------------------------------------------


def invariant_6_1(world: WorldView) -> None:
    """Self inclusion of mbrshp_view and current_view at every end-point."""
    for p, ep in world.endpoints.items():
        if p not in ep.mbrshp_view.members:
            _fail("6.1", f"{p} not in its mbrshp_view {ep.mbrshp_view}")
        if p not in ep.current_view.members:
            _fail("6.1", f"{p} not in its current_view {ep.current_view}")


def invariant_6_2(world: WorldView) -> None:
    """view_msg[p] == current_view implies current_view.set within reliable_set."""
    for p, ep in world.endpoints.items():
        if ep.view_msg_of(p) == ep.current_view:
            if not ep.current_view.members <= frozenset(ep.reliable_set):
                _fail(
                    "6.2",
                    f"{p} announced {ep.current_view} but reliable_set is "
                    f"{sorted(ep.reliable_set)}",
                )


def invariant_6_3(world: WorldView) -> None:
    """Monotonicity of the view_msg stream on every channel (3 parts)."""
    for p, sender in world.endpoints.items():
        for q, receiver in world.endpoints.items():
            if p == q:
                continue
            seq = [receiver.view_msg_of(p)]
            seq += [m.view for m in world.channel_of(p, q) if isinstance(m, ViewMsg)]
            for older, newer in zip(seq, seq[1:]):
                if not older.vid < newer.vid:
                    _fail("6.3.1", f"view_msg stream {p}->{q} not increasing: {seq}")
            announced = sender.view_msg_of(p) == sender.current_view
            if not announced:
                if not seq[-1].vid < sender.current_view.vid:
                    _fail(
                        "6.3.2",
                        f"{p} has not announced {sender.current_view} but the "
                        f"stream to {q} already reaches {seq[-1]}",
                    )
            elif q in sender.current_view.members:
                if seq[-1] != sender.current_view:
                    _fail(
                        "6.3.3",
                        f"{p} announced {sender.current_view} to its view but the "
                        f"stream to member {q} ends at {seq[-1]}",
                    )


def invariant_6_4(world: WorldView) -> None:
    """History views of in-transit app messages match the view_msg stream."""
    for p in world.endpoints:
        for q, receiver in world.endpoints.items():
            if p == q:
                continue
            context = receiver.view_msg_of(p)
            for m in world.channel_of(p, q):
                if isinstance(m, ViewMsg):
                    context = m.view
                elif isinstance(m, AppMsg) and m.history_view is not None:
                    if m.history_view != context:
                        _fail(
                            "6.4",
                            f"app message {m.payload!r} on {p}->{q} tagged "
                            f"{m.history_view} but stream context is {context}",
                        )


def invariant_6_5(world: WorldView) -> None:
    """History indices equal preceding same-view messages plus received ones."""
    for p in world.endpoints:
        for q, receiver in world.endpoints.items():
            if p == q:
                continue
            counts: Dict[View, int] = {}
            base_view = receiver.view_msg_of(p)
            counts[base_view] = receiver.rcvd(p)
            for m in world.channel_of(p, q):
                if isinstance(m, ViewMsg):
                    counts[m.view] = 0
                elif isinstance(m, AppMsg) and m.history_index is not None:
                    view = m.history_view
                    counts[view] = counts.get(view, 0) + 1
                    if m.history_index != counts[view]:
                        _fail(
                            "6.5",
                            f"app message {m.payload!r} on {p}->{q} has history "
                            f"index {m.history_index}, expected {counts[view]}",
                        )


def invariant_6_6(world: WorldView) -> None:
    """Buffered/in-transit copies agree with the sender's original queue."""
    endpoints = world.endpoints

    def original(owner: ProcessId, view: View, index: int) -> Any:
        ep = endpoints.get(owner)
        if ep is None:
            return None
        log = ep.peek_buffer(owner, view)
        return log.get(index) if log is not None else None

    for p in endpoints:
        for q in endpoints:
            if p == q:
                continue
            for m in world.channel_of(p, q):
                if isinstance(m, AppMsg) and m.history_view is not None:
                    if original(p, m.history_view, m.history_index) != m.payload:
                        _fail("6.6.1", f"in-transit app message {m.payload!r} not on {p}'s queue")
                elif isinstance(m, FwdMsg):
                    if original(m.origin, m.view, m.index) != m.payload:
                        _fail("6.6.2", f"forwarded {m.payload!r} differs from {m.origin}'s queue")
    for q, ep in endpoints.items():
        for p, buffers in ep.msgs.items():
            if p == q:
                continue
            for view, log in buffers.items():
                for index in range(1, log.last_index() + 1):
                    if log.has(index) and original(p, view, index) != log.get(index):
                        _fail(
                            "6.6.3",
                            f"{q}'s copy of msgs[{p}][{view}][{index}] differs "
                            f"from {p}'s original",
                        )


# ----------------------------------------------------------------------
# Section 6.2-6.4 - virtual synchrony and self delivery
# ----------------------------------------------------------------------


def _vs_endpoints(world: WorldView) -> Dict[ProcessId, VsRfifoTsEndpoint]:
    return {
        p: ep for p, ep in world.endpoints.items() if isinstance(ep, VsRfifoTsEndpoint)
    }


def invariant_6_7(world: WorldView) -> None:
    """A received sync message equals the copy stored at its sender.

    The compact variant of Section 5.2.4 is exempt by construction: it
    deliberately omits the view and cut, and recipients only ever use it
    as a "not in your transitional set" marker.
    """
    endpoints = _vs_endpoints(world)
    for q, ep in endpoints.items():
        for p, by_cid in ep.sync_msg.items():
            if p == q or p not in endpoints:
                continue
            for cid, copy in by_cid.items():
                if getattr(copy, "compact", False):
                    continue
                origin = endpoints[p].sync_msg_for(p, cid)
                if origin != copy:
                    _fail("6.7", f"{q}'s copy of sync_msg[{p}][{cid}] differs from {p}'s")


def invariant_6_8(world: WorldView) -> None:
    """No sync message exists for a cid beyond MBRSHP's last for p."""
    if world.mbrshp is None:
        return
    for p, ep in _vs_endpoints(world).items():
        last = world.mbrshp.last_cid(p)
        for cid in ep.sync_msg.get(p, {}):
            if cid > last:
                _fail("6.8", f"{p} has own sync for future cid {cid} > {last}")


def invariant_6_9(world: WorldView) -> None:
    """Own sync message for the current change carries the current view."""
    for p, ep in _vs_endpoints(world).items():
        own = ep.own_sync_msg()
        if own is not None and own.view != ep.current_view:
            _fail("6.9", f"{p}'s own sync view {own.view} != current {ep.current_view}")


def invariant_6_11(world: WorldView) -> None:
    """End-point and client agree on the block status."""
    for p, client in world.clients.items():
        ep = world.endpoints.get(p)
        if ep is None or not hasattr(ep, "block_status"):
            continue
        if ep.block_status != client.block_status:
            _fail("6.11", f"{p}: endpoint {ep.block_status} vs client {client.block_status}")


def invariant_6_12(world: WorldView) -> None:
    """Not yet blocked implies no own sync message for the current change."""
    for p, ep in _vs_endpoints(world).items():
        if not hasattr(ep, "block_status"):
            continue
        if ep.start_change is not None and ep.block_status is not BlockStatus.BLOCKED:
            if ep.own_sync_msg() is not None:
                _fail("6.12", f"{p} sent its sync before being blocked")


def invariant_6_13(world: WorldView) -> None:
    """The own cut commits to *all* messages sent in the current view."""
    for p, ep in _vs_endpoints(world).items():
        own = ep.own_sync_msg()
        if own is None:
            continue
        log = ep.peek_buffer(p, ep.current_view)
        sent = log.last_index() if log is not None else 0
        if own.cut.get(p, 0) != sent:
            _fail("6.13", f"{p}'s cut[{p}]={own.cut.get(p, 0)} but it sent {sent}")


# ----------------------------------------------------------------------
# Section 7 - liveness-supporting invariants
# ----------------------------------------------------------------------


def invariant_7_1(world: WorldView) -> None:
    """No delivery beyond the agreed cuts during a view change."""
    for p, ep in _vs_endpoints(world).items():
        change = ep.start_change
        if change is None:
            continue
        own = ep.sync_msg_for(p, change.cid)
        if own is None:
            continue
        new_view = ep.mbrshp_view
        for q in ep.current_view.members:
            if new_view.start_ids.get(p) != change.cid:
                limit = own.cut.get(q, 0)
            else:
                limit = 0
                for r in new_view.members & ep.current_view.members:
                    sync = ep.sync_msg_for(r, new_view.start_id(r))
                    if sync is not None and sync.view == ep.current_view:
                        limit = max(limit, sync.cut.get(q, 0))
            if ep.dlvrd(q) > limit:
                _fail("7.1", f"{p} delivered {ep.dlvrd(q)} from {q}, cut limit {limit}")


def invariant_7_2(world: WorldView) -> None:
    """Every message an end-point's cut commits to is in its buffers."""
    for p, ep in _vs_endpoints(world).items():
        change = ep.start_change
        if change is None:
            continue
        own = ep.sync_msg_for(p, change.cid)
        if own is None:
            continue
        for q, limit in own.cut.items():
            log = ep.peek_buffer(q, ep.current_view)
            for index in range(1, limit + 1):
                if log is None or not log.has(index):
                    _fail("7.2", f"{p} committed to msgs[{q}][{ep.current_view}][{index}] it lacks")


ALL_INVARIANTS: Tuple[Callable[[WorldView], None], ...] = (
    invariant_6_1,
    invariant_6_2,
    invariant_6_3,
    invariant_6_4,
    invariant_6_5,
    invariant_6_6,
    invariant_6_7,
    invariant_6_8,
    invariant_6_9,
    invariant_6_11,
    invariant_6_12,
    invariant_6_13,
    invariant_7_1,
    invariant_7_2,
)


def check_invariants(world: WorldView, invariants: Iterable[Callable[[WorldView], None]] = ALL_INVARIANTS) -> None:
    """Assert the given invariants against the world state."""
    for invariant in invariants:
        invariant(world)


def invariant_hook(world: WorldView) -> Callable[..., None]:
    """A scheduler step-hook asserting all invariants after every step."""

    def hook(*_args: Any) -> None:
        check_invariants(world)

    return hook
