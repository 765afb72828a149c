"""Core value types of the group communication service (Section 3).

The paper's type ``View = ViewId x SetOf(Proc) x (Proc -> StartChangeId)``
is realised by :class:`View`.  All types here are immutable and hashable:
views are used as dictionary keys throughout the algorithm (``msgs[q][v]``),
and the paper's equality rule - *two views are considered the same if they
consist of identical triples* - falls out of structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import FrozenSet, Iterable, Mapping, Tuple

from repro._collections import frozendict

# A process (equivalently: GCS end-point) identifier.  The paper uses the
# words "process" and "end-point" interchangeably; so do we.
ProcessId = str

# Locally unique, increasing identifiers carried by start_change
# notifications.  Local uniqueness is all the algorithm needs (Section 1);
# integers with the smallest element CID_ZERO suffice.
StartChangeId = int

CID_ZERO: StartChangeId = 0


@total_ordering
@dataclass(frozen=True, eq=True)
class ViewId:
    """A view identifier from a (here: totally) ordered set.

    The paper only requires a partial order with a smallest element
    ``vid_0``.  We use a (counter, origin) pair ordered lexicographically:
    concurrent partitions generate distinct identifiers by virtue of the
    ``origin`` tiebreak, and the total order trivially satisfies the
    required partial order.
    """

    counter: int
    origin: str = ""

    def __lt__(self, other: "ViewId") -> bool:
        if not isinstance(other, ViewId):
            return NotImplemented
        return (self.counter, self.origin) < (other.counter, other.origin)

    def next(self, origin: str = "") -> "ViewId":
        """A fresh identifier strictly greater than this one."""
        return ViewId(self.counter + 1, origin)

    def __reduce__(self):
        # Constructor-based pickling: view identifiers are embedded in
        # every view and wire message, so the strict-mode fingerprint
        # path pickles them constantly.
        return (ViewId, (self.counter, self.origin))

    def __repr__(self) -> str:
        if self.origin:
            return f"ViewId({self.counter}, {self.origin!r})"
        return f"ViewId({self.counter})"


VID_ZERO = ViewId(0)


@dataclass(frozen=True, eq=True)
class View:
    """A membership view: ``(id, set of members, startId map)``.

    ``start_ids`` maps each member to the :data:`StartChangeId` in the last
    ``start_change`` it received before receiving this view.  Including this
    map in the view is the paper's key idea: it lets end-points identify the
    right synchronization messages without pre-agreeing on a global tag.
    """

    vid: ViewId
    members: FrozenSet[ProcessId]
    start_ids: frozendict = field(default_factory=frozendict)

    def __post_init__(self) -> None:
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        if not isinstance(self.start_ids, frozendict):
            object.__setattr__(self, "start_ids", frozendict(self.start_ids))

    def start_id(self, process: ProcessId) -> StartChangeId:
        """The paper's ``v.startId(p)``."""
        return self.start_ids[process]

    def __contains__(self, process: ProcessId) -> bool:
        return process in self.members

    def __hash__(self) -> int:
        # A view is the key of msgs[q][view], looked up on every delivery
        # scan: hash the triple once per instance.  The cache is no field
        # and stays out of __reduce__, so equality, pickles and the
        # strict-mode fingerprint do not see it.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.vid, self.members, self.start_ids)))
            return self._hash

    def __reduce__(self):
        return (View, (self.vid, self.members, self.start_ids))

    def __repr__(self) -> str:
        members = ",".join(sorted(self.members))
        return f"View({self.vid!r}, {{{members}}})"


def initial_view(process: ProcessId) -> View:
    """The default singleton view ``v_p`` an end-point starts in.

    Per Figure 2: ``v_p = <vid_0, {p}, {(p -> cid_0)}>``.
    """
    return View(VID_ZERO, frozenset({process}), frozendict({process: CID_ZERO}))


def make_view(
    counter: int,
    members: Iterable[ProcessId],
    start_ids: Mapping[ProcessId, StartChangeId] | None = None,
    origin: str = "",
) -> View:
    """Convenience constructor used by tests, examples and the servers.

    When ``start_ids`` is omitted every member is mapped to
    :data:`CID_ZERO`; real membership services always supply the map.
    """
    member_set = frozenset(members)
    if start_ids is None:
        start_ids = {p: CID_ZERO for p in member_set}
    missing = member_set - set(start_ids)
    if missing:
        raise ValueError(f"start_ids missing bindings for {sorted(missing)}")
    return View(ViewId(counter, origin), member_set, frozendict(start_ids))


@dataclass(frozen=True, eq=True)
class StartChange:
    """A ``start_change`` notification: ``(cid, suggested member set)``."""

    cid: StartChangeId
    members: FrozenSet[ProcessId]

    def __post_init__(self) -> None:
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))


# A cut maps each process to the index of the last message from it that the
# cut's owner commits to deliver before the next view (Section 5.2).
Cut = frozendict


def make_cut(bindings: Mapping[ProcessId, int] | Iterable[Tuple[ProcessId, int]]) -> Cut:
    """Build an immutable cut from process -> last-index bindings."""
    return frozendict(dict(bindings))


def cut_max(cuts: Iterable[Cut], processes: Iterable[ProcessId]) -> Cut:
    """Pointwise maximum of ``cuts`` over ``processes``.

    This is the paper's ``max_{r in T} sync_msg[r][...].cut(q)``; absent
    bindings count as 0 (no messages committed).
    """
    cuts = list(cuts)
    return frozendict({q: max((c.get(q, 0) for c in cuts), default=0) for q in processes})
