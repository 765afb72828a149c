"""Seeded chaos schedules over the Deployment contract.

A :class:`ChaosPlan` is everything one adversarial episode needs: the
process set, a :class:`~repro.chaos.faults.FaultModel` for the substrate,
and a schedule of :class:`ChaosOp` steps (multicasts, partitions, heals,
crashes, recoveries, reconfigurations).  The whole plan derives
deterministically from one integer seed, so quoting the seed *is*
quoting the episode; :meth:`ChaosPlan.to_dict` / :meth:`from_dict` give
the byte-for-byte serialisation the shrinker prints for replay.

Generation walks a small state machine so that every emitted schedule is
*executable on all three substrates*.  The invariants encode real
substrate semantics, not taste:

* crash/recover and partition only while the explicit member set is the
  full process set - the simulator's oracle reconfigures to "everyone
  minus the crashed" on those events, so doing them mid-reconfiguration
  would make the substrates diverge;
* crash/recover never during a partition - the runtime tiers wait for a
  view of *all* active members, which cannot form across a cut;
* reconfiguration targets exclude crashed processes and keep >= 2
  members, partitions start from a crash-free full group, and sends come
  from processes that are currently in the configured member set.

The same state machine powers :func:`sanitise_ops`, which repairs an
arbitrary op list (dropping now-disabled steps and appending the closing
heal/recover/reconfigure/settle sequence).  The shrinker leans on it:
removing ops from a valid schedule yields another valid schedule, so
shrinking explores only executable candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate, islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.chaos.faults import FaultModel
from repro.types import ProcessId

# Operation kinds, in the vocabulary of repro.deploy.base.Deployment,
# with the weight of each in the random draw (sends dominate so every
# membership event competes with application traffic).  The order is the
# draw's: a new kind goes last, or every seeded plan changes.
# ``leader_crash`` is a crash whose target was an acting overlay leader
# when the op was generated - it exercises the scale tier's re-election
# path and only appears in plans with ``overlay_leaders`` set.
_WEIGHTS: Dict[str, float] = {
    "send": 5.0,
    "settle": 1.5,
    "partition": 1.5,
    "heal": 2.5,
    "crash": 1.0,
    "leader_crash": 1.5,
    "recover": 2.0,
    "reconfigure": 1.0,
    "server_crash": 1.0,
    "server_recover": 2.0,
    "server_partition": 1.0,
}
OP_KINDS = tuple(_WEIGHTS)


def _target(kind: str) -> str:
    """The :class:`ChaosOp` field a targeted kind names its target in."""
    return "server" if kind.startswith("server_") else "pid"


@dataclass(frozen=True)
class ChaosOp:
    """One step of a chaos schedule, mirroring the Deployment contract."""

    kind: str
    pid: Optional[ProcessId] = None  # send / crash / recover
    payload: Any = None  # send
    groups: Tuple[Tuple[ProcessId, ...], ...] = ()  # partition
    members: Tuple[ProcessId, ...] = ()  # reconfigure
    # Membership-server ops address servers by *tier index* (the runner
    # maps indices through Deployment.server_ids() at execution time),
    # so a plan is substrate-independent of server id naming.
    server: Optional[int] = None  # server_crash / server_recover
    server_groups: Tuple[Tuple[int, ...], ...] = ()  # server_partition

    def describe(self) -> str:
        if self.kind == "send":
            return f"send({self.pid}, {self.payload!r})"
        if self.kind == "partition":
            return f"partition({[list(g) for g in self.groups]})"
        if self.kind == "reconfigure":
            return f"reconfigure({list(self.members)})"
        if self.kind in ("crash", "leader_crash", "recover"):
            return f"{self.kind}({self.pid})"
        if self.kind in ("server_crash", "server_recover"):
            return f"{self.kind}(#{self.server})"
        if self.kind == "server_partition":
            return f"server_partition({[list(g) for g in self.server_groups]})"
        return f"{self.kind}()"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.pid is not None:
            data["pid"] = self.pid
        if self.payload is not None:
            data["payload"] = self.payload
        if self.groups:
            data["groups"] = [list(g) for g in self.groups]
        if self.members:
            data["members"] = list(self.members)
        # Absent from every pre-server-fault serialisation; old dicts
        # round-trip unchanged.
        if self.server is not None:
            data["server"] = self.server
        if self.server_groups:
            data["server_groups"] = [list(g) for g in self.server_groups]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosOp":
        return cls(
            kind=data["kind"],
            pid=data.get("pid"),
            payload=data.get("payload"),
            groups=tuple(tuple(g) for g in data.get("groups", ())),
            members=tuple(data.get("members", ())),
            server=data.get("server"),
            server_groups=tuple(tuple(g) for g in data.get("server_groups", ())),
        )


class _ScheduleState:
    """The executable-schedule state machine (see the module docstring)."""

    def __init__(
        self, processes: Sequence[ProcessId], leaders: int = 0, servers: int = 0
    ) -> None:
        self.full: Tuple[ProcessId, ...] = tuple(processes)
        self.leaders = max(0, min(leaders, len(self.full)))
        # Membership-server fault domain: only meaningful with >= 2
        # servers (the last alive server can never crash).
        self.servers = max(0, servers)
        self.partitioned = False
        self.server_partitioned = False
        self.crashed: set = set()
        self.crashed_servers: set = set()
        self.configured: Tuple[ProcessId, ...] = self.full
        # The overlay's balanced groups over ``full``, built on first use.
        self._groups: Optional[List[List[ProcessId]]] = None
        # The draw's enabled kinds with their options and cumulative
        # weights; cleared by every op that changes the state.
        self._drawable: Optional[Tuple[List[Tuple[str, Any]], List[float]]] = None

    # -- enabling preconditions -------------------------------------------

    def senders(self) -> List[ProcessId]:
        if self.partitioned or self.server_partitioned:
            # Partition requires a crash-free full group, so every
            # process is up and inside some component.
            return list(self.full)
        return [p for p in self.configured if p not in self.crashed]

    def can_partition(self) -> bool:
        return (
            not self.partitioned
            and not self.server_partitioned
            and not self.crashed
            and self.configured == self.full
            and len(self.full) >= 2
        )

    def can_heal(self) -> bool:
        return self.partitioned or self.server_partitioned

    def crash_candidates(self) -> List[ProcessId]:
        if self.partitioned or self.server_partitioned or self.configured != self.full:
            return []
        alive = [p for p in self.full if p not in self.crashed]
        return alive if len(alive) >= 3 else []  # keep >= 2 survivors

    def recover_candidates(self) -> List[ProcessId]:
        if self.partitioned or self.server_partitioned:
            return []
        return sorted(self.crashed)

    # -- the server fault domain ------------------------------------------

    def server_crash_candidates(self) -> List[int]:
        """Crashable server indices: >= 1 survivor, no partition of any
        kind in effect, and the full member set configured (a failover
        re-forms the *current* view; mid-reconfiguration the substrates
        would diverge, exactly as for client crashes)."""
        if self.servers < 2 or self.partitioned or self.server_partitioned:
            return []
        if self.configured != self.full:
            return []
        alive = [i for i in range(self.servers) if i not in self.crashed_servers]
        return alive if len(alive) >= 2 else []

    def server_recover_candidates(self) -> List[int]:
        if self.partitioned or self.server_partitioned:
            return []
        return sorted(self.crashed_servers)

    def can_server_partition(self) -> bool:
        return (
            self.servers >= 2
            and not self.partitioned
            and not self.server_partitioned
            and not self.crashed
            and not self.crashed_servers
            and self.configured == self.full
        )

    def current_leaders(self) -> List[ProcessId]:
        """The acting overlay leaders under the current crash set.

        Mirrors :meth:`repro.scale.overlay.TwoTierOverlay.leader_for`:
        contiguous balanced groups over the sorted full process set,
        each led by its least alive member.  (``leader_crash`` is only
        enabled outside partitions, so reachability never differs from
        liveness here.)
        """
        if not self.leaders:
            return []
        if self._groups is None:
            from repro.scale.overlay import balanced_groups

            self._groups = list(balanced_groups(list(self.full), self.leaders).values())
        return [
            next((p for p in members if p not in self.crashed), members[0])
            for members in self._groups
        ]

    def leader_crash_candidates(self) -> List[ProcessId]:
        candidates = self.crash_candidates() if self.leaders else []
        if not candidates:
            return []
        acting = set(self.current_leaders())
        return [p for p in candidates if p in acting]

    def can_reconfigure(self) -> bool:
        return (
            not self.partitioned
            and not self.server_partitioned
            and not self.crashed
            and len(self.full) >= 2
        )

    def options(self, kind: str) -> Union[bool, List[Any]]:
        """Falsy while ``kind`` is disabled; else the targets it may name,
        or True for a kind that names none (see ``_OPTIONS``)."""
        return _OPTIONS[kind](self) if kind in _OPTIONS else False

    def enabled(self, op: ChaosOp) -> bool:
        options = self.options(op.kind)
        if not options:
            return False
        if op.kind == "partition":
            return len(op.groups) >= 2 and sorted(
                p for g in op.groups for p in g
            ) == sorted(self.full)
        if op.kind == "reconfigure":
            members = set(op.members)
            return len(members) >= 2 and members <= set(self.full)
        if op.kind == "server_partition":
            return len(op.server_groups) >= 2 and sorted(
                i for g in op.server_groups for i in g
            ) == list(range(self.servers))
        return options is True or getattr(op, _target(op.kind)) in options

    def apply(self, op: ChaosOp) -> None:
        if op.kind in ("send", "settle"):
            return  # nothing here changes
        self._drawable = None
        if op.kind == "partition":
            self.partitioned = True
        elif op.kind == "heal":
            self.partitioned = False
            self.server_partitioned = False
        elif op.kind in ("crash", "leader_crash"):
            self.crashed.add(op.pid)
        elif op.kind == "recover":
            self.crashed.discard(op.pid)
        elif op.kind == "reconfigure":
            self.configured = tuple(sorted(op.members))
        elif op.kind == "server_crash":
            self.crashed_servers.add(op.server)
        elif op.kind == "server_recover":
            self.crashed_servers.discard(op.server)
        elif op.kind == "server_partition":
            self.server_partitioned = True

    def draw(self, rng: random.Random, sent: int) -> ChaosOp:
        """One random op, weighted over the enabled kinds; ``sent`` numbers
        the payload of a send."""
        if self._drawable is None:
            enabled = [(kind, options) for kind, of in _DRAWN if (options := of(self))]
            self._drawable = (enabled, list(accumulate(_WEIGHTS[k] for k, _ in enabled)))
        enabled, cum_weights = self._drawable
        kind, options = rng.choices(enabled, cum_weights=cum_weights)[0]
        if kind == "send":
            pid = rng.choice(options)
            return ChaosOp("send", pid=pid, payload=f"{pid}-m{sent}")
        if kind == "partition":
            pids = list(self.full)
            rng.shuffle(pids)
            groups = 3 if len(pids) >= 4 and rng.random() < 0.3 else 2
            cuts = sorted(rng.sample(range(1, len(pids)), groups - 1))
            parts = [
                tuple(pids[i:j]) for i, j in zip([0] + cuts, cuts + [len(pids)])
            ]
            return ChaosOp("partition", groups=tuple(parts))
        if kind == "reconfigure":
            size = rng.randint(2, len(self.full))
            members = tuple(sorted(rng.sample(list(self.full), size)))
            return ChaosOp("reconfigure", members=members)
        if kind == "server_partition":
            indices = list(range(self.servers))
            rng.shuffle(indices)
            cut = rng.randint(1, len(indices) - 1)
            return ChaosOp(
                "server_partition",
                server_groups=(
                    tuple(sorted(indices[:cut])),
                    tuple(sorted(indices[cut:])),
                ),
            )
        if options is True:
            return ChaosOp(kind)
        return ChaosOp(kind, **{_target(kind): rng.choice(options)})

    def random_ops(self, rng: random.Random) -> Iterator[ChaosOp]:
        """The seeded op stream: endless enabled ops, each applied to this
        state as it is drawn - so draw only an op that will be run."""
        sent = 0
        while True:
            op = self.draw(rng, sent)
            if op.kind == "send":
                sent += 1
            self.apply(op)
            yield op

    def closing_ops(self) -> List[ChaosOp]:
        """The suffix that returns the deployment to a stable full view."""
        ops: List[ChaosOp] = []
        if self.partitioned or self.server_partitioned:
            ops.append(ChaosOp("heal"))
        for pid in sorted(self.crashed):
            ops.append(ChaosOp("recover", pid=pid))
        for index in sorted(self.crashed_servers):
            ops.append(ChaosOp("server_recover", server=index))
        if self.configured != self.full:
            ops.append(ChaosOp("reconfigure", members=self.full))
        ops.append(ChaosOp("settle"))
        return ops


# When each op kind is enabled, stated once: the random draw, ``enabled``
# (and with it ``sanitise_ops`` and the process shrink) read this table.
# A falsy result disables the kind; a list is the set of targets it may
# name.  partition, reconfigure and server_partition are True-or-False
# here and check their shape in ``enabled``.
_OPTIONS: Dict[str, Callable[[_ScheduleState], Union[bool, List[Any]]]] = {
    "send": _ScheduleState.senders,
    "settle": lambda state: True,
    "partition": _ScheduleState.can_partition,
    "heal": _ScheduleState.can_heal,
    "crash": _ScheduleState.crash_candidates,
    "leader_crash": _ScheduleState.leader_crash_candidates,
    "recover": _ScheduleState.recover_candidates,
    "reconfigure": _ScheduleState.can_reconfigure,
    "server_crash": _ScheduleState.server_crash_candidates,
    "server_recover": _ScheduleState.server_recover_candidates,
    "server_partition": _ScheduleState.can_server_partition,
}
# The draw's view of the table: every kind, in ``_WEIGHTS`` order.
_DRAWN = tuple((kind, _OPTIONS[kind]) for kind in _WEIGHTS)


def sanitise_ops(
    processes: Sequence[ProcessId],
    ops: Iterable[ChaosOp],
    *,
    leaders: int = 0,
    servers: int = 0,
) -> Tuple[ChaosOp, ...]:
    """Repair an op list into an executable, properly closed schedule.

    Walks the state machine, drops every op whose precondition does not
    hold at its position (the fate of ops orphaned by shrinking), and
    appends the closing heal/recover/reconfigure/settle suffix.
    ``leaders`` is the plan's ``overlay_leaders``; without it every
    ``leader_crash`` is disabled (no overlay, no leaders to crash).
    ``servers`` is the plan's membership-server count; below 2 every
    server fault op is disabled (the last server can never crash).
    """
    state = _ScheduleState(processes, leaders, servers)
    kept: List[ChaosOp] = []
    for op in ops:
        if state.enabled(op):
            state.apply(op)
            kept.append(op)
    kept.extend(state.closing_ops())
    # Re-sanitising a closed schedule must be a fixpoint: collapse the
    # trailing settle the closing suffix would otherwise keep stacking.
    while len(kept) >= 2 and kept[-1].kind == "settle" and kept[-2].kind == "settle":
        kept.pop()
    return tuple(kept)


@dataclass(frozen=True)
class ChaosPlan:
    """A complete chaos episode: processes + fault model + op schedule."""

    seed: int
    processes: Tuple[ProcessId, ...]
    faults: FaultModel
    ops: Tuple[ChaosOp, ...] = field(default_factory=tuple)
    # Leader count of the repro.scale two-tier overlay the runner
    # installs for this episode; 0 (the default, and the value absent
    # from old serialisations) means no overlay and no leader_crash ops.
    overlay_leaders: int = 0
    # Membership-server count of the crashable tier the runner deploys
    # for this episode; 0 (the default, and the value absent from old
    # serialisations) keeps the substrate's default membership and
    # disables every server_* op.
    servers: int = 0

    # -- generation -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        processes: Optional[Sequence[ProcessId]] = None,
        length: Optional[int] = None,
        intensity: float = 1.0,
        overlay_leaders: int = 0,
        servers: int = 0,
    ) -> "ChaosPlan":
        """Derive a full plan from ``seed`` alone (plus optional shaping).

        ``intensity`` scales the fault rates; 0.0 gives a fault-free
        schedule (the ops still churn membership), 1.0 the default rates.
        ``overlay_leaders`` > 0 makes the episode run under the two-tier
        overlay and enables ``leader_crash`` ops against its acting
        leaders.  ``servers`` >= 2 makes the episode run on a crashable
        membership tier of that many servers and enables the
        ``server_crash``/``server_recover``/``server_partition`` ops.
        """
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        rng = random.Random(seed)
        if processes is None:
            count = rng.randint(3, 5)
            processes = tuple(chr(ord("a") + i) for i in range(count))
        else:
            processes = tuple(processes)
        if len(processes) < 2:
            raise ValueError("chaos needs at least 2 processes")
        faults = FaultModel(
            drop=min(1.0, rng.uniform(0.05, 0.20) * intensity),
            duplicate=min(1.0, rng.uniform(0.05, 0.15) * intensity),
            delay=min(1.0, rng.uniform(0.10, 0.30) * intensity),
            reorder=min(1.0, rng.uniform(0.05, 0.20) * intensity),
            seed=seed,
        )
        if length is None:
            length = rng.randint(8, 14)
        overlay_leaders = max(0, min(overlay_leaders, len(processes)))
        servers = max(0, servers)
        state = _ScheduleState(processes, overlay_leaders, servers)
        ops = list(islice(state.random_ops(rng), length))
        ops.extend(state.closing_ops())
        return cls(
            seed=seed,
            processes=processes,
            faults=faults,
            ops=tuple(ops),
            overlay_leaders=overlay_leaders,
            servers=servers,
        )

    def schedule_state(self) -> _ScheduleState:
        """The schedule state machine at the start of this plan's ops."""
        return _ScheduleState(self.processes, self.overlay_leaders, self.servers)

    # -- derived plans ----------------------------------------------------

    def with_ops(self, ops: Iterable[ChaosOp]) -> "ChaosPlan":
        """This plan with a repaired replacement schedule (same seed)."""
        return replace(
            self,
            ops=sanitise_ops(
                self.processes,
                ops,
                leaders=self.overlay_leaders,
                servers=self.servers,
            ),
        )

    def with_faults(self, faults: FaultModel) -> "ChaosPlan":
        return replace(self, faults=faults)

    def with_processes(self, processes: Sequence[ProcessId]) -> "ChaosPlan":
        """Shrink to a sub-group: ops mentioning dropped pids are pruned."""
        keep = tuple(p for p in self.processes if p in set(processes))
        if len(keep) < 2:
            raise ValueError("cannot shrink below 2 processes")
        kept = set(keep)

        def restrict(pids: Iterable[ProcessId]) -> Tuple[ProcessId, ...]:
            return tuple(p for p in pids if p in kept)

        # sanitise_ops drops what no longer holds: an op of a dropped
        # process, a partition left with one group, a reconfigure left
        # with fewer than 2 members.
        ops = [
            replace(
                op,
                groups=tuple(g for g in map(restrict, op.groups) if g),
                members=restrict(op.members),
            )
            for op in self.ops
        ]
        leaders = min(self.overlay_leaders, len(keep))
        return replace(self, processes=keep, overlay_leaders=leaders).with_ops(ops)

    # -- presentation and serialisation -----------------------------------

    def describe(self) -> str:
        overlay = (
            f" overlay_leaders={self.overlay_leaders}" if self.overlay_leaders else ""
        )
        tier = f" servers={self.servers}" if self.servers else ""
        lines = [
            f"seed={self.seed} processes={list(self.processes)} "
            f"faults=[{self.faults.describe()}]{overlay}{tier}"
        ]
        for index, op in enumerate(self.ops):
            lines.append(f"  {index:2d}. {op.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "seed": self.seed,
            "processes": list(self.processes),
            "faults": self.faults.to_dict(),
            "ops": [op.to_dict() for op in self.ops],
        }
        if self.overlay_leaders:
            data["overlay_leaders"] = self.overlay_leaders
        if self.servers:
            data["servers"] = self.servers
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        return cls(
            seed=data["seed"],
            processes=tuple(data["processes"]),
            faults=FaultModel.from_dict(data["faults"]),
            ops=tuple(ChaosOp.from_dict(op) for op in data["ops"]),
            overlay_leaders=data.get("overlay_leaders", 0),
            servers=data.get("servers", 0),
        )


__all__ = [
    "OP_KINDS",
    "ChaosOp",
    "ChaosPlan",
    "sanitise_ops",
]
