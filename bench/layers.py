"""Isolated layer drivers: one ``src/repro`` package at a time, from outside.

Each driver loops over public functions of one layer with seeded
synthetic inputs and returns that repetition's value of one metric
(ns/op, steps/s, ...).  :func:`run_layers` repeats every driver
``REPS`` times and reports the fast-quartile repetition.  The drivers
never touch a deployment: what they measure is what a change to that
one layer can move, and ``bench/README.md`` lists the end-to-end metric
each is expected to move.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Tuple

from repro._collections import MessageLog, frozendict
from repro.chaos.faults import FaultInjector, FaultModel
from repro.checking.refinement import extract_skeleton
from repro.core.gcs_endpoint import GcsEndpoint
from repro.core.messages import AppMsg
from repro.core.runner import EndpointRunner
from repro.deploy import SimDeployment
from repro.harness import ModelHarness
from repro.links import LinkCore
from repro.net import EventScheduler, SimNetwork
from repro.runtime.tcp import encode_batch, encode_frame, read_frame
from repro.runtime.transport import AsyncHub
from repro.scale import install_overlay
from repro.scale.sharding import GroupShardMap
from repro.types import View, make_view

from bench.segment import SYNC_KINDS, cost_model
from bench.stats import Canary, fast_quartile

REPS = 20
_NS = 1e9


def _timed(body: Callable[[], Any]) -> float:
    started = time.perf_counter()
    body()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# ioa
# ----------------------------------------------------------------------


def ioa_fair_steps_per_s(seed: int) -> float:
    """Fair-scheduler steps/s on the 3-process model (as ``run_micro`` does)."""
    harness = ModelHarness("abc", seed=seed, scripts={p: ["m"] * 3 for p in "abc"})
    harness.form_view("abc")
    scheduler = harness.scheduler("fair")
    started = time.perf_counter()
    steps = scheduler.run(max_steps=50_000)
    return steps / (time.perf_counter() - started)


# ----------------------------------------------------------------------
# core: end-point runners over a stub wire
# ----------------------------------------------------------------------


class StubGroup:
    """``n`` end-point runners whose wire is a queue this object pumps."""

    def __init__(self, n: int, *, fastpath: bool) -> None:
        self.pids = [f"p{i}" for i in range(n)]
        self.outbox: Deque[Tuple[str, Any, Any]] = deque()
        self.runners: Dict[str, EndpointRunner] = {}
        for pid in self.pids:
            self.runners[pid] = EndpointRunner(
                GcsEndpoint(pid, gc_views=True),
                send_wire=lambda targets, m, src=pid: self.outbox.append((src, targets, m)),
                set_reliable=lambda targets: None,
                fastpath=fastpath,
            )
        self.round = 0
        self.change_view()

    def pump(self) -> None:
        outbox, runners = self.outbox, self.runners
        while outbox:
            src, targets, message = outbox.popleft()
            for dst in sorted(targets):
                if dst != src:
                    runners[dst].receive(src, message)

    def change_view(self) -> View:
        """One full view change of the whole group: notices, syncs, view."""
        self.round += 1
        members = frozenset(self.pids)
        for pid in self.pids:
            self.runners[pid].membership_start_change(self.round, members)
        self.pump()
        view = make_view(self.round, members, {pid: self.round for pid in self.pids})
        for pid in self.pids:
            self.runners[pid].membership_view(view)
        self.pump()
        return view


def _core_send_ns(fastpath: bool, sends: int = 1000) -> float:
    group = StubGroup(4, fastpath=fastpath)
    send = group.runners["p0"].app_send
    elapsed = _timed(lambda: [send(i) for i in range(sends)])
    return elapsed / sends * _NS


def _core_receive_ns(fastpath: bool, sends: int = 1000) -> float:
    group = StubGroup(4, fastpath=fastpath)
    for i in range(sends):
        group.runners["p0"].app_send(i)
    wire = [message for _src, _targets, message in group.outbox]
    group.outbox.clear()
    receive = group.runners["p1"].receive
    elapsed = _timed(lambda: [receive("p0", message) for message in wire])
    return elapsed / len(wire) * _NS


def core_fastlane_send_ns(seed: int) -> float:
    return _core_send_ns(True)


def core_fastlane_receive_ns(seed: int) -> float:
    return _core_receive_ns(True)


def core_general_send_ns(seed: int) -> float:
    return _core_send_ns(False)


def core_general_receive_ns(seed: int) -> float:
    return _core_receive_ns(False)


def core_view_change_us(seed: int) -> float:
    """One whole-group view change at n=8: start_change, syncs, view."""
    group = StubGroup(8, fastpath=True)
    changes = 4
    elapsed = _timed(lambda: [group.change_view() for _ in range(changes)])
    return elapsed / changes * 1e6


# ----------------------------------------------------------------------
# links
# ----------------------------------------------------------------------

_PEERS = [f"p{i}" for i in range(8)]


def _app_message(index: int = 1) -> AppMsg:
    view = make_view(3, _PEERS, {pid: 3 for pid in _PEERS})
    return AppMsg(index, view, index)


def _links_outbound_ns(core: LinkCore, seed: int, sends: int = 4000) -> float:
    rng = random.Random(seed)
    for pid in _PEERS:
        core.ensure(pid)
    message = _app_message()
    pairs = [tuple(rng.sample(_PEERS, 2)) for _ in range(sends)]
    outbound = core.outbound
    elapsed = _timed(lambda: [outbound(src, dst, message) for src, dst in pairs])
    return elapsed / sends * _NS


def links_outbound_ns(seed: int) -> float:
    return _links_outbound_ns(LinkCore(), seed)


def links_outbound_faulted_ns(seed: int) -> float:
    """The same call under a seeded fault pipeline (the chaos path)."""
    model = FaultModel(drop=0.05, duplicate=0.05, delay=0.1, reorder=0.05, seed=seed)
    return _links_outbound_ns(LinkCore(faults=FaultInjector(model)), seed)


def links_inbound_batch_ns_per_copy(seed: int) -> float:
    core = LinkCore()
    copies = [_app_message(i) for i in range(16)]
    calls = 300
    inbound_batch = core.inbound_batch
    elapsed = _timed(lambda: [inbound_batch("p0", "p1", copies) for _ in range(calls)])
    return elapsed / (calls * len(copies)) * _NS


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------


def net_clock_event_ns(seed: int) -> float:
    rng = random.Random(seed)
    delays = [rng.random() * 10.0 for _ in range(4000)]
    clock = EventScheduler()

    def body() -> None:
        for delay in delays:
            clock.schedule(delay, _noop)
        clock.run()

    return _timed(body) / len(delays) * _NS


def _noop(*_args: Any) -> None:
    return None


def net_network_send_ns(seed: int) -> float:
    rng = random.Random(seed)
    clock = EventScheduler()
    network = SimNetwork(clock)
    for pid in _PEERS:
        network.register(pid, _noop)
    message = _app_message()
    pairs = [tuple(rng.sample(_PEERS, 2)) for _ in range(3000)]

    def body() -> None:
        for src, dst in pairs:
            network.send(src, dst, message)
        clock.run()

    return _timed(body) / len(pairs) * _NS


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------


def runtime_encode_frame_ns(seed: int) -> float:
    messages = [_app_message(i) for i in range(2000)]
    elapsed = _timed(lambda: [encode_frame("p0", message) for message in messages])
    return elapsed / len(messages) * _NS


def runtime_encode_batch_ns_per_copy(seed: int) -> float:
    batches = [[_app_message(i * 8 + k) for k in range(8)] for i in range(300)]
    elapsed = _timed(lambda: [encode_batch("p0", batch) for batch in batches])
    return elapsed / (len(batches) * 8) * _NS


def runtime_decode_frame_ns(seed: int) -> float:
    frames = [encode_frame("p0", _app_message(i)) for i in range(2000)]

    async def body() -> float:
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(frames))
        started = time.perf_counter()
        for _ in frames:
            await read_frame(reader)
        return time.perf_counter() - started

    return asyncio.run(body()) / len(frames) * _NS


def runtime_frame_bytes_appmsg(seed: int) -> float:
    return float(len(encode_frame("p0", _app_message())))


def runtime_hub_send_ns(seed: int) -> float:
    """``AsyncHub.send`` to seven peers, through the pumps, per wire copy."""
    message = _app_message()
    sends = 400

    async def body() -> float:
        hub = AsyncHub()
        for pid in _PEERS:
            hub.register(pid, _noop)
        targets = frozenset(_PEERS)
        started = time.perf_counter()
        for _ in range(sends):
            hub.send("p0", targets, message)
        await hub.quiesce()
        elapsed = time.perf_counter() - started
        await hub.close()
        return elapsed

    return asyncio.run(body()) / (sends * (len(_PEERS) - 1)) * _NS


# ----------------------------------------------------------------------
# collections
# ----------------------------------------------------------------------


def collections_frozendict_eq_ns(seed: int) -> float:
    left = frozendict({pid: index for index, pid in enumerate(_PEERS * 2)})
    right = frozendict({pid: index for index, pid in enumerate(_PEERS * 2)})
    calls = 3000
    elapsed = _timed(lambda: [left == right for _ in range(calls)])
    return elapsed / calls * _NS


def collections_frozendict_iter_ns(seed: int) -> float:
    mapping = frozendict({f"p{i:02d}": i for i in range(16)})
    calls = 3000
    elapsed = _timed(lambda: [list(mapping) for _ in range(calls)])
    return elapsed / calls * _NS


def collections_messagelog_append_ns(seed: int) -> float:
    log = MessageLog()
    appends = 5000
    append = log.append
    elapsed = _timed(lambda: [append(i) for i in range(appends)])
    return elapsed / appends * _NS


# ----------------------------------------------------------------------
# scale, checking
# ----------------------------------------------------------------------


def scale_shard_of_ns(seed: int) -> float:
    rng = random.Random(seed)
    shard_map = GroupShardMap(8)
    groups = [f"group-{rng.randrange(10**6)}" for _ in range(2000)]
    elapsed = _timed(lambda: [shard_map.shard_of(group) for group in groups])
    return elapsed / len(groups) * _NS


async def _small_sim_run(n: int, leaders: int) -> SimDeployment:
    """A short simulated run: traffic, one leave, one join."""
    pids = [f"p{i:02d}" for i in range(n)]
    deployment = SimDeployment(round_duration=3.0)
    await deployment.setup(pids)
    if leaders:
        install_overlay(deployment, leaders=leaders)
    for pid in pids:
        await deployment.send(pid, pid)
    await deployment.settle()
    deployment.links.reset_counters()
    await deployment.reconfigure(pids[:-1])
    await deployment.reconfigure(pids)
    return deployment


def scale_sync_vs_model_ratio(seed: int) -> float:
    """Measured sync volume over section 9's model at n=32, L=6 (exact)."""
    n, leaders = 32, 6
    deployment = asyncio.run(_small_sim_run(n, leaders))
    totals = deployment.link_totals()
    sync = sum(totals.get(kind, 0) for kind in SYNC_KINDS)
    return sync / 2 / cost_model(n, leaders)


def checking_skeleton_us_per_event(seed: int) -> float:
    trace = asyncio.run(_small_sim_run(8, 0)).trace
    elapsed = _timed(lambda: extract_skeleton(trace))
    return elapsed / len(trace) * 1e6


# ----------------------------------------------------------------------

#: metric name -> (driver, better, repetitions)
DRIVERS: Dict[str, Tuple[Callable[[int], float], str, int]] = {
    "ioa.fair_steps_per_s": (ioa_fair_steps_per_s, "higher", REPS),
    "core.fastlane_send_ns": (core_fastlane_send_ns, "lower", REPS),
    "core.fastlane_receive_ns": (core_fastlane_receive_ns, "lower", REPS),
    "core.general_send_ns": (core_general_send_ns, "lower", REPS),
    "core.general_receive_ns": (core_general_receive_ns, "lower", REPS),
    "core.view_change_us": (core_view_change_us, "lower", REPS),
    "links.outbound_ns": (links_outbound_ns, "lower", REPS),
    "links.outbound_faulted_ns": (links_outbound_faulted_ns, "lower", REPS),
    "links.inbound_batch_ns_per_copy": (links_inbound_batch_ns_per_copy, "lower", REPS),
    "net.clock_event_ns": (net_clock_event_ns, "lower", REPS),
    "net.network_send_ns": (net_network_send_ns, "lower", REPS),
    "runtime.encode_frame_ns": (runtime_encode_frame_ns, "lower", REPS),
    "runtime.encode_batch_ns_per_copy": (runtime_encode_batch_ns_per_copy, "lower", REPS),
    "runtime.decode_frame_ns": (runtime_decode_frame_ns, "lower", REPS),
    "runtime.hub_send_ns": (runtime_hub_send_ns, "lower", REPS),
    "collections.frozendict_eq_ns": (collections_frozendict_eq_ns, "lower", REPS),
    "collections.frozendict_iter_ns": (collections_frozendict_iter_ns, "lower", REPS),
    "collections.messagelog_append_ns": (collections_messagelog_append_ns, "lower", REPS),
    "scale.shard_of_ns": (scale_shard_of_ns, "lower", REPS),
    "checking.skeleton_us_per_event": (checking_skeleton_us_per_event, "lower", REPS),
    # Exact counts: one repetition says everything.
    "runtime.frame_bytes_appmsg": (runtime_frame_bytes_appmsg, "lower", 1),
    "scale.sync_vs_model_ratio": (scale_sync_vs_model_ratio, "lower", 1),
}


def run_layers(seed: int, *, budget_s: float) -> Dict[str, float]:
    """Every isolated-driver metric, plus the host canary taken in between.

    Each driver gets an equal slice of ``budget_s`` and stops repeating
    when the slice is used up (never before three repetitions).
    """
    metrics: Dict[str, float] = {}
    canary = Canary()
    slice_s = budget_s / len(DRIVERS)
    for name, (driver, better, reps) in DRIVERS.items():
        deadline = time.perf_counter() + slice_s
        values = [driver(seed)]  # first call also warms imports and caches
        while len(values) < reps and (len(values) < 3 or time.perf_counter() < deadline):
            values.append(driver(seed + len(values)))
        metrics[name] = fast_quartile(values, better)
        canary.sample()
    metrics["host.calib_ms"] = canary.median_ms
    metrics["host.calib_spread"] = canary.spread
    return metrics
