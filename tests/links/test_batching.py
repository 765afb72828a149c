"""The batching contract: framing may coalesce, semantics may not.

PR "steady-state fast path" lets every substrate coalesce back-to-back
wire copies into batched carriers (shared simulator events, shared hub
wakeups, shared TCP frames).  These tests pin down what batching is NOT
allowed to change, and run verbatim over all three substrates through
the differential harness in ``conftest.py``:

* per-link FIFO holds across batch boundaries;
* faults (duplicates, drops) and the :class:`~repro.links.LinkStats`
  counters apply per *message*, never per batch;
* a partition cut fells a batch atomically - a batch is never split
  into a delivered prefix and a lost suffix.

Unit tests for the pure pieces (the one :class:`~repro.links.Carrier`
joining rule every driver uses, ``MessageBatch`` framing) live at the
bottom; they need no substrate.
"""

from __future__ import annotations

import asyncio
import pickle

from tests.links.conftest import run_contract

from repro.chaos.faults import DuplicateCopy, FaultModel
from repro.links import BATCH_LIMIT, Carrier, LinkCore, MessageBatch
from repro.runtime.tcp import (
    TcpFabric,
    TcpTransport,
    encode_batch,
    encode_frame,
    read_frame,
)


def payloads(received):
    return [message for _src, message in received]


# ----------------------------------------------------------------------
# FIFO across batch boundaries
# ----------------------------------------------------------------------


def test_fifo_preserved_across_batch_boundaries(driver_factory):
    """A burst longer than BATCH_LIMIT spans several batches; the
    receiver must still see one unbroken FIFO sequence."""
    count = BATCH_LIMIT * 2 + 5

    async def scenario(driver):
        await driver.start(["a", "b"])
        await driver.send_burst("a", "b", list(range(count)))
        await driver.drain(lambda: len(driver.received["b"]) >= count)
        assert payloads(driver.received["b"]) == list(range(count))

    run_contract(driver_factory, scenario)


def test_fifo_preserved_with_interleaved_senders(driver_factory):
    """Bursts from two senders: each sender's sub-sequence stays FIFO."""

    async def scenario(driver):
        await driver.start(["a", "b", "c"])
        for i in range(6):
            await driver.send("a", "c", ("a", i))
            await driver.send("b", "c", ("b", i))
        await driver.drain(lambda: len(driver.received["c"]) >= 12)
        seen = driver.received["c"]
        for sender in ("a", "b"):
            assert [m for s, m in seen if s == sender] == [
                (sender, i) for i in range(6)
            ]

    run_contract(driver_factory, scenario)


# ----------------------------------------------------------------------
# per-message faults and counters inside a batch
# ----------------------------------------------------------------------


def test_duplicates_applied_per_message_inside_batch(driver_factory):
    """duplicate=1.0: every message of the burst gains its own
    DuplicateCopy on the wire, and the receiver sees each payload once."""
    model = FaultModel(duplicate=1.0, seed=3)

    async def scenario(driver):
        await driver.start(["a", "b"])
        await driver.send_burst("a", "b", [f"m{i}" for i in range(5)])
        await driver.drain(lambda: len(driver.received["b"]) >= 5)
        assert payloads(driver.received["b"]) == [f"m{i}" for i in range(5)]
        # Wire accounting is per message: 5 originals + 5 duplicate copies.
        assert driver.core.stats.sent["str"] == 5
        assert driver.core.stats.sent["DuplicateCopy"] == 5
        # Dedup also happens per copy: every marker died in the core.
        assert driver.core.stats.delivered["DuplicateCopy"] == 5
        assert driver.injector.counters["suppressed"] == 5

    run_contract(driver_factory, scenario, model)


def test_drop_penalty_applied_per_message_inside_batch(driver_factory):
    """drop=1.0: each message of a burst pays its own retransmission
    penalty, yet FIFO holds and nothing is lost or reordered."""
    model = FaultModel(drop=1.0, seed=11)

    async def scenario(driver):
        await driver.start(["a", "b"])
        await driver.send_burst("a", "b", list(range(4)))
        await driver.drain(lambda: len(driver.received["b"]) >= 4)
        assert payloads(driver.received["b"]) == [0, 1, 2, 3]
        assert driver.injector.counters["dropped"] == 4

    run_contract(driver_factory, scenario, model)


def test_stats_count_messages_not_batches(driver_factory):
    """One coalesced burst of N messages counts N sent / N delivered."""
    count = BATCH_LIMIT + 3

    async def scenario(driver):
        await driver.start(["a", "b"])
        await driver.send_burst("a", "b", list(range(count)))
        await driver.drain(lambda: len(driver.received["b"]) >= count)
        assert driver.core.stats.sent["int"] == count
        assert driver.core.stats.delivered["int"] == count
        assert driver.core.stats.per_link[("a", "b")] == count

    run_contract(driver_factory, scenario)


# ----------------------------------------------------------------------
# partition cut mid-batch: atomic
# ----------------------------------------------------------------------


def test_partition_mid_batch_is_atomic(driver_factory):
    """Cut the link while a burst is in flight: the batch lives or dies
    whole.  Substrates legitimately differ in *which* outcome occurs
    (the hub's in-process queues are lossless; the simulator bounces
    in-flight carriers; TCP drops frames that cross the cut) - but none
    may deliver a strict prefix of a batch.
    """
    count = 6

    async def scenario(driver):
        await driver.start(["a", "b"])
        await driver.send_burst("a", "b", list(range(count)))
        # The burst is on the wire (sim: scheduled carriers; tcp: frames
        # possibly in kernel buffers) - cut before it can be consumed.
        driver.core.partition([["a"], ["b"]])
        await driver.drain()
        got = payloads(driver.received["b"])
        assert got in ([], list(range(count))), f"batch split: {got}"
        if not got:
            # Nothing arrived: every message of the batch was accounted
            # as bounced, none silently vanished.
            assert driver.core.stats.bounced["int"] == count

    run_contract(driver_factory, scenario)


# ----------------------------------------------------------------------
# the TCP outbox: admitted per message, framed per carrier
# ----------------------------------------------------------------------


def _record_socket_writes(monkeypatch) -> list:
    """Log every carrier ``TcpTransport.send_many`` frames, then send it."""
    writes: list = []
    original = TcpTransport.send_many

    async def send_many(self, dst, copies):
        writes.append((self.pid, dst, list(copies)))
        await original(self, dst, copies)

    monkeypatch.setattr(TcpTransport, "send_many", send_many)
    return writes


def test_batch_accumulator_runs_fault_pipeline_per_message(monkeypatch):
    """A burst is admitted and counted per message when it is sent, and
    leaves as one carrier - one batch frame - on the socket."""
    writes = _record_socket_writes(monkeypatch)

    async def scenario():
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        fabric.attach("b", lambda run: None)
        try:
            for i in range(3):
                fabric.send("a", ["b"], i)
            assert fabric.core.stats.sent["int"] == 3  # counted at send time
            assert fabric.core.in_flight == 3
            await fabric.quiesce(timeout=2)
        finally:
            await fabric.close()
        assert writes == [("a", "b", [0, 1, 2])]
        assert fabric.core.stats.delivered["int"] == 3

    asyncio.run(scenario())


def test_batch_accumulator_drops_across_cut(monkeypatch):
    """A send across a cut is admitted to nothing: no count, no ledger
    entry, no carrier on the socket."""
    writes = _record_socket_writes(monkeypatch)

    async def scenario():
        fabric = TcpFabric()
        fabric.attach("a", lambda run: None)
        fabric.attach("b", lambda run: None)
        fabric.core.partition([["a"], ["b"]])
        try:
            fabric.send("a", ["b"], "x")
            assert fabric.core.in_flight == 0
            assert fabric.core.stats.sent == {}
            await fabric.quiesce(timeout=2)
        finally:
            await fabric.close()
        assert writes == []

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# pure helpers: no substrate required
# ----------------------------------------------------------------------


def test_a_fault_delayed_copy_opens_its_own_carrier():
    carrier = Carrier("a")
    assert carrier.join("b")
    assert not carrier.join("c", 1.5)  # the driver opens a carrier for it
    delayed = Carrier("c", 1.5)
    assert delayed.join("d")  # zero-delay copies behind it ride along
    assert carrier.copies == ["a", "b"]
    assert delayed.copies == ["c", "d"]
    assert delayed.extra == 1.5


def test_reaching_the_limit_opens_a_new_carrier():
    carrier = Carrier(0)
    for i in range(1, BATCH_LIMIT):
        assert carrier.join(i)
    assert not carrier.join(BATCH_LIMIT)
    assert carrier.copies == list(range(BATCH_LIMIT))


def test_a_popped_carrier_is_never_joined():
    carrier = Carrier("a", stamp="p")
    carrier.open = False  # the driver's delivery step has taken it
    assert not carrier.join("b", stamp="p")
    assert carrier.copies == ["a"]


def test_a_different_stamp_opens_a_new_carrier():
    carrier = Carrier("a", stamp=("t0", 1.0))
    assert not carrier.join("b", stamp=("t1", 1.0))
    assert carrier.join("c", stamp=("t0", 1.0))
    assert carrier.copies == ["a", "c"]


def test_encode_batch_degenerates_to_plain_frame():
    assert encode_batch("a", ["only"]) == encode_frame("a", "only")


def test_encode_batch_roundtrip():
    frame = encode_batch("a", ["x", "y", "z"])

    async def read() -> tuple:
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        return await read_frame(reader)

    src, wire = asyncio.run(read())
    assert src == "a"
    assert isinstance(wire, MessageBatch)
    assert list(wire) == ["x", "y", "z"]


def test_message_batch_pickles_to_its_copies():
    batch = MessageBatch(("p", "q"))
    clone = pickle.loads(pickle.dumps(batch))
    assert clone == batch
    assert clone.copies == ("p", "q")


def test_inbound_batch_dedups_and_counts_per_message():
    core = LinkCore()
    core.ensure("a")
    core.ensure("b")
    copies = ["m1", DuplicateCopy("m1"), "m2"]
    assert core.inbound_batch("a", "b", copies) == ["m1", "m2"]
    assert core.stats.delivered["str"] == 2
    assert core.stats.delivered["DuplicateCopy"] == 1


def test_inbound_batch_topology_check_is_atomic():
    core = LinkCore()
    core.ensure("a")
    core.ensure("b")
    core.partition([["a"], ["b"]])
    assert core.inbound_batch("a", "b", ["m1", "m2"], check_topology=True) == []
    assert core.stats.bounced["str"] == 2
    assert core.stats.delivered["str"] == 0
