"""Differential harness: one link-contract API over all three substrates.

Each driver wraps one substrate behind the same five operations
(``start`` / ``send`` / ``drain`` / ``close`` plus the shared ``core``,
whose in-flight ledger every predicate-free ``drain`` must leave at zero),
so every test in ``test_contract.py`` states the CO_RFIFO link contract
once and runs verbatim against the discrete-event simulator, the
in-process asyncio hub, and real loopback TCP sockets.  Topology is
manipulated through ``driver.core`` directly - the unified
:class:`~repro.links.LinkCore` API is itself part of the contract under
test.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.links import LinkCore
from repro.net.latency import ConstantLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from repro.runtime.settle import await_quiescent
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import AsyncHub
from repro.types import ProcessId

Received = Dict[ProcessId, List[Tuple[ProcessId, Any]]]


class ContractDriver:
    """Uniform face of one substrate for the differential contract suite."""

    name = "abstract"
    #: Fault latency units in this substrate's own time (mirrors each
    #: deployment backend's ``time_scale``).
    time_scale = 1.0

    def __init__(self, model: Optional[FaultModel] = None) -> None:
        self.injector = (
            FaultInjector(model, time_scale=self.time_scale) if model else None
        )
        self.core: LinkCore = LinkCore(faults=self.injector)
        self.received: Received = {}

    def _record(self, pid: ProcessId) -> Callable[[ProcessId, Any], None]:
        self.received[pid] = []
        return lambda src, message, p=pid: self.received[p].append((src, message))

    async def start(self, pids: Iterable[ProcessId]) -> None:
        raise NotImplementedError

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        raise NotImplementedError

    async def send_burst(self, src: ProcessId, dst: ProcessId, messages: Iterable[Any]) -> None:
        """Send a back-to-back run of messages (the batching fast case).

        On the simulator and the hub, consecutive sends coalesce into
        batched carriers on their own; the TCP driver overrides this to
        use the transport's explicit batch framing.
        """
        for message in messages:
            await self.send(src, dst, message)

    async def drain(self, predicate: Optional[Callable[[], bool]] = None) -> None:
        """Settle the substrate; with ``predicate``, wait until it holds.

        Without one, settling must leave the core's in-flight ledger at
        zero - the ledger is part of the contract every driver keeps.
        """
        await self._settle(predicate)
        if predicate is None:
            assert self.core.in_flight == 0, self.core.describe_stall()

    async def _settle(self, predicate: Optional[Callable[[], bool]]) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError


class SimContractDriver(ContractDriver):
    name = "sim"
    time_scale = 1.0

    def __init__(self, model: Optional[FaultModel] = None) -> None:
        super().__init__(model)
        self.clock = EventScheduler()
        self.net = SimNetwork(self.clock, ConstantLatency(1.0), core=self.core)

    async def start(self, pids: Iterable[ProcessId]) -> None:
        for pid in pids:
            self.net.register(pid, self._record(pid))

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        self.net.send(src, dst, message)

    async def _settle(self, predicate: Optional[Callable[[], bool]]) -> None:
        self.clock.run()
        # Deterministic substrate: after the queue empties the predicate
        # either holds or the contract is broken - no waiting involved.

    async def close(self) -> None:
        pass


class AsyncContractDriver(ContractDriver):
    name = "async"
    time_scale = 0.003

    def __init__(self, model: Optional[FaultModel] = None) -> None:
        super().__init__(model)
        self.hub: Optional[AsyncHub] = None

    async def start(self, pids: Iterable[ProcessId]) -> None:
        self.hub = AsyncHub(core=self.core)  # pumps need the running loop
        for pid in pids:
            self.hub.register(pid, self._record(pid))

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        assert self.hub is not None
        self.hub.send(src, [dst], message)

    async def _settle(self, predicate: Optional[Callable[[], bool]]) -> None:
        assert self.hub is not None
        await self.hub.quiesce(timeout=10.0)

    async def close(self) -> None:
        if self.hub is not None:
            await self.hub.close()


class TcpContractDriver(ContractDriver):
    name = "tcp"
    time_scale = 0.003

    def __init__(self, model: Optional[FaultModel] = None) -> None:
        super().__init__(model)
        self.transports: Dict[ProcessId, TcpTransport] = {}
        self._quiet = asyncio.Event()
        self.core.on_idle(self._quiet.set)

    async def start(self, pids: Iterable[ProcessId]) -> None:
        addresses: Dict[ProcessId, Tuple[str, int]] = {}
        for pid in pids:
            transport = TcpTransport(pid, self._record(pid), core=self.core)
            addresses[pid] = await transport.start()
            self.transports[pid] = transport
        for transport in self.transports.values():
            transport.set_peers(addresses)

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        await self.transports[src].send([dst], message)

    async def send_burst(self, src: ProcessId, dst: ProcessId, messages: Iterable[Any]) -> None:
        await self.transports[src].send_many([dst], messages)

    async def _settle(self, predicate: Optional[Callable[[], bool]]) -> None:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + 5.0
        if predicate is not None:
            while not predicate():
                if loop.time() >= deadline:
                    raise AssertionError("tcp drain: predicate never held")
                await asyncio.sleep(0.005)
            return
        # No target state: wait for the core's in-flight ledger - every
        # send here is admitted before it returns, so there is no backlog.
        await await_quiescent(self.core, self._quiet, timeout=5.0)

    async def close(self) -> None:
        for transport in self.transports.values():
            await transport.close()


DRIVERS = {
    SimContractDriver.name: SimContractDriver,
    AsyncContractDriver.name: AsyncContractDriver,
    TcpContractDriver.name: TcpContractDriver,
}


@pytest.fixture(params=sorted(DRIVERS))
def driver_factory(request):
    """The class of one substrate driver; tests run once per substrate."""
    return DRIVERS[request.param]


def run_contract(factory, scenario, model: Optional[FaultModel] = None) -> None:
    """Run one async contract scenario on a fresh driver of ``factory``."""

    async def main() -> None:
        driver = factory(model)
        try:
            await scenario(driver)
        finally:
            await driver.close()

    asyncio.run(main())
