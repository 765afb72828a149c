"""Differential harness: one link-contract API over all three substrates.

Each driver wraps one substrate behind the same five operations
(``start`` / ``send`` / ``drain`` / ``close`` plus the shared ``core``,
whose in-flight ledger every predicate-free ``drain`` must leave at zero),
so every test in ``test_contract.py`` states the CO_RFIFO link contract
once and runs verbatim against the discrete-event simulator, the
in-process asyncio hub, and real loopback TCP sockets (the
:class:`~repro.runtime.tcp.TcpFabric` a ``TcpDeployment`` runs).  Topology is
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
from repro.runtime.tcp import TcpFabric
from repro.runtime.transport import AsyncHub
from repro.types import ProcessId
from tests.conftest import each_message

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
        """Send a back-to-back run of messages (the batching fast case):
        on every substrate consecutive sends coalesce into carriers."""
        for message in messages:
            await self.send(src, dst, message)

    async def drain(self, predicate: Optional[Callable[[], bool]] = None) -> None:
        """Settle the substrate; then ``predicate``, if given, must hold.

        Every driver settles on the core's in-flight ledger, which each
        substrate fills when a copy is sent, so a settled substrate has
        delivered, bounced or lost everything.  Without a predicate,
        settling must leave that ledger at zero - the ledger is part of
        the contract every driver keeps.
        """
        await self._settle()
        if predicate is None:
            assert self.core.in_flight == 0, self.core.describe_stall()
        else:
            assert predicate(), f"{self.name} drain: predicate does not hold"

    async def _settle(self) -> None:
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
            self.net.register(pid, each_message(self._record(pid)))

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        self.net.send(src, dst, message)

    async def _settle(self) -> None:
        self.clock.run()

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
            self.hub.register(pid, each_message(self._record(pid)))

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        assert self.hub is not None
        self.hub.send(src, [dst], message)

    async def _settle(self) -> None:
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
        # The fabric every TcpDeployment runs - outbox, pump and pacing
        # included - over its own core.
        self.fabric = TcpFabric(faults=self.injector)
        self.core = self.fabric.core

    async def start(self, pids: Iterable[ProcessId]) -> None:
        for pid in pids:
            self.fabric.attach(pid, each_message(self._record(pid)))

    async def send(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        self.fabric.send(src, [dst], message)
        await self.fabric.pace(src)

    async def _settle(self) -> None:
        await self.fabric.quiesce(timeout=5.0)

    async def close(self) -> None:
        await self.fabric.close()


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
