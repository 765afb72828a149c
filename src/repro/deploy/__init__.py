"""One deployment layer, three substrates.

The paper's algorithm is substrate-independent by construction; this
package makes that executable.  :class:`Deployment` is the common
contract, with backends over the discrete-event simulator
(:class:`SimDeployment`), in-process asyncio queues
(:class:`AsyncDeployment`), and real TCP sockets
(:class:`TcpDeployment`).  :func:`run_scenario` runs any scenario
coroutine on any substrate and returns the finished deployment for
post-hoc trace checking::

    from repro.deploy import run_scenario, scenario_reconfiguration
    for substrate in SUBSTRATES:
        deployment = run_scenario(substrate, scenario_reconfiguration)
        deployment.check()
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from repro.deploy.base import Deployment
from repro.deploy.scenarios import (
    SCENARIOS,
    scenario_churn,
    scenario_crash_mid_sync,
    scenario_reconfiguration,
    scenario_self_delivery,
    scenario_virtual_synchrony,
)
from repro.deploy.sim import SimDeployment

# After .base, which runtime.cluster imports back (the cluster implements
# it); ``repro/__init__`` imports this package before ``repro.runtime``.
from repro.runtime.cluster import AsyncDeployment, TcpDeployment

#: The registry: substrate name -> backend class.
BACKENDS = {
    "sim": SimDeployment,
    "async": AsyncDeployment,
    "tcp": TcpDeployment,
}

SUBSTRATES = tuple(BACKENDS)


def make_deployment(substrate: str, **kwargs: Any) -> Deployment:
    """Instantiate the backend named ``substrate`` ("sim"/"async"/"tcp").

    Must be called with a running event loop for the runtime backends;
    inside :func:`run_scenario` this is taken care of.
    """
    try:
        backend = BACKENDS[substrate]
    except KeyError:
        raise ValueError(
            f"unknown substrate {substrate!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return backend(**kwargs)


def run_scenario(
    substrate: str,
    scenario: Callable[[Deployment], Awaitable[None]],
    **kwargs: Any,
) -> Deployment:
    """Run ``scenario`` on a fresh deployment of ``substrate``.

    Creates the deployment inside the event loop (the runtime backends
    spawn tasks at construction time), always closes it, and returns it
    for inspection - ``deployment.trace``, ``deployment.delivered(pid)``,
    ``deployment.check()``.
    """

    async def main() -> Deployment:
        async with make_deployment(substrate, **kwargs) as deployment:
            await scenario(deployment)
        return deployment

    return asyncio.run(main())


__all__ = [
    "BACKENDS",
    "SCENARIOS",
    "SUBSTRATES",
    "AsyncDeployment",
    "Deployment",
    "SimDeployment",
    "TcpDeployment",
    "make_deployment",
    "run_scenario",
    "scenario_churn",
    "scenario_crash_mid_sync",
    "scenario_reconfiguration",
    "scenario_self_delivery",
    "scenario_virtual_synchrony",
]
