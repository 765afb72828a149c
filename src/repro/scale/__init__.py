"""The scale tier: running the algorithm at n=1000 x g=1000.

This package collects the pieces that make the reproduction *scale*
rather than change what it computes:

* :mod:`repro.scale.overlay` - the §9 two-tier synchronization overlay,
  substrate-agnostic (installs on the
  :class:`~repro.core.runner.EndpointRunner` interceptor seams of any
  deployment), with computed leadership that survives leader crashes;
* :func:`install_overlay` - one call to put the overlay on a
  :class:`~repro.deploy.base.Deployment`, whatever the substrate;
* :mod:`repro.scale.sharding` - group placement for the many-groups
  regime: the consistent group -> server map
  :class:`~repro.membership.tier.MembershipTier` places named groups by.

See ``docs/ARCHITECTURE.md`` ("Scale tier") for the cost model and the
seams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.scale.overlay import (
    AggregatedSync,
    GroupsLike,
    TwoTierOverlay,
    UpSync,
    auto_leaders,
    balanced_groups,
)

if TYPE_CHECKING:  # annotation only: repro.deploy imports repro.net.world,
    from repro.deploy.base import Deployment  # which imports this package


def install_overlay(
    deployment: Deployment,
    *,
    leaders: Optional[int] = None,
    groups: Optional[GroupsLike] = None,
) -> TwoTierOverlay:
    """Install the two-tier sync overlay on any deployment.

    Call after ``setup()`` (the runners must exist).  With neither
    ``leaders`` nor ``groups`` given, the leader count defaults to
    :func:`auto_leaders` (~sqrt(n)) over all processes, split into
    contiguous balanced groups.  Flush timers run on the deployment's
    own ``schedule`` (model time units on every substrate);
    connectivity comes from its unified :class:`~repro.links.LinkCore`.
    """
    runners = dict(deployment.nodes)
    if groups is None:
        pids = sorted(runners)
        count = leaders if leaders is not None else auto_leaders(len(pids))
        groups = balanced_groups(pids, max(1, min(count, len(pids))))
    return TwoTierOverlay(
        runners, deployment.schedule, groups, connected=deployment.links.connected
    )


__all__ = [
    "AggregatedSync",
    "TwoTierOverlay",
    "UpSync",
    "auto_leaders",
    "balanced_groups",
    "install_overlay",
]
