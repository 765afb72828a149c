"""Membership service substrate (the paper's external MBRSHP service).

Two implementations of the Figure 2 interface:

* :class:`~repro.membership.oracle.OracleMembership` - scripted timing:
  a centralized single-group oracle for controlled experiments;
* :class:`~repro.membership.server.MembershipServer` - real agreement:
  dedicated membership servers in the client-server architecture of
  [27], with a one-round (common case) inter-server agreement, assembled
  over any transport by :class:`~repro.membership.tier.MembershipTier`,
  which also feeds them reachability when the deployment partitions,
  heals or crashes a server - and serves any number of *named groups*,
  each one more ``MembershipServer`` round machine at its owning server.
"""

from repro.membership.oracle import OracleMembership
from repro.membership.protocol import (
    SERVER_PREFIX,
    GroupEnvelope,
    ServerProposal,
    StartChangeNotice,
    ViewNotice,
    server_id,
)
from repro.membership.server import MembershipServer
from repro.membership.tier import MembershipTier, PartitionPlan, TierLink

__all__ = [
    "SERVER_PREFIX",
    "GroupEnvelope",
    "MembershipServer",
    "MembershipTier",
    "OracleMembership",
    "PartitionPlan",
    "ServerProposal",
    "StartChangeNotice",
    "TierLink",
    "ViewNotice",
    "server_id",
]
