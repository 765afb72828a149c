"""asyncio runtime: the deployable face of the library (cf. the paper's
C++ implementation).

* :class:`GcsNode` - one group member with an async send/receive API;
* :class:`Cluster` - nodes plus a membership tier running the real
  one-round MBRSHP protocol: the :class:`~repro.deploy.base.Deployment`
  contract written once over a :class:`Fabric`;
* :class:`Fabric` - the runtime CO_RFIFO service, stated once (``core``,
  ``attach``, the admitted fan-out, the hand-over to handlers,
  ``quiesce`` on the link core's in-flight ledger, ``close``), with two
  legs that say only how a copy travels:
* :class:`AsyncHub` - the lossless in-process leg, picked by
  :class:`AsyncDeployment`;
* :class:`TcpFabric` - one length-prefixed :class:`TcpTransport` socket
  per process among trusted peers, picked by :class:`TcpDeployment`;
* :func:`await_settled` - event-driven settling.
"""

from repro.runtime.cluster import AsyncDeployment, Cluster, TcpDeployment
from repro.runtime.fabric import Fabric
from repro.runtime.node import GcsNode
from repro.runtime.settle import await_settled, describe_views
from repro.runtime.tcp import TcpFabric, TcpTransport, encode_frame, read_frame
from repro.runtime.transport import AsyncHub

__all__ = [
    "AsyncDeployment",
    "AsyncHub",
    "Cluster",
    "Fabric",
    "GcsNode",
    "TcpDeployment",
    "TcpFabric",
    "TcpTransport",
    "await_settled",
    "describe_views",
    "encode_frame",
    "read_frame",
]
