"""asyncio runtime: the deployable face of the library (cf. the paper's
C++ implementation).

* :class:`GcsNode` - one group member with an async send/receive API;
* :class:`Cluster` - nodes plus a membership tier running the real
  one-round MBRSHP protocol: the :class:`~repro.deploy.base.Deployment`
  contract written once over the :class:`Fabric` contract (``core``,
  ``attach``, fire-and-forget ``send``, ``pace``, ``quiesce``, ``close``);
* :class:`AsyncHub` - the lossless in-process fabric, picked by
  :class:`AsyncDeployment`;
* :class:`TcpFabric` - one length-prefixed :class:`TcpTransport` socket
  per process among trusted peers, picked by :class:`TcpDeployment`;
* :func:`await_settled` - event-driven settling; both fabrics admit
  every copy when it is sent, so their ``quiesce`` is the same one wait
  on the link core's in-flight ledger.
"""

from repro.runtime.cluster import AsyncDeployment, Cluster, Fabric, TcpDeployment
from repro.runtime.node import Delivery, GcsNode, ViewChange
from repro.runtime.settle import await_settled, describe_views
from repro.runtime.tcp import TcpFabric, TcpTransport, encode_frame, read_frame
from repro.runtime.transport import AsyncHub

__all__ = [
    "AsyncDeployment",
    "AsyncHub",
    "Cluster",
    "Delivery",
    "Fabric",
    "GcsNode",
    "TcpDeployment",
    "TcpFabric",
    "TcpTransport",
    "ViewChange",
    "await_settled",
    "describe_views",
    "encode_frame",
    "read_frame",
]
