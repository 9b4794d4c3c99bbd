"""MultiEdge reproduction: an edge-based communication subsystem, simulated.

Reproduction of *MultiEdge: An Edge-based Communication Subsystem for
Scalable Commodity Servers* (Karlsson, Passas, Kotsis, Bilas — IPPS 2007)
as a deterministic discrete-event simulation of the complete stack:
Ethernet substrate, host/kernel model, the MultiEdge protocol itself, a
GeNIMA-style software DSM, and the SPLASH-2-style application suite the
paper evaluates.

Typical entry points::

    from repro import make_cluster, OpFlags

    cluster = make_cluster("1L-1G", nodes=2)
    alice, bob = cluster.connect(0, 1)
    # ... yield from alice.rdma_write(src, dst, size, flags=OpFlags.NOTIFY)

See ``examples/quickstart.py`` and README.md.
"""

from .bench import (
    CONFIG_NAMES,
    Cluster,
    ClusterConfig,
    make_cluster,
    run_micro,
)
from .control import (
    EdgeLifecycleManager,
    EdgeState,
    FaultSchedule,
)
from .core import (
    ConnectionHandle,
    ConnectionStats,
    MultiEdgeStack,
    Notification,
    OpHandle,
    ProtocolParams,
    establish,
)
from .dsm import DsmNode, DsmRuntime, SharedRegion
from .ethernet import LinkParams, NicParams, OpFlags, SwitchParams
from .host import Node
from .sim import Simulator

__version__ = "0.1.0"

__all__ = [
    "make_cluster",
    "Cluster",
    "ClusterConfig",
    "CONFIG_NAMES",
    "run_micro",
    "MultiEdgeStack",
    "ConnectionHandle",
    "OpHandle",
    "Notification",
    "ProtocolParams",
    "ConnectionStats",
    "establish",
    "EdgeLifecycleManager",
    "EdgeState",
    "FaultSchedule",
    "DsmRuntime",
    "DsmNode",
    "SharedRegion",
    "OpFlags",
    "LinkParams",
    "NicParams",
    "SwitchParams",
    "Node",
    "Simulator",
    "__version__",
]
