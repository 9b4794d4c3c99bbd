"""MultiEdge protocol core: the paper's primary contribution."""

from .ack import AckPolicy, AckPolicyParams
from .api import ConnectionHandle, MultiEdgeStack, OpHandle, establish
from .connection import Connection, Notification, Operation, ProtocolParams
from .errors import MultiEdgeError, PeerCrashed, RetransmitExhausted
from .handshake import HandshakeError, close_connection, dial, enable_listener
from .messages import SEQUENCED_TYPES
from .ordering import FenceDelivery, InOrderDelivery, OrderingManager, RxOpState
from .protocol import MultiEdgeProtocol
from .retransmit import BackoffPolicy, RetransmitTimer
from .ring import SlotRing
from .stats import ConnectionStats, merge_stats
from .striping import (
    AdaptiveStriping,
    RoundRobinStriping,
    ShortestQueueStriping,
    SingleRailStriping,
    StripingPolicy,
    make_striping_policy,
)
from .window import ReceiveTracker, SendWindow

__all__ = [
    "MultiEdgeStack",
    "ConnectionHandle",
    "OpHandle",
    "establish",
    "SlotRing",
    "dial",
    "enable_listener",
    "close_connection",
    "HandshakeError",
    "MultiEdgeError",
    "RetransmitExhausted",
    "PeerCrashed",
    "MultiEdgeProtocol",
    "Connection",
    "Operation",
    "Notification",
    "ProtocolParams",
    "AckPolicy",
    "AckPolicyParams",
    "BackoffPolicy",
    "RetransmitTimer",
    "SendWindow",
    "ReceiveTracker",
    "OrderingManager",
    "InOrderDelivery",
    "FenceDelivery",
    "RxOpState",
    "StripingPolicy",
    "RoundRobinStriping",
    "AdaptiveStriping",
    "ShortestQueueStriping",
    "SingleRailStriping",
    "make_striping_policy",
    "ConnectionStats",
    "merge_stats",
    "SEQUENCED_TYPES",
]
