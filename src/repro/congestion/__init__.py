"""repro.congestion — ECN-aware congestion control and NIC pacing.

See :mod:`repro.congestion.base` for the controller contract and
docs/PROTOCOL.md ("Congestion management") for the protocol-level story.
"""

from .base import CongestionController
from .aimd import AimdController
from .dctcp import DctcpController
from .pacing import TokenBucket

__all__ = [
    "CONTROLLERS",
    "CongestionController",
    "AimdController",
    "DctcpController",
    "TokenBucket",
]

# ProtocolParams.congestion names a controller here, or is "static": the
# paper's fixed window, with no controller on the connection.
CONTROLLERS: dict[str, type[CongestionController]] = {
    "aimd": AimdController,
    "dctcp": DctcpController,
}
