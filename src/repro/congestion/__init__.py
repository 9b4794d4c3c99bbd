"""repro.congestion — ECN-aware congestion control and NIC pacing.

See :mod:`repro.congestion.base` for the controller contract and
docs/PROTOCOL.md ("Congestion management") for the protocol-level story.
"""

from typing import Type

from .base import CongestionController, StaticWindow
from .adaptive import AdaptiveController
from .aimd import AimdController
from .dctcp import DctcpController
from .pacing import TokenBucket

__all__ = [
    "CONTROLLER_NAMES",
    "CongestionController",
    "StaticWindow",
    "AdaptiveController",
    "AimdController",
    "DctcpController",
    "TokenBucket",
    "make_congestion_controller",
]

_CONTROLLERS: dict[str, Type[CongestionController]] = {
    "static": StaticWindow,
    "aimd": AimdController,
    "dctcp": DctcpController,
}

CONTROLLER_NAMES = tuple(_CONTROLLERS)


def make_congestion_controller(
    name: str, window, pacing: bool = False
) -> CongestionController:
    """Factory by controller name (used by :class:`ProtocolParams`)."""
    try:
        cls = _CONTROLLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion controller {name!r}; "
            f"choose from {sorted(_CONTROLLERS)}"
        ) from None
    return cls(window, pacing)
