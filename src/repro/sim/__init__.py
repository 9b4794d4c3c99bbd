"""Discrete-event simulation substrate for the MultiEdge reproduction."""

from .core import (
    MS,
    NS,
    SEC,
    US,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timer,
    all_of,
    any_of,
)
from .resources import Gate, Hold, Resource, Store
from .rng import RngRegistry
from .trace import TraceRecord, Tracer, export_chrome_trace

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timer",
    "SimulationError",
    "Resource",
    "Hold",
    "Store",
    "Gate",
    "RngRegistry",
    "Tracer",
    "export_chrome_trace",
    "TraceRecord",
    "all_of",
    "any_of",
    "NS",
    "US",
    "MS",
    "SEC",
]
