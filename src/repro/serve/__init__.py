"""Request/response serving over MultiEdge message passing.

The ROADMAP's north star is a system serving heavy traffic from
millions of users; every workload before this package was closed-loop.
:mod:`repro.serve` drives the stack the way a real service is driven:

* **open-loop arrivals** (:mod:`.arrivals`) — seeded Poisson and
  bursty (Markov-modulated on/off) sources that stand in for millions
  of clients with *batched* event generation: one armed scheduler event
  per source, never a process per client or per request;
* **pluggable load balancing** (:mod:`.balancer`) — round-robin,
  least-outstanding, and leaf-affinity over :mod:`repro.fabric`
  topology;
* **bounded-queue servers** (:mod:`.server`) — explicit overload
  behavior: queue at capacity means a shed response and a counter, not
  silent growth;
* **the runtime** (:mod:`.runtime`) — wiring, the client-side request
  journal that replays across server crashes (:mod:`repro.recovery`),
  per-server mergeable latency histograms with queueing/service/network
  decomposition (:mod:`repro.analysis`), and SLO attainment windows.
"""

from .arrivals import ArrivalSource, ArrivalSpec, Request
from .balancer import (
    POLICIES,
    LeafAffinity,
    LeastOutstanding,
    LoadBalancer,
    RoundRobin,
    leaf_of,
    make_balancer,
)
from .runtime import ServeConfig, ServeRuntime
from .server import FLAG_SHED, TAG_REQ, TAG_RESP, ServerLoop, ServerSpec
from .tail import (
    CircuitBreaker,
    OutlierEjector,
    QuantileTracker,
    RetryBudget,
    TailController,
    TailSpec,
)

__all__ = [
    "TailSpec",
    "TailController",
    "RetryBudget",
    "CircuitBreaker",
    "OutlierEjector",
    "QuantileTracker",
    "ArrivalSpec",
    "ArrivalSource",
    "Request",
    "LoadBalancer",
    "RoundRobin",
    "LeastOutstanding",
    "LeafAffinity",
    "POLICIES",
    "make_balancer",
    "leaf_of",
    "ServerSpec",
    "ServerLoop",
    "ServeConfig",
    "ServeRuntime",
    "TAG_REQ",
    "TAG_RESP",
    "FLAG_SHED",
]
