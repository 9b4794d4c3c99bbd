"""Client-side load balancing policies for the serving layer.

A policy answers one question: given a request and the current view of
the server pool, which server gets it?  Policies only see what a real
client-side balancer could know — the locally tracked outstanding count
per server and static topology — never server-internal queue depths.

Three policies, all deterministic:

* ``round-robin`` — rotate through the alive pool in rank order.
* ``least-outstanding`` — pick the alive server with the fewest
  locally-tracked outstanding requests (lowest rank breaks ties); the
  classic join-shortest-queue approximation that adapts to slow or
  recovering servers.
* ``leaf-affinity`` — prefer servers on the same leaf switch as the
  requesting client (fewer fabric hops, no oversubscribed trunk);
  within the preferred set, fall back to least-outstanding.  Uses
  :mod:`repro.fabric` topology when the cluster has one and degrades
  to plain least-outstanding on single-switch wiring.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

__all__ = [
    "LoadBalancer",
    "RoundRobin",
    "LeastOutstanding",
    "LeafAffinity",
    "POLICIES",
    "make_balancer",
    "leaf_of",
]


def leaf_of(cluster, node_id: int) -> int:
    """Which leaf switch a node hangs off (0 on single-switch wiring)."""
    spec = cluster.config.fabric
    if spec is not None and hasattr(spec, "hosts_per_leaf"):
        return node_id // spec.hosts_per_leaf
    return 0


class LoadBalancer:
    """Base: tracks the server pool, liveness, and outstanding counts."""

    name = "base"

    def __init__(self, servers: Sequence[int]) -> None:
        if not servers:
            raise ValueError("need at least one server")
        self.servers = tuple(servers)
        self.alive = set(servers)
        self.outstanding = {s: 0 for s in servers}
        self.dispatched = {s: 0 for s in servers}

    # -- pool management (driven by the runtime) ---------------------------

    def mark_down(self, server: int) -> None:
        self.alive.discard(server)

    def mark_up(self, server: int) -> None:
        if server in self.servers:
            self.alive.add(server)

    def note_dispatch(self, server: int) -> None:
        self.outstanding[server] += 1
        self.dispatched[server] += 1

    def note_done(self, server: int) -> None:
        if self.outstanding.get(server, 0) > 0:
            self.outstanding[server] -= 1

    # -- the policy --------------------------------------------------------

    def choose(self, request, candidates: Optional[set] = None) -> Optional[int]:
        """Pick a server for ``request``; ``None`` when no candidate is
        alive (the runtime parks the request until one returns).

        ``candidates`` optionally restricts the pool further (the
        runtime passes the set of servers reachable from the request's
        client during recovery windows).
        """
        pool = [
            s
            for s in self.servers
            if s in self.alive and (candidates is None or s in candidates)
        ]
        if not pool:
            return None
        return self._pick(request, pool)

    def _pick(self, request, pool: list) -> int:
        raise NotImplementedError


class RoundRobin(LoadBalancer):
    name = "round-robin"

    def __init__(self, servers: Sequence[int]) -> None:
        super().__init__(servers)
        self._next = 0

    def _pick(self, request, pool: list) -> int:
        choice = pool[self._next % len(pool)]
        self._next += 1
        return choice


class LeastOutstanding(LoadBalancer):
    name = "least-outstanding"

    def _pick(self, request, pool: list) -> int:
        return min(pool, key=lambda s: (self.outstanding[s], s))


class LeafAffinity(LeastOutstanding):
    name = "leaf-affinity"

    def __init__(
        self, servers: Sequence[int], leaf_lookup: Callable[[int], int]
    ) -> None:
        super().__init__(servers)
        self.leaf_lookup = leaf_lookup

    def _pick(self, request, pool: list) -> int:
        client_leaf = self.leaf_lookup(request.client)
        local = [s for s in pool if self.leaf_lookup(s) == client_leaf]
        return super()._pick(request, local or pool)


POLICIES = ("round-robin", "least-outstanding", "leaf-affinity")


def make_balancer(policy: str, servers: Sequence[int], cluster=None) -> LoadBalancer:
    """Instantiate a policy by name (``leaf-affinity`` needs a cluster)."""
    if policy == "round-robin":
        return RoundRobin(servers)
    if policy == "least-outstanding":
        return LeastOutstanding(servers)
    if policy == "leaf-affinity":
        if cluster is None:
            raise ValueError("leaf-affinity needs the cluster topology")
        return LeafAffinity(servers, lambda n: leaf_of(cluster, n))
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
