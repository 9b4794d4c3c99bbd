"""Graph-theoretic fabric builder: leaf-spine and fat-tree topologies.

Every cluster is wired through this builder.  Without a spec it builds
the paper's testbed (§3): one switch per rail, node *i* on port *i*.

A fabric is built in three steps:

1. **Instantiate switches** per the declarative spec — every switch gets
   its own :class:`~repro.ethernet.SwitchParams` (derived from the
   cluster's base switch parameters) so tiers can differ in radix,
   forwarding latency, and queue depth.
2. **Wire trunks** with full-duplex :class:`~repro.ethernet.Cable`\\ s at
   the spec's per-tier speed; trunk ports get MACs from the dedicated
   :func:`~repro.ethernet.trunk_mac` namespace.
3. **Program routes** from the graph: one BFS per attached host computes
   shortest-path distances over the switch graph, and every port whose
   neighbour is strictly closer to the host joins that switch's ECMP
   group for the host's MAC.  Multi-member groups are resolved by the
   seeded flow hash in :mod:`~repro.fabric.ecmp`.

The no-forwarding-loop invariant is checked *structurally*: every ECMP
member at every switch must lead to a neighbour strictly closer (in BFS
distance) to the destination host, which makes the route graph per
destination a DAG.  The per-frame hop budget is a second, dynamic
backstop against routing storms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..ethernet import (
    LinkParams,
    SwitchParams,
    connect_nic_to_switch,
    connect_trunk,
    trunk_mac,
)
from ..ethernet.link import Cable
from ..ethernet.nic import Nic
from ..sim import RngRegistry, Simulator
from .ecmp import EcmpSwitch

__all__ = ["LeafSpineSpec", "leaf_spine_3to1", "FatTreeSpec", "Fabric", "build_fabric"]


@dataclass(frozen=True)
class LeafSpineSpec:
    """A two-tier Clos: every leaf connects to every spine.

    Oversubscription is ``hosts_per_leaf * host_speed`` versus
    ``spines * trunk_speed`` of uplink capacity per leaf; with 1-GbE
    hosts, 6 hosts per leaf and 2 spines at 1 GbE give the classic 3:1.
    """

    leaves: int = 2
    spines: int = 2
    hosts_per_leaf: int = 4
    trunk_speed_bps: Optional[float] = None  # None: the host link speed
    forwarding_latency_ns: Optional[int] = None  # None: the base switch's

    def __post_init__(self) -> None:
        if self.leaves < 1 or self.spines < 1 or self.hosts_per_leaf < 1:
            raise ValueError("leaves, spines, hosts_per_leaf must be >= 1")

    @property
    def capacity(self) -> int:
        return self.leaves * self.hosts_per_leaf

    @property
    def diameter(self) -> int:
        return 3  # leaf -> spine -> leaf

    @property
    def max_hops(self) -> int:
        # The per-frame budget is a storm backstop, not the no-loop
        # invariant (that is the structural acyclicity check): a timeout
        # retransmission reuses the frame object while older copies may
        # still sit in queues, so concurrent journeys share the hop
        # counter.  4x the diameter gives those aliased journeys headroom
        # while still killing any real loop almost immediately.
        return 4 * self.diameter

    def oversubscription(self, host_speed_bps: float) -> float:
        trunk = self.trunk_speed_bps or host_speed_bps
        return (self.hosts_per_leaf * host_speed_bps) / (self.spines * trunk)


def leaf_spine_3to1() -> LeafSpineSpec:
    """The benchmarks' leaf-spine: 3 leaves of 6 hosts over 2 spine
    uplinks, 3:1 oversubscribed for cross-leaf traffic at one link speed."""
    return LeafSpineSpec(leaves=3, spines=2, hosts_per_leaf=6)


@dataclass(frozen=True)
class FatTreeSpec:
    """The classic k-ary fat-tree (Al-Fahres/Leiserson construction).

    ``k`` pods of ``k/2`` edge + ``k/2`` aggregation switches, with
    ``(k/2)^2`` cores; each edge switch hosts ``k/2`` nodes, for a
    capacity of ``k^3 / 4`` — full bisection bandwidth at equal speeds.
    """

    k: int = 4
    trunk_speed_bps: Optional[float] = None
    forwarding_latency_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ValueError("fat-tree radix k must be even and >= 2")

    @property
    def capacity(self) -> int:
        return self.k**3 // 4

    @property
    def diameter(self) -> int:
        return 5  # edge -> agg -> core -> agg -> edge

    @property
    def max_hops(self) -> int:
        # See LeafSpineSpec.max_hops: headroom for aliased retransmission
        # journeys; the structural acyclicity check is the real invariant.
        return 4 * self.diameter


@dataclass(frozen=True)
class _OneSwitch:
    """The paper's testbed (§3), one switch per rail: what
    :func:`build_fabric` builds without a spec, so it is no value of
    ``ClusterConfig.fabric``."""

    capacity: int  # the switch's ports
    trunk_speed_bps = None
    forwarding_latency_ns = None
    # See LeafSpineSpec.max_hops: 4x the diameter of one switch.
    max_hops = 4


class Fabric:
    """One rail's fabric: switches, trunks, routes."""

    def __init__(
        self,
        sim: Simulator,
        spec,
        rail: int,
        seed: int,
        switch_params: SwitchParams,
        link_params: LinkParams,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.rail = rail
        self.seed = seed
        self.rng = rng
        self.base_switch = switch_params
        self.host_link = link_params
        self.switches: list[EcmpSwitch] = []
        self.by_name: dict[str, EcmpSwitch] = {}
        self._ids: dict[str, int] = {}  # switch name -> trunk-MAC switch id
        # switch name -> [(port, peer switch name)] over trunk cables.
        self._adj: dict[str, list[tuple[int, str]]] = {}
        # (name_a, name_b) sorted -> the trunk cable between them.
        self.trunks: dict[tuple[str, str], Cable] = {}
        # node_id -> (access switch name, access port index).
        self.access: dict[int, tuple[str, int]] = {}
        self.host_macs: dict[int, int] = {}

        self.trunk_link = replace(
            link_params, speed_bps=spec.trunk_speed_bps or link_params.speed_bps
        )
        if isinstance(spec, LeafSpineSpec):
            self._build_leaf_spine(spec)
        elif isinstance(spec, FatTreeSpec):
            self._build_fat_tree(spec)
        elif isinstance(spec, _OneSwitch):
            self._add_switch(f"switch{rail}", spec.capacity, "")
        else:
            raise TypeError(f"unknown fabric spec {spec!r}")

    # -- construction ------------------------------------------------------

    def _switch_params(self, ports: int) -> SwitchParams:
        base, latency = self.base_switch, self.spec.forwarding_latency_ns
        return replace(base, ports=ports, forwarding_latency_ns=(
            base.forwarding_latency_ns if latency is None else latency
        ))

    def _add_switch(self, name: str, ports: int, tier: str) -> EcmpSwitch:
        sw = EcmpSwitch(
            self.sim,
            self._switch_params(ports),
            name=name,
            tier=tier,
            rail=self.rail,
            seed=self.seed,
            max_hops=self.spec.max_hops,
        )
        self._ids[name] = len(self.switches)
        self.switches.append(sw)
        self.by_name[name] = sw
        self._adj[name] = []
        return sw

    def _add_trunk(
        self, a: EcmpSwitch, port_a: int, b: EcmpSwitch, port_b: int
    ) -> None:
        cable = connect_trunk(
            self.sim,
            a,
            port_a,
            b,
            port_b,
            self.trunk_link,
            self.rng,
            mac_a=trunk_mac(self._ids[a.name], port_a),
            mac_b=trunk_mac(self._ids[b.name], port_b),
        )
        key = tuple(sorted((a.name, b.name)))
        self.trunks[key] = cable
        self._adj[a.name].append((port_a, b.name))
        self._adj[b.name].append((port_b, a.name))

    def _build_leaf_spine(self, spec: LeafSpineSpec) -> None:
        spines = [
            self._add_switch(
                f"spine{self.rail}.{s}", max(2, spec.leaves), "spine"
            )
            for s in range(spec.spines)
        ]
        for l in range(spec.leaves):
            leaf = self._add_switch(
                f"leaf{self.rail}.{l}",
                spec.hosts_per_leaf + spec.spines,
                "leaf",
            )
            for s, spine in enumerate(spines):
                # Leaf uplink ports sit above the host ports.
                self._add_trunk(leaf, spec.hosts_per_leaf + s, spine, l)

    def _build_fat_tree(self, spec: FatTreeSpec) -> None:
        k = spec.k
        half = k // 2
        cores = [
            self._add_switch(f"core{self.rail}.{c}", max(2, k), "core")
            for c in range(half * half)
        ]
        for p in range(k):
            aggs = [
                self._add_switch(f"agg{self.rail}.{p}.{a}", max(2, k), "agg")
                for a in range(half)
            ]
            for e in range(half):
                edge = self._add_switch(
                    f"edge{self.rail}.{p}.{e}", max(2, k), "edge"
                )
                for a, agg in enumerate(aggs):
                    # Edge ports 0..half-1 hold hosts; uplinks follow.
                    self._add_trunk(edge, half + a, agg, e)
            for a, agg in enumerate(aggs):
                for j in range(half):
                    core = cores[a * half + j]
                    self._add_trunk(agg, half + j, core, p)

    # -- host attachment and routing ---------------------------------------

    def host_location(self, node_id: int) -> tuple[str, int]:
        """(access switch name, port index) for a node id."""
        spec = self.spec
        if node_id >= spec.capacity:
            raise ValueError(
                f"node {node_id} exceeds fabric capacity {spec.capacity}"
            )
        if isinstance(spec, _OneSwitch):
            return f"switch{self.rail}", node_id
        if isinstance(spec, LeafSpineSpec):
            leaf = node_id // spec.hosts_per_leaf
            return f"leaf{self.rail}.{leaf}", node_id % spec.hosts_per_leaf
        half = spec.k // 2
        pod_size = half * half
        pod = node_id // pod_size
        within = node_id % pod_size
        return f"edge{self.rail}.{pod}.{within // half}", within % half

    def attach_host(
        self,
        node_id: int,
        nic: Nic,
        link_params: Optional[LinkParams] = None,
        rng: Optional[RngRegistry] = None,
    ) -> Cable:
        """Cable a node's NIC to its access switch port."""
        sw_name, port = self.host_location(node_id)
        cable = connect_nic_to_switch(
            self.sim,
            nic,
            self.by_name[sw_name],
            port_index=port,
            link_params=link_params or self.host_link,
            rng=rng or self.rng,
        )
        self.access[node_id] = (sw_name, port)
        self.host_macs[node_id] = nic.mac
        return cable

    def _bfs(self, source: str) -> dict[str, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for name in frontier:
                d = dist[name] + 1
                for _port, peer in self._adj[name]:
                    if peer not in dist:
                        dist[peer] = d
                        nxt.append(peer)
            frontier = nxt
        return dist

    def program_routes(self) -> None:
        """(Re)compute every switch's ECMP groups for every host MAC."""
        for node_id in sorted(self.access):
            sw_name, port = self.access[node_id]
            mac = self.host_macs[node_id]
            dist = self._bfs(sw_name)
            for sw in self.switches:
                if sw.name == sw_name:
                    sw.add_route(mac, (port,))
                    continue
                d = dist.get(sw.name)
                if d is None:
                    continue
                ports = tuple(
                    p
                    for p, peer in self._adj[sw.name]
                    if dist.get(peer) == d - 1
                )
                if ports:
                    sw.add_route(mac, ports)

    # -- trunk management --------------------------------------------------

    def trunk(self, a: str, b: str) -> Cable:
        """The trunk cable between two switches (either name order)."""
        try:
            return self.trunks[tuple(sorted((a, b)))]
        except KeyError:
            raise ValueError(f"no trunk between {a!r} and {b!r}") from None

    def _trunk_ports(self, a: str, b: str) -> tuple[int, int]:
        port_a = next(p for p, peer in self._adj[a] if peer == b)
        port_b = next(p for p, peer in self._adj[b] if peer == a)
        return port_a, port_b

    def set_trunk_enabled(self, a: str, b: str, enabled: bool) -> None:
        """Administratively drain (or restore) a trunk on both ends.

        Unlike a cable failure, frames already in flight still arrive —
        subsequent flows simply re-pin around the drained member.
        """
        port_a, port_b = self._trunk_ports(a, b)
        self.by_name[a].set_port_enabled(port_a, enabled)
        self.by_name[b].set_port_enabled(port_b, enabled)

    def fail_trunk(self, a: str, b: str, duration_ns: Optional[int] = None):
        """Fail a trunk cable (both directions); ECMP re-pins around it."""
        cable = self.trunk(a, b)
        if duration_ns is None:
            cable.fail_forever()
        else:
            cable.fail_for(duration_ns)

    # -- observability -----------------------------------------------------

    def tiers(self) -> dict[str, list[EcmpSwitch]]:
        out: dict[str, list[EcmpSwitch]] = {}
        for sw in self.switches:
            out.setdefault(sw.tier, []).append(sw)
        return out

    def uplink_bytes(self) -> dict[tuple[str, str], int]:
        """Bytes sent up each (lower-tier switch, upper-tier switch) trunk.

        The ECMP load-balance evenness metric is computed over these.
        """
        order = {"leaf": 0, "edge": 0, "agg": 1, "spine": 2, "core": 2}
        out: dict[tuple[str, str], int] = {}
        for (a, b), _cable in sorted(self.trunks.items()):
            sa, sb = self.by_name[a], self.by_name[b]
            lo, hi = (a, b) if order[sa.tier] < order[sb.tier] else (b, a)
            port_lo = next(p for p, peer in self._adj[lo] if peer == hi)
            link = self.by_name[lo].port(port_lo).tx_link
            out[(lo, hi)] = link.bytes_delivered
        return out

    # -- routing invariants ------------------------------------------------

    def route_acyclicity_violations(self) -> list[str]:
        """Structural no-loop check: for every destination host, every
        ECMP member at every switch must point at a neighbour strictly
        closer to the host (or at the host's own access port), so the
        per-destination route graph is a DAG and no frame can cycle."""
        violations: list[str] = []
        for node_id in sorted(self.access):
            sw_name, port = self.access[node_id]
            mac = self.host_macs[node_id]
            dist = self._bfs(sw_name)
            for sw in self.switches:
                group = sw.route(mac)
                if group is None:
                    continue
                if sw.name == sw_name:
                    if group != (port,):
                        violations.append(
                            f"{sw.name}: node {node_id}'s access route is "
                            f"{group}, expected ({port},)"
                        )
                    continue
                d = dist.get(sw.name, 1 << 30)
                for p in group:
                    peer = next(
                        (n for pp, n in self._adj[sw.name] if pp == p), None
                    )
                    if peer is None or dist.get(peer, 1 << 30) >= d:
                        violations.append(
                            f"{sw.name}: ECMP member port {p} for node "
                            f"{node_id} does not descend toward the host"
                        )
        return violations

    def routing_invariants(self) -> list[str]:
        """Violations of the fabric's routing invariants (drained run):

        * **no forwarding loops** — structurally, every route descends
          toward its destination host (:meth:`route_acyclicity_violations`),
          and dynamically, no frame exceeded the hop budget;
        * **ECMP determinism** — a flow key never changed port while its
          alive member set was unchanged, and every cached pick is the
          flow hash of its key over its member set;
        * **switch conservation** — every ingress frame was forwarded or
          dropped for a counted reason;
        * **trunk conservation** — every frame a trunk port serialised
          was delivered by its link or lost to a counted outage.
        """
        violations: list[str] = list(self.route_acyclicity_violations())
        for sw in self.switches:
            violations.extend(sw.loop_violations)
            violations.extend(sw.pin_violations)
            violations.extend(sw.stale_pins())
            violations.extend(sw.conservation_violations())
        for (a, b), cable in sorted(self.trunks.items()):
            for name, endpoint, link in (
                (f"{a}->{b}", cable.a, cable.ab),
                (f"{b}->{a}", cable.b, cable.ba),
            ):
                delivered = link.frames_delivered + link.frames_lost_outage
                if endpoint.tx_frames != delivered:
                    violations.append(
                        f"trunk {name}: {endpoint.tx_frames} frames "
                        f"serialised but {delivered} accounted by the link"
                    )
        return violations


def build_fabric(
    sim: Simulator,
    spec,
    rail: int = 0,
    seed: int = 0,
    switch_params: Optional[SwitchParams] = None,
    link_params: Optional[LinkParams] = None,
    rng: Optional[RngRegistry] = None,
) -> Fabric:
    """Instantiate a fabric from a spec (hosts attached separately); a
    ``None`` spec is one switch with ``switch_params.ports`` ports."""
    switch_params = switch_params or SwitchParams()
    return Fabric(
        sim,
        spec or _OneSwitch(switch_params.ports),
        rail=rail,
        seed=seed,
        switch_params=switch_params,
        link_params=link_params or LinkParams(),
        rng=rng,
    )
