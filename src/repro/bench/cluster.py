"""Cluster construction for the paper's experimental setups (§3).

Four configurations are modelled, exactly as named in the paper:

* ``1L-1G``  — 16 nodes, one Broadcom Tigon-3 1-GbE NIC each, one switch.
* ``1L-10G`` — 4 nodes, one Myricom 10-GbE NIC each, one switch.
* ``2L-1G``  — 16 nodes, two 1-GbE NICs each, two switches (one per rail);
  MultiEdge delivers all frames in order (buffering at the receiver).
* ``2Lu-1G`` — like 2L-1G but frames may be delivered out of order when no
  ordering restriction (fence) applies.

A :class:`Cluster` owns the simulator, all nodes/stacks, one fabric per
rail (one switch each unless ``ClusterConfig.fabric`` says otherwise),
and a connection cache, so micro-benchmarks and the DSM runtime can
ask for node pairs without re-wiring anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

from ..control import EdgeLifecycleManager
from ..core import ConnectionHandle, ConnectionStats, MultiEdgeStack, ProtocolParams, establish
from ..ethernet import LinkParams, NicParams, Switch, SwitchParams
from ..ethernet.link import Cable
from ..host import Node, myri10g_params, tigon3_params
from ..sim import RngRegistry, SimulationError, Simulator
from ..sim.trace import Tracer

__all__ = [
    "ClusterConfig", "Cluster", "CONFIG_NAMES", "named_config", "make_cluster",
    "DRAIN_HORIZON_NS",
]

# Virtual time Cluster.quiesce() gives a finished run to drain.  What is left
# by then is retransmit, delayed-ack, reconnect-replay and fault-repair
# timers: the longest drain over the protocol (seeds 0-199), crash (0-59),
# incarnation (0-49) and fabric (0-39) fuzz families is 5.8 ms (EXPERIMENTS.md,
# PR 18).  2 s is ~350x that, and still turns a source that re-arms itself
# forever into an error instead of a run that never returns.
DRAIN_HORIZON_NS = 2_000_000_000


@dataclass
class ClusterConfig:
    """Everything needed to stand up one experimental setup.

    ``fabric`` selects the multi-switch topology the paper's §6 names as
    future work: a :class:`~repro.fabric.LeafSpineSpec` or
    :class:`~repro.fabric.FatTreeSpec` builds one ECMP-routed fabric per
    rail (see :mod:`repro.fabric`).  ``None`` — the default — wires
    every node to one switch per rail, node *i* on port *i*.
    """

    name: str
    nodes: int
    rails: int
    nic_factory: Callable[[], NicParams]
    link: LinkParams
    switch: SwitchParams
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    seed: int = 0
    # Multi-switch fabric spec (repro.fabric); None = one switch per rail.
    fabric: Optional[object] = None
    # Hybrid-fidelity fast path (repro.fastpath): fast-forward flows in
    # analytic steady state instead of simulating every frame.  Off by
    # default — frame-level traces stay bit-identical to the seed engine.
    fastpath: bool = False

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("a cluster needs at least 1 node")
        if self.rails < 1:
            raise ValueError("rails must be >= 1")
        if self.fabric is not None and self.nodes > self.fabric.capacity:
            raise ValueError(
                f"{self.nodes} nodes exceed the fabric's capacity "
                f"of {self.fabric.capacity} hosts"
            )


def _config_1l_1g(nodes: int = 16) -> ClusterConfig:
    return ClusterConfig(
        name="1L-1G",
        nodes=nodes,
        rails=1,
        nic_factory=tigon3_params,
        link=LinkParams(speed_bps=1e9, propagation_ns=500),
        switch=SwitchParams(ports=max(nodes, 2), forwarding_latency_ns=1_000,
                            output_queue_frames=160),
        protocol=ProtocolParams(in_order_delivery=False),
    )


def _config_1l_10g(nodes: int = 4) -> ClusterConfig:
    return ClusterConfig(
        name="1L-10G",
        nodes=nodes,
        rails=1,
        nic_factory=myri10g_params,
        link=LinkParams(speed_bps=10e9, propagation_ns=500),
        switch=SwitchParams(ports=max(nodes, 2), forwarding_latency_ns=800,
                            output_queue_frames=256),
        protocol=ProtocolParams(in_order_delivery=False),
    )


def _config_2rail_1g(name: str, in_order: bool, nodes: int = 16) -> ClusterConfig:
    return replace(
        _config_1l_1g(nodes),
        name=name,
        rails=2,
        protocol=ProtocolParams(in_order_delivery=in_order),
    )


_CONFIG_FACTORIES = {
    "1L-1G": _config_1l_1g,
    "1L-10G": _config_1l_10g,
    "2L-1G": partial(_config_2rail_1g, "2L-1G", True),
    "2Lu-1G": partial(_config_2rail_1g, "2Lu-1G", False),
}

CONFIG_NAMES = tuple(_CONFIG_FACTORIES)


def named_config(
    config: str,
    nodes: Optional[int] = None,
    seed: int = 0,
    synthetic_payloads: bool = False,
    **overrides,
) -> ClusterConfig:
    """The :class:`ClusterConfig` of a paper configuration, by name,
    optionally resized, reseeded, or with fields replaced by ``overrides``.

    To change nested parameters (say the protocol's congestion controller)
    ``replace`` them on the result and *then* construct ``Cluster(cfg)``:
    every stack copies its parameters at construction.
    ``synthetic_payloads=True`` switches the protocol layer to length-only
    frames (no payload bytes are allocated or copied); timing and results
    are identical, so benchmark harnesses use it to cut wall time.
    """
    try:
        factory = _CONFIG_FACTORIES[config]
    except KeyError:
        raise ValueError(
            f"unknown configuration {config!r}; choose from {CONFIG_NAMES}"
        ) from None
    cfg = factory(nodes) if nodes is not None else factory()
    if overrides:
        cfg = replace(cfg, **overrides)
    if synthetic_payloads:
        cfg = replace(
            cfg, protocol=replace(cfg.protocol, synthetic_payloads=True)
        )
    return replace(cfg, seed=seed)


def make_cluster(
    config: str,
    nodes: Optional[int] = None,
    seed: int = 0,
    synthetic_payloads: bool = False,
    **overrides,
) -> "Cluster":
    """Build a cluster by configuration name (see :func:`named_config`)."""
    return Cluster(
        named_config(config, nodes, seed, synthetic_payloads, **overrides)
    )


class Cluster:
    """A wired cluster: nodes, switches, and cached connections."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.rng = RngRegistry(config.seed)

        self.stacks: list[MultiEdgeStack] = []
        nodes = []
        for node_id in range(config.nodes):
            node = Node(
                self.sim,
                node_id,
                nic_params=[config.nic_factory() for _ in range(config.rails)],
                rng=self.rng,
            )
            nodes.append(node)
            self.stacks.append(MultiEdgeStack(node, config.protocol))

        self.fabrics: list = []  # per-rail repro.fabric.Fabric
        # (node_id, rail) -> the full-duplex cable to that NIC's switch
        # port.  The fault driver and repair paths need both directions.
        self._cables: dict[tuple[int, int], Cable] = {}
        self._wire(nodes)
        # Every switch, rail by rail (one switch per rail: index = rail).
        self.switches: list[Switch] = [
            sw for fabric in self.fabrics for sw in fabric.switches
        ]

        self.tracer = Tracer(self.sim)
        self._connections: dict[tuple[int, int], tuple[ConnectionHandle, ConnectionHandle]] = {}
        # (node_id, peer_node_id) -> that endpoint's lifecycle manager.
        self.control_planes: dict[tuple[int, int], EdgeLifecycleManager] = {}
        # Crash/restart coordinator (repro.recovery); None until a crash
        # fault or an explicit enable_crash_recovery() asks for it, so the
        # default path carries zero recovery state.
        self.recovery = None
        # Differential gray scorer (repro.control.grayscore); None until
        # enable_gray_detection() asks for it.
        self.gray_scorer = None
        # Flow-level fast-forward manager (repro.fastpath); None keeps
        # every connection on the exact frame-level path.
        self.fastpath = None
        # Serving runtime (repro.serve); None until enable_serving().
        self.serve = None
        # The layers built on this cluster (repro.mp, repro.dsm, repro.serve),
        # in construction order; recovery tells each of a node crash
        # (on_node_crashed), whichever was built first.
        self.layers: list = []
        self.measured_since = 0  # the last reset_measurement() instant
        self.reset_summary = None  # the roll-up that reset_measurement() took
        if config.fastpath:
            self.enable_fastpath()

    def _wire(self, nodes) -> None:
        """One fabric per rail (repro.fabric): ``config.fabric``, or one
        switch when it is None."""
        from ..fabric import build_fabric  # lazy: repro.fabric imports us

        config = self.config
        for rail in range(config.rails):
            fabric = build_fabric(
                self.sim,
                config.fabric,
                rail=rail,
                seed=config.seed,
                switch_params=config.switch,
                link_params=config.link,
                rng=self.rng,
            )
            for node in nodes:
                self._cables[(node.node_id, rail)] = fabric.attach_host(
                    node.node_id,
                    node.nics[rail],
                    link_params=config.link,
                    rng=self.rng,
                )
            fabric.program_routes()
            self.fabrics.append(fabric)

    @property
    def nodes(self) -> list[Node]:
        return [s.node for s in self.stacks]

    def connect(self, i: int, j: int) -> tuple[ConnectionHandle, ConnectionHandle]:
        """Connection between nodes ``i`` and ``j`` (cached, symmetric).

        Returns ``(endpoint_at_i, endpoint_at_j)``.
        """
        if i == j:
            raise ValueError("cannot connect a node to itself")
        key = (min(i, j), max(i, j))
        if key not in self._connections:
            a, b = establish(
                self.stacks[key[0]], self.stacks[key[1]], self.config.protocol
            )
            self._connections[key] = (a, b)
            if self.fastpath is not None:
                self.fastpath.attach(a.conn)
                self.fastpath.attach(b.conn)
        a, b = self._connections[key]
        return (a, b) if i < j else (b, a)

    # -- edge lifecycle control plane ------------------------------------

    def cable(self, node: int, rail: int) -> Cable:
        """The full-duplex cable between ``node``'s ``rail`` NIC and its
        switch port (fault injection and repair act on this)."""
        try:
            return self._cables[(node, rail)]
        except KeyError:
            raise ValueError(f"no cable for node {node} rail {rail}") from None

    def enable_edge_control(
        self, i: int, j: int
    ) -> tuple[EdgeLifecycleManager, EdgeLifecycleManager]:
        """Run the edge lifecycle control plane on both ends of (i, j).

        Establishes the connection if needed, then attaches one
        :class:`~repro.control.EdgeLifecycleManager` per endpoint
        (heartbeat probes + failure detection + automatic failover).
        Edge state transitions are recorded through :attr:`tracer` under
        category ``"edge.state"``.
        """
        a, b = self.connect(i, j)
        self.tracer.enable("edge.state")
        managers = []
        for node_id, handle in ((i, a), (j, b)):
            peer = handle.conn.peer_node_id
            key = (node_id, peer)
            mgr = self.control_planes.get(key)
            if mgr is None:
                mgr = EdgeLifecycleManager(self.sim, handle.conn)
                self.control_planes[key] = mgr
            managers.append(mgr)
        return managers[0], managers[1]

    def enable_fastpath(self):
        """Attach the hybrid-fidelity fast path (idempotent).

        Installs a :class:`~repro.fastpath.FastpathManager`: existing and
        future connections get a flow-level forwarder, and as the
        simulator's ``fastpath_guard`` it aborts jumps on any device's
        fault, ECN mark, queue pressure or power event.
        Returns the manager.
        """
        if self.fastpath is None:
            from ..fastpath import FastpathManager

            self.fastpath = FastpathManager(self)
            self.fastpath.attach_all()
        return self.fastpath

    def enable_crash_recovery(self):
        """Attach the whole-node crash/recovery coordinator (idempotent).

        Returns the cluster's :class:`~repro.recovery.ClusterRecovery`.
        Called automatically when a :class:`~repro.control.FaultSchedule`
        contains :class:`~repro.control.Crash` / \
        :class:`~repro.control.Restart` events.
        """
        if self.recovery is None:
            from ..recovery import ClusterRecovery

            self.recovery = ClusterRecovery(self)
        return self.recovery

    def enable_gray_detection(self):
        """Attach the differential gray scorer (idempotent).

        Compares the health EWMAs of every edge in :attr:`control_planes`
        against the population median (:mod:`repro.control.grayscore`);
        outliers enter the DEGRADED lifecycle state and have their striping
        score capped.  The population is read at each check, so control
        planes enabled later, and those a crash removed, count as they are.
        """
        if self.gray_scorer is None:
            from ..control.grayscore import GrayScorer

            self.gray_scorer = GrayScorer(self)
        return self.gray_scorer

    # -- starting a measured interval, ending a run ------------------------

    def reset_measurement(self) -> None:
        """Start a measured interval at ``measured_since`` (now): zero every
        node's CPU accounting, every connection's counters and the fast
        path's statistics, so a warm-up leaves nothing in what is reported.
        Device counters are never zeroed: results subtract the roll-up
        taken here, :attr:`reset_summary`."""
        from ..analysis.summary import summarize_cluster  # analysis imports us

        self.measured_since = self.sim.now
        for stack in self.stacks:
            stack.node.reset_accounting()
            for conn in stack.protocol.connections.values():
                conn.stats = ConnectionStats()
        if self.fastpath is not None:
            self.fastpath.stats.reset()
        self.reset_summary = summarize_cluster(self)

    def stop_periodic(self) -> None:
        """Stop every source the cluster owns that re-arms itself forever:
        each control plane's heartbeat probes, then the gray scorer."""
        for mgr in list(self.control_planes.values()):
            mgr.stop()
        if self.gray_scorer is not None:
            self.gray_scorer.stop()

    def quiesce(self) -> None:
        """End a run whose workload is done: stop the periodic sources, then
        run what is left (acks, retransmits, fault timers) until both lanes
        drain, at most :data:`DRAIN_HORIZON_NS`.

        The clock is not snapped: ``sim.now`` stays at the last executed
        event, as after an unbounded ``Simulator.run()``, so the fingerprint
        (which hashes it) cannot tell the two apart.  Raises
        :class:`~repro.sim.SimulationError` naming the earliest callback
        still scheduled at the horizon, or, once drained, the first switch
        whose ingress frames were not all forwarded or dropped for a
        counted reason, or the first operation still incomplete.
        """
        self.stop_periodic()
        sim = self.sim
        sim.run_until_time(sim.now + DRAIN_HORIZON_NS)
        pending = sim.next_callback()
        if pending is not None:
            raise SimulationError(
                f"not drained {DRAIN_HORIZON_NS} ns after the workload "
                f"finished: {pending!r} is still scheduled for "
                f"t={sim.next_event_time()} ns"
            )
        lost = [v for sw in self.switches for v in sw.conservation_violations()]
        if lost:
            raise SimulationError(f"drained, but switch {lost[0]}")
        for stack in self.stacks:
            for conn in stack.protocol.connections.values():
                ops = [rec.op for rec in conn.window.inflight.values()]
                for op in ops + list(conn._pending_reads.values()):
                    if not op.completed:
                        raise SimulationError(f"op {op!r} incomplete after drain")

    def enable_frame_tracing(self) -> None:
        """Record every NIC TX/RX completion into :attr:`tracer`."""
        self.tracer.enable("frame.tx", "frame.rx")

    # -- cluster-wide statistics -----------------------------------------

    def total_data_frames(self) -> int:
        return sum(
            s.protocol.total_stats().data_frames_sent for s in self.stacks
        )
