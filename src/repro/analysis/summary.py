"""Cluster-wide measurement summaries.

Turns the counters scattered across NICs, switches, connections, and CPU
accounting into one flat report — the "detailed network statistics" view
the paper builds its §4 analysis on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..bench.cluster import Cluster
from ..control.detector import EdgeState
from ..core import merge_stats

__all__ = [
    "ClusterSummary",
    "RailCounters",
    "SwitchCounters",
    "summarize_cluster",
    "ascii_histogram",
]


@dataclass
class RailCounters:
    """One rail's hardware counters: every node's NIC on the rail, plus the
    link losses on the rail's host cables and fabric trunks."""

    rail: int
    tx_frames: int = 0
    tx_bytes: int = 0
    rx_frames: int = 0
    ring_drops: int = 0
    crc_drops: int = 0
    irqs: int = 0
    powered_off_drops: int = 0  # frames a powered-off NIC discarded
    pacing_stall_ns: int = 0
    outage_losses: int = 0  # frames a failed link swallowed
    gray_losses: int = 0  # frames a gray-degraded link dropped


@dataclass
class SwitchCounters:
    """One switch's counters, keyed by name (multi-switch fabrics give
    every switch a distinct name; classic configs have one per rail)."""

    name: str
    tier: str  # "leaf"/"spine"/"edge"/"agg"/"core"; "" for classic wiring
    forwarded: int
    dropped_total: int
    dropped_queue_full: int
    ce_marked: int
    peak_queue_depth: int
    tx_frames: int
    tx_bytes: int  # bytes this switch's egress links delivered
    # ECMP counters (zero on one-switch rails).
    ecmp_routed: int = 0
    repins: int = 0
    paused_frames: int = 0  # lossless-mode backpressure events


@dataclass
class ClusterSummary:
    """Flat roll-up of every layer's counters.  The serving layer reports
    through :class:`~repro.bench.serve.ServeResult` instead."""

    elapsed_ns: int
    # Protocol layer.
    data_frames: int
    data_bytes: int
    explicit_acks: int
    nacks: int
    retransmissions: int
    duplicates: int
    out_of_order_fraction: float
    extra_frame_fraction: float
    mean_reorder_distance: float
    # Hardware layer.
    wire_frames: int
    wire_bytes: int
    irqs: int
    switch_drops: int
    nic_ring_drops: int
    crc_drops: int
    # Host layer.
    protocol_cpu_fraction_mean: float
    # Losses the hardware fields above leave out (frames_dropped adds all).
    nic_powered_off_drops: int = 0
    link_outage_losses: int = 0  # host cables and trunks, both directions
    link_gray_losses: int = 0
    # Retransmissions by trigger (they add up to ``retransmissions``).
    timeout_retransmits: int = 0
    nack_retransmits: int = 0
    # Node memory summed over nodes (repro.host.VirtualMemory): address
    # space reserved by alloc() and the part backed by a buffer, which is
    # what node memory contributes to the process's RSS.
    memory_reserved_bytes: int = 0
    memory_resident_bytes: int = 0
    # Event-loop behaviour (see repro.sim.core.Simulator).  Regressions in
    # scheduling structure show up here before they show up as wall time.
    events_processed: int = 0
    heap_pushes: int = 0
    fastlane_hits: int = 0
    cancelled_popped: int = 0
    # Congestion management (repro.congestion; all zero with ECN off and
    # the static controller).
    ce_marked: int = 0  # frames CE-marked by any switch output queue
    ce_received: int = 0  # CE-marked sequenced frames seen by receivers
    ecn_echoes_sent: int = 0  # acks/nacks/data frames that carried the echo
    ecn_echoes_received: int = 0
    pacing_stall_ns: int = 0  # total token-bucket wait across all NICs
    congestion_controllers: list[str] = field(default_factory=list)
    cwnd_final_mean: float = 0.0  # mean final cwnd over adaptive connections
    # Edge lifecycle (populated when the control plane is in use).
    rails: list["RailCounters"] = field(default_factory=list)
    edge_history: list = field(default_factory=list)  # EdgeTransition, by time
    edges_failed: int = 0  # transitions into DOWN
    edges_recovered: int = 0  # DOWN/RECOVERING -> UP transitions
    frames_migrated: int = 0  # in-flight frames re-striped off dead rails
    # Hybrid-fidelity fast path (repro.fastpath; all zero when disabled).
    ff_jumps: int = 0
    ff_aborts: int = 0
    ff_ops_synthesized: int = 0
    ff_virtual_ns: int = 0  # virtual time covered by closed-form jumps
    ff_bytes: int = 0  # payload bytes moved analytically
    ff_frames: int = 0  # data frames synthesized instead of simulated
    # Crash recovery (repro.recovery; all zero without crash faults).
    node_crashes: int = 0
    node_restarts: int = 0
    peer_down_events: int = 0  # all-edges-DOWN escalations
    reconnects: int = 0
    reconnects_failed: int = 0
    reconnect_latency_mean_ns: float = 0.0
    reconnect_latency_max_ns: int = 0
    stale_frames_rejected: int = 0  # dead-incarnation frames dropped
    duplicate_msgs_suppressed: int = 0  # journal redeliveries deduped
    messages_journaled: int = 0
    messages_redelivered: int = 0
    # Per-switch roll-up, keyed by switch name (repro.fabric gives every
    # fabric switch a distinct name; classic configs list one per rail).
    switches: list["SwitchCounters"] = field(default_factory=list)
    # Gray-failure detection (repro.control.grayscore; empty/zero without
    # enable_gray_detection()).  State residency is summed across every
    # watched edge, keyed by lifecycle state name ("up", "degraded", ...).
    edge_state_time_ns: dict = field(default_factory=dict)
    gray_checks: int = 0
    gray_degrade_marks: int = 0
    gray_degrade_clears: int = 0
    gray_flagged_edges: int = 0  # edges DEGRADED at summary time

    @property
    def frames_dropped(self) -> int:
        """Frames lost anywhere: switch queues, NIC rings, CRC, powered-off
        NICs, and link outages or gray drops on host cables and trunks."""
        return (
            self.switch_drops + self.nic_ring_drops + self.crc_drops
            + self.nic_powered_off_drops
            + self.link_outage_losses + self.link_gray_losses
        )

    @property
    def dropped_queue_full(self) -> int:
        return sum(sc.dropped_queue_full for sc in self.switches)

    @property
    def paused_frames(self) -> int:
        return sum(sc.paused_frames for sc in self.switches)

    @property
    def peak_queue_depth(self) -> int:
        return max((sc.peak_queue_depth for sc in self.switches), default=0)

    @property
    def repins(self) -> int:
        return sum(sc.repins for sc in self.switches)

    @property
    def tier_drops(self) -> dict:
        """Total drops per fabric tier (empty-string tier for classic
        single-switch wiring)."""
        out: dict = {}
        for sc in self.switches:
            out[sc.tier] = out.get(sc.tier, 0) + sc.dropped_total
        return out

    @property
    def fastlane_fraction(self) -> float:
        """Share of scheduled work that skipped the heap."""
        total = self.heap_pushes + self.fastlane_hits
        return self.fastlane_hits / total if total else 0.0

    @property
    def goodput_mbps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.data_bytes / (self.elapsed_ns / 1e9) / 1e6

    @property
    def wire_efficiency(self) -> float:
        """Payload bytes as a fraction of all bytes that crossed any wire."""
        return self.data_bytes / self.wire_bytes if self.wire_bytes else 0.0

    @property
    def interrupt_coalescing_factor(self) -> float:
        """Frames per interrupt (paper Fig 5: 'total coalescing factor')."""
        return self.wire_frames / self.irqs if self.irqs else 0.0

    @property
    def ff_time_coverage_pct(self) -> float:
        """Percent of virtual time simulated analytically (fastpath)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return 100.0 * self.ff_virtual_ns / self.elapsed_ns


def summarize_cluster(
    cluster: Cluster, elapsed_ns: Optional[int] = None
) -> ClusterSummary:
    """Roll up every counter in the cluster into one summary.

    The one place connection, NIC, switch and link counters are summed:
    results read the summary instead of walking the cluster again.  A
    read: summaries at any instants, in any order, change nothing.

    Connection counters start at the last ``reset_measurement()``; device
    counters (NIC, switch, link) run from t=0, as switch and trunk
    conservation and the monitor's ``ecn-mark-conservation`` bound need:
    results subtract ``cluster.reset_summary`` to drop the warm-up.
    """
    stats = merge_stats(
        [s.protocol.total_stats() for s in cluster.stacks]
    )
    # Rates divide by ``elapsed_ns``, else by the time since the last
    # reset_measurement(); edge residency covers the same interval.
    start = cluster.measured_since
    elapsed = cluster.sim.now - start if elapsed_ns is None else elapsed_ns
    end = start + elapsed
    rails = []
    for rail, fabric in enumerate(cluster.fabrics):
        rc = RailCounters(rail)
        links = list(fabric.trunks.values())
        for node in cluster.nodes:
            c = node.nics[rail].counters
            rc.tx_frames += c.tx_frames
            rc.tx_bytes += c.tx_bytes
            rc.rx_frames += c.rx_frames
            rc.ring_drops += c.rx_dropped_ring_full
            rc.crc_drops += c.rx_dropped_crc
            rc.irqs += c.irqs_raised
            rc.powered_off_drops += c.rx_dropped_powered_off
            rc.pacing_stall_ns += c.pacing_stall_ns
            links.append(cluster.cable(node.node_id, rail))
        for cable in links:
            for link in (cable.ab, cable.ba):
                rc.outage_losses += link.frames_lost_outage
                rc.gray_losses += link.frames_lost_gray
        rails.append(rc)
    switch_counters = []
    for sw in cluster.switches:
        q_drops = peak = tx_f = tx_b = paused = 0
        for port in sw.ports:
            q_drops += port.dropped_queue_full
            peak = max(peak, port.peak_queue_depth)
            tx_f += port.tx_frames
            paused += port.paused_frames
            if port.tx_link is not None:
                tx_b += port.tx_link.bytes_delivered
        switch_counters.append(
            SwitchCounters(
                name=sw.name,
                tier=sw.tier,
                forwarded=sw.forwarded,
                dropped_total=sw.dropped_total,
                dropped_queue_full=q_drops,
                ce_marked=sw.ce_marked_total,
                peak_queue_depth=peak,
                tx_frames=tx_f,
                tx_bytes=tx_b,
                ecmp_routed=sw.ecmp_routed,
                repins=sw.repins,
                paused_frames=paused,
            )
        )
    controllers: set[str] = set()
    cwnd_finals: list[int] = []
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            controllers.add(conn.params.congestion)
            if conn.congestion is not None:
                cwnd_finals.append(conn.congestion.cwnd_frames)
    # Incarnation-guard and dedup counts outlive their endpoint: a crash
    # destroys connections, and what they had counted is kept by the
    # recovery coordinator.  (Traffic counters describe live endpoints.)
    stale_rejected = stats.stale_frames_rejected
    dup_suppressed = stats.duplicate_msgs_suppressed
    recovery = cluster.recovery
    recovery_fields: dict = {}
    if recovery is not None:
        stale_rejected += recovery.destroyed_stats.stale_frames_rejected
        dup_suppressed += recovery.destroyed_stats.duplicate_msgs_suppressed
        latencies = [ns for _, ns in recovery.reconnect_latencies]
        recovery_fields = {
            "node_crashes": recovery.crashes,
            "node_restarts": recovery.restarts,
            "peer_down_events": recovery.peer_down_events,
            "reconnects": recovery.reconnects,
            "reconnects_failed": recovery.reconnects_failed,
            "reconnect_latency_mean_ns": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "reconnect_latency_max_ns": max(latencies, default=0),
            "messages_journaled": sum(ch.messages_sent for ch in recovery.channels),
            "messages_redelivered": sum(ch.redeliveries for ch in recovery.channels),
        }
    edge_history = sorted(
        (t for mgr in cluster.control_planes.values() for t in mgr.history),
        key=lambda t: (t.time_ns, t.rail),
    )
    edges_failed = sum(1 for t in edge_history if t.new.value == "down")
    edges_recovered = sum(
        1
        for t in edge_history
        if t.new.value == "up" and t.old.value in ("down", "recovering")
    )
    # Per-state edge residency over [start, end], replayed from each
    # manager's history: an edge is UP from its manager's creation and
    # stays in its last state until `end`.
    planes = cluster.control_planes.values()
    state_time = {st.value: 0 for st in EdgeState} if planes else {}
    for mgr in planes:
        entered = {rail: (mgr.created_ns, "up") for rail in range(len(mgr.detectors))}
        closes = [(t.rail, t.time_ns, t.new.value) for t in mgr.history]
        for rail, t, new in closes + [(rail, end, "") for rail in entered]:
            since, state = entered[rail]
            state_time[state] += max(0, min(t, end) - max(since, start))
            entered[rail] = (t, new)
    scorer = cluster.gray_scorer
    gray_fields: dict = {}
    if scorer is not None:
        gray_fields = {
            "gray_checks": scorer.checks,
            "gray_degrade_marks": scorer.degrade_marks,
            "gray_degrade_clears": scorer.degrade_clears,
            "gray_flagged_edges": len(scorer.flagged),
        }
    ff = cluster.fastpath.stats if cluster.fastpath is not None else None
    n = len(cluster.stacks)
    proto_frac = (
        sum(s.node.protocol_cpu_time() / elapsed for s in cluster.stacks) / n
        if elapsed > 0 and n
        else 0.0
    )
    return ClusterSummary(
        elapsed_ns=elapsed,
        data_frames=stats.data_frames_sent,
        data_bytes=stats.data_bytes_sent,
        explicit_acks=stats.explicit_acks_sent,
        nacks=stats.nacks_sent,
        retransmissions=stats.retransmitted_frames,
        duplicates=stats.duplicate_frames,
        out_of_order_fraction=stats.out_of_order_fraction,
        extra_frame_fraction=stats.extra_frame_fraction,
        mean_reorder_distance=stats.mean_reorder_distance,
        wire_frames=sum(r.tx_frames for r in rails),
        wire_bytes=sum(r.tx_bytes for r in rails),
        irqs=sum(r.irqs for r in rails),
        switch_drops=sum(sc.dropped_total for sc in switch_counters),
        nic_ring_drops=sum(r.ring_drops for r in rails),
        crc_drops=sum(r.crc_drops for r in rails),
        protocol_cpu_fraction_mean=proto_frac,
        nic_powered_off_drops=sum(r.powered_off_drops for r in rails),
        link_outage_losses=sum(r.outage_losses for r in rails),
        link_gray_losses=sum(r.gray_losses for r in rails),
        timeout_retransmits=stats.timeout_retransmits,
        nack_retransmits=stats.nack_retransmits,
        memory_reserved_bytes=sum(
            node.memory.allocated_bytes for node in cluster.nodes
        ),
        memory_resident_bytes=sum(
            node.memory.resident_bytes for node in cluster.nodes
        ),
        events_processed=cluster.sim.events_processed,
        heap_pushes=cluster.sim.heap_pushes,
        fastlane_hits=cluster.sim.fastlane_hits,
        cancelled_popped=cluster.sim.cancelled_popped,
        ce_marked=sum(sc.ce_marked for sc in switch_counters),
        ce_received=stats.ce_frames_received,
        ecn_echoes_sent=stats.ecn_echoes_sent,
        ecn_echoes_received=stats.ecn_echoes_received,
        pacing_stall_ns=sum(r.pacing_stall_ns for r in rails),
        congestion_controllers=sorted(controllers),
        cwnd_final_mean=(
            sum(cwnd_finals) / len(cwnd_finals) if cwnd_finals else 0.0
        ),
        ff_jumps=ff.jumps if ff else 0,
        ff_aborts=ff.aborts if ff else 0,
        ff_ops_synthesized=ff.ops_synthesized if ff else 0,
        ff_virtual_ns=ff.ff_virtual_ns if ff else 0,
        ff_bytes=ff.ff_bytes if ff else 0,
        ff_frames=ff.ff_frames if ff else 0,
        rails=rails,
        edge_history=edge_history,
        edges_failed=edges_failed,
        edges_recovered=edges_recovered,
        frames_migrated=stats.migrated_frames,
        stale_frames_rejected=stale_rejected,
        duplicate_msgs_suppressed=dup_suppressed,
        switches=switch_counters,
        edge_state_time_ns=state_time,
        **recovery_fields,
        **gray_fields,
    )


def ascii_histogram(
    buckets: list[int], labels: Optional[list[str]] = None, width: int = 40
) -> str:
    """Render a histogram as terminal text."""
    if labels is None:
        labels = [str(i + 1) for i in range(len(buckets) - 1)] + [
            f">={len(buckets)}"
        ]
    peak = max(buckets) or 1
    lines = []
    for label, count in zip(labels, buckets):
        bar = "#" * max(0, round(width * count / peak))
        lines.append(f"{label:>5} | {bar} {count}")
    return "\n".join(lines)
