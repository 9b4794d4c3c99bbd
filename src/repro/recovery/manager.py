"""Cluster-level crash/restart coordinator.

:class:`ClusterRecovery` owns everything about node failure that is wider
than one connection:

* **Incarnations.**  Each node carries a monotonically increasing
  incarnation number, bumped on every restart and mirrored into
  ``protocol.incarnation``.  The SYN/SYN_ACK handshake exchanges it, every
  frame is stamped with the sender's current value, and the receive path
  rejects frames whose incarnation does not match what the endpoint
  negotiated — so traffic from a dead incarnation can never be absorbed by
  a connection belonging to a live one.
* **Crash.**  :meth:`crash` atomically destroys a node's volatile state:
  every connection endpoint (pending operations fail with
  :class:`~repro.core.PeerCrashed`), its control planes, its handshake
  scratch state (dial counter, pending dials), its sender-side journals,
  and its NICs (rings cleared, in-flight DMA dropped, power off).  The
  per-node *delivery log* — the ``(sender, incarnation, seq)`` dedup set —
  survives, modelling an application-durable log.
* **Restart.**  :meth:`restart` bumps the incarnation, powers the NICs
  back on and re-enables the SYN listener.
* **PEER_DOWN escalation.**  When an
  :class:`~repro.control.EdgeLifecycleManager` reports every edge of a
  peer DOWN, it calls :meth:`~ClusterRecovery.on_peer_down` of its
  stack's ``protocol.recovery``: the surviving endpoint is torn down and
  a reconnect loop dials the peer with capped exponential backoff +
  seeded jitter.  On success the cluster's cached handles are refreshed,
  edge control is re-armed, and any
  :class:`~repro.recovery.ReliableChannel` bound to the pair replays its
  unacked suffix.

Recovery is itself a layer (:class:`~repro.core.Layer`).  The other
layers are found on the cluster when a crash or a reconnect happens, not
subscribed when they are built: every entry of ``cluster.layers`` hears
``on_node_crashed(node)`` and ``on_pair_reconnected(node, peer)``, in
construction order, and repairs its own per-node or per-pair state.  Any
build order gives the same run.
"""

from __future__ import annotations

from typing import Any, Generator

from ..core.api import ConnectionHandle
from ..core.errors import PeerCrashed
from ..core.handshake import HandshakeError, dial, enable_listener
from ..core.layer import Layer
from ..core.retransmit import BackoffPolicy
from ..core.stats import ConnectionStats, merge_stats
from .journal import ReliableChannel

__all__ = [
    "RECONNECT_BACKOFF",
    "reconnect_bound_ns",
    "NodeRecoveryState",
    "ClusterRecovery",
]

# The peer-down reconnect dial's backoff.
RECONNECT_BACKOFF = BackoffPolicy(
    base_ns=1_000_000,
    factor=2,
    cap_ns=50_000_000,
    jitter_frac=0.1,
    max_attempts=16,
)
# Slack added to the derived reconnect bound: one handshake RTT plus
# scheduling noise.
RECONNECT_MARGIN_NS = 2_000_000


def reconnect_bound_ns(restart_delay_ns: int = 0) -> int:
    """Worst-case detection-to-reconnected time.

    The reconnect dial must outlast the peer's remaining boot time
    (``restart_delay_ns``) and then land one more SYN; the backoff
    policy's worst-case total bounds the dial itself.
    """
    return (
        restart_delay_ns
        + RECONNECT_BACKOFF.worst_case_total_ns()
        + RECONNECT_MARGIN_NS
    )


class NodeRecoveryState:
    """Per-node recovery bookkeeping."""

    __slots__ = ("node_id", "incarnation", "crashed", "delivered")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.incarnation = 0
        self.crashed = False
        # Durable delivery log of this node *as a receiver*:
        # (sender_node, sender_incarnation, op_seq) for every journaled
        # message ever applied.  Survives crashes — redelivered messages
        # from any past epoch are suppressed exactly once.
        self.delivered: set[tuple[int, int, int]] = set()


class ClusterRecovery(Layer):
    """Crash, restart, and reconnect coordination for one cluster; a layer
    that a crash or restart fault's schedule builds when it is applied."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.nodes: dict[int, NodeRecoveryState] = {
            s.node_id: NodeRecoveryState(s.node_id) for s in cluster.stacks
        }
        self.channels: list[ReliableChannel] = []

        self.crashes = 0
        self.restarts = 0
        self.peer_down_events = 0
        self.reconnects = 0
        self.reconnects_failed = 0
        self.reconnect_latencies: list[tuple[int, int]] = []  # (at_ns, ns)
        # What destroyed endpoints had counted, merged, so their stale-frame
        # and duplicate-suppression counts survive them (summarize_cluster).
        self.destroyed_stats = ConnectionStats()

        for stack in cluster.stacks:
            stack.protocol.recovery = self
            stack.protocol.incarnation = self.nodes[stack.node_id].incarnation
            for conn in list(stack.protocol.connections.values()):
                self.on_connection_created(stack.protocol, conn)

    # -- wiring ------------------------------------------------------------

    def on_connection_created(self, protocol, conn) -> None:
        """Hook from ``MultiEdgeProtocol.create_connection``."""
        conn.local_incarnation = protocol.incarnation
        peer_state = self.nodes.get(conn.peer_node_id)
        if peer_state is not None:
            # Cluster-level knowledge stands in for the handshake when the
            # endpoint is wired out of band (establish()); a real dial or
            # accept overwrites this with the value from the wire — which
            # is the same number.
            conn.peer_incarnation = peer_state.incarnation
        # Connections created mid-run (reconnects) are monitored too.
        if self.sim.monitor is not None:
            self.sim.monitor.attach_connection(conn)

    # -- layer hooks ---------------------------------------------------------

    def summarize(self, fields: dict) -> None:
        """Recovery's counters, plus the incarnation-guard and dedup counts
        of destroyed endpoints (traffic counts describe live ones only)."""
        destroyed = self.destroyed_stats
        fields["stale_frames_rejected"] += destroyed.stale_frames_rejected
        fields["duplicate_msgs_suppressed"] += destroyed.duplicate_msgs_suppressed
        latencies = [ns for _, ns in self.reconnect_latencies]
        fields.update(
            node_crashes=self.crashes,
            node_restarts=self.restarts,
            peer_down_events=self.peer_down_events,
            reconnects=self.reconnects,
            reconnects_failed=self.reconnects_failed,
            reconnect_latency_mean_ns=(
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            reconnect_latency_max_ns=max(latencies, default=0),
            messages_journaled=sum(ch.messages_sent for ch in self.channels),
            messages_redelivered=sum(ch.redeliveries for ch in self.channels),
        )

    def check_invariants(self) -> list[tuple[str, str, str]]:
        """Journal conservation and delivered-implies-logged, per channel."""
        problems = []
        for ch in self.channels:
            where = f"channel {ch.src}->{ch.dst}"
            entries = ch.journal.entries
            problems += [
                ("journal-jseq-gap", f"entry {i} carries jseq {e.jseq}", where)
                for i, e in enumerate(entries) if e.jseq != i
            ]
            delivered = sum(1 for e in entries if e.delivered)
            if delivered != ch.journal.delivered_count:
                problems.append(("journal-conservation", (
                    f"delivered_count {ch.journal.delivered_count} != "
                    f"{delivered} delivered entries (of {len(entries)})"
                ), where))
            if ch.dead is None:  # a crashed sender's journal is fail-stop garbage
                inc, log = self.nodes[ch.src].incarnation, self.nodes[ch.dst].delivered
                problems += [
                    ("journal-delivered-unlogged", f"entry {e.jseq} acked but absent "
                     "from the receiver's delivery log", where)
                    for e in entries if e.delivered and (ch.src, inc, e.jseq) not in log
                ]
        return problems

    def channel(self, src: int, dst: int) -> ReliableChannel:
        """Create a journaled exactly-once channel from ``src`` to ``dst``."""
        return ReliableChannel(self, src, dst)  # registers itself

    # -- receiver-side dedup ----------------------------------------------

    def accept_delivery(self, conn, rx_op) -> bool:
        """Exactly-once filter for journaled messages (see Connection)."""
        log = self.nodes[conn.node.node_id].delivered
        key = (conn.peer_node_id, conn.peer_incarnation, rx_op.op_seq)
        if key in log:
            return False
        log.add(key)
        return True

    # -- crash / restart ----------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Atomically destroy the node's volatile state (fail-stop)."""
        st = self.nodes[node_id]
        if st.crashed:
            return
        st.crashed = True
        self.crashes += 1
        stack = self.cluster.stacks[node_id]
        protocol = stack.protocol
        # The node's control planes die with it.
        for key in [k for k in self.cluster.control_planes if k[0] == node_id]:
            self.cluster.control_planes.pop(key).stop()
        # Every connection endpoint: windows, retransmit queues, pending
        # operations (their waiters are on the dead node too, but failing
        # them keeps driver processes from hanging forever).
        for conn in list(protocol.connections.values()):
            self._teardown_connection(conn, PeerCrashed(conn.conn_id, node_id))
        protocol.reset_handshake()  # dial scratch state is volatile
        # Sender-side journals are volatile with the node: unacked
        # messages of a crashed sender are lost (fail-stop), and its next
        # incarnation opens a fresh dedup key space.
        for ch in self.channels:
            if ch.dead is None and ch.src == node_id:
                ch.fail(PeerCrashed(-1, node_id))
        # Cached handles touching the node are dead.
        for key in [k for k in self.cluster._connections if node_id in k]:
            del self.cluster._connections[key]
        # NIC rings and in-flight DMA die with the power.
        for nic in stack.node.nics:
            nic.power_off()
        for layer in self.cluster.layers:
            layer.on_node_crashed(node_id)

    def restart(self, node_id: int) -> None:
        """Bring a crashed node back as a fresh incarnation."""
        st = self.nodes[node_id]
        if not st.crashed:
            return
        st.crashed = False
        st.incarnation += 1
        self.restarts += 1
        stack = self.cluster.stacks[node_id]
        stack.protocol.incarnation = st.incarnation
        for nic in stack.node.nics:
            nic.power_on()
        enable_listener(stack)

    # -- peer-down escalation + reconnect ----------------------------------

    def _teardown_connection(self, conn, exc: BaseException) -> None:
        self.destroyed_stats = merge_stats([self.destroyed_stats, conn.stats])
        if self.sim.monitor is not None:
            self.sim.monitor.detach_connection(conn)
        conn.destroy(exc)

    def on_peer_down(self, mgr) -> None:
        """Every edge of ``mgr``'s peer is DOWN (from the lifecycle manager)."""
        conn = mgr.conn
        node_id = conn.node.node_id
        peer = conn.peer_node_id
        if self.nodes[node_id].crashed:
            return  # it is *this* node that died, not the peer
        self.peer_down_events += 1
        detected_at = self.sim.now
        mgr.stop()
        self.cluster.control_planes.pop((node_id, peer), None)
        self._teardown_connection(conn, PeerCrashed(conn.conn_id, peer))
        for ch in self.channels:
            if ch.dead is None and ch.src == node_id and ch.dst == peer:
                ch.on_connection_lost()
        self.sim.process(
            self._reconnect(node_id, peer, detected_at),
            name=f"recovery.reconnect.{node_id}->{peer}",
        )

    def _reconnect(
        self, node_id: int, peer: int, detected_at: int
    ) -> Generator[Any, Any, None]:
        stack = self.cluster.stacks[node_id]
        try:
            handle = yield from dial(
                stack,
                peer,
                self.cluster.config.protocol,
                backoff=RECONNECT_BACKOFF,
            )
        except HandshakeError:
            self.reconnects_failed += 1
            for ch in self.channels:
                if ch.dead is None and ch.src == node_id and ch.dst == peer:
                    ch.fail(PeerCrashed(-1, peer))
            return
        latency = self.sim.now - detected_at
        self.reconnects += 1
        self.reconnect_latencies.append((self.sim.now, latency))
        # Refresh the cluster's cached pair with the fresh endpoints.
        peer_stack = self.cluster.stacks[peer]
        peer_conn = peer_stack.protocol.connections.get(handle.conn.conn_id)
        if peer_conn is not None:
            peer_handle = ConnectionHandle(peer_conn, peer_stack.node)
            key = (min(node_id, peer), max(node_id, peer))
            self.cluster._connections[key] = (
                (handle, peer_handle) if node_id < peer
                else (peer_handle, handle)
            )
        # Re-create the edge lifecycle control plane on the reconnected
        # pair so a *second* crash of the same peer is detected too.
        self.cluster.enable_edge_control(node_id, peer)
        for ch in self.channels:
            if ch.dead is None and ch.src == node_id and ch.dst == peer:
                ch.rebind(handle)
        # After the cached handles are refreshed, so each layer rebuilds
        # its per-pair state on the fresh endpoints.
        for layer in self.cluster.layers:
            layer.on_pair_reconnected(node_id, peer)
