"""Per-node protocol layer: the kernel driver client.

:class:`MultiEdgeProtocol` is the kernel-level MultiEdge layer of one node
(paper Figure 1, middle box).  It owns every connection terminating at the
node, dispatches received frames to them, answers the connection-management
frames (SYN / SYN_ACK / FIN — the passive half of :mod:`repro.core.handshake`),
reacts to TX-ring completions by re-pumping stalled connections, and
provides the op-id namespace.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..ethernet import Frame, FrameType, MultiEdgeHeader, Nic, mac_address
from ..host import Node
from ..host.params import PER_FRAME_RECV_NS
from .connection import Connection, ProtocolParams
from .errors import PeerCrashed
from .messages import make_syn_ack_frame
from .stats import ConnectionStats, merge_stats

__all__ = ["MultiEdgeProtocol"]

# Protocol CPU to reclaim one batch of freed TX descriptors.
TX_COMPLETE_NS = 400

# Connection-management frame types are contiguous: one range test.
_SYN = int(FrameType.SYN)
_FIN = int(FrameType.FIN)
assert _SYN < FrameType.SYN_ACK < _FIN == _SYN + 2


class MultiEdgeProtocol:
    """The MultiEdge kernel protocol layer of one node."""

    def __init__(self, node: Node, params: Optional[ProtocolParams] = None) -> None:
        self.node = node
        self.params = params or ProtocolParams()
        self.connections: dict[int, Connection] = {}
        # Connections that may have something queued, by creation number;
        # each registers itself (Connection._enqueue) and the TX-completion
        # walk prunes it once its queues are empty.
        self.queued: dict[int, Connection] = {}
        self.connections_created = 0
        self._next_op_id = 1
        self.unknown_connection_frames = 0
        # Crash recovery (repro.recovery): the node's monotonically
        # increasing incarnation number, bumped on every restart, and the
        # cluster-level recovery coordinator (None when crashes are not
        # modelled — the default path must not change).
        self.incarnation = 0
        self.recovery: Optional[Any] = None
        # Connection management (repro.core.handshake).  A stack that never
        # enabled its listener counts and drops SYN / SYN_ACK / FIN frames.
        self.listening = False
        self.handshake_frames_dropped = 0
        self.reset_handshake()
        node.kernel.attach_client(self)

    def reset_handshake(self) -> None:
        """Forget the volatile dial state (at construction, and in a crash:
        a reborn node restarts its dial counter, which is why connection ids
        can collide across incarnations and the incarnation check exists)."""
        # conn_id -> Event a dial waits on; a SYN_ACK triggers it with the
        # peer's (rail count, incarnation).
        self._pending_dials: dict[int, Any] = {}
        self._dial_counter = 0
        self._handshake_rng: Optional[random.Random] = None

    def handshake_rng(self) -> random.Random:
        """Per-stack retry-jitter stream, seeded by node id for determinism."""
        if self._handshake_rng is None:
            self._handshake_rng = random.Random(
                f"multiedge-handshake:{self.node.node_id}"
            )
        return self._handshake_rng

    # -- connection management -------------------------------------------

    def create_connection(
        self,
        conn_id: int,
        peer_node_id: int,
        peer_macs: list[int],
        params: Optional[ProtocolParams] = None,
    ) -> Connection:
        """Instantiate the local endpoint of a connection."""
        if conn_id in self.connections:
            raise ValueError(f"connection id {conn_id} already exists")
        conn = Connection(
            self, conn_id, peer_node_id, peer_macs, params or self.params
        )
        self.connections[conn_id] = conn
        if self.recovery is not None:
            self.recovery.on_connection_created(self, conn)
        return conn

    def allocate_op_id(self) -> int:
        op_id = self._next_op_id
        self._next_op_id += 1
        return op_id

    # -- DriverClient interface (called from the kernel thread) -----------

    def handle_frame(self, frame: Frame, cpu) -> Generator[Any, Any, None]:
        # Not a generator function: returning the connection's generator
        # directly keeps it out of the per-resume delegation chain (the
        # kernel thread drives one of these per received frame).
        h = frame.header
        if _SYN <= h.frame_type <= _FIN:
            return self._handle_handshake(h, cpu)
        conn = self.connections.get(h.connection_id)
        if conn is None:
            self.unknown_connection_frames += 1
            return iter(())
        return conn.handle_rx_frame(frame, cpu)

    # -- connection management (passive side of repro.core.handshake) ------

    def _handle_handshake(
        self, h: MultiEdgeHeader, cpu
    ) -> Generator[Any, Any, None]:
        if not self.listening:
            self.handshake_frames_dropped += 1
            return
        yield cpu.hold(PER_FRAME_RECV_NS, "protocol.recv")
        if h.frame_type == FrameType.SYN:
            self._accept(h)
        elif h.frame_type == FrameType.SYN_ACK:
            pending = self._pending_dials.pop(h.connection_id, None)
            if pending is not None and not pending.triggered:
                pending.trigger((h.op_length, h.remote_address))
        else:
            conn = self.connections.get(h.connection_id)
            if conn is not None:
                self._on_fin(conn)

    def negotiated_rails(self, peer_rails: int) -> int:
        return max(1, min(len(self.node.nics), peer_rails))

    def _accept(self, syn: MultiEdgeHeader) -> None:
        conn_id, peer_node, peer_incarnation = (
            syn.connection_id, syn.op_id, syn.remote_address
        )
        existing = self.connections.get(conn_id)
        if existing is not None and existing.peer_incarnation != peer_incarnation:
            # A new incarnation of the peer is re-dialing a connection id we
            # still hold: the old endpoint belongs to a dead incarnation and
            # must not absorb the fresh handshake.  Route the destruction
            # through the recovery layer when present so monitors detach and
            # counters are salvaged.
            if self.recovery is not None:
                self.recovery._teardown_connection(
                    existing, PeerCrashed(conn_id, peer_node)
                )
            else:
                existing.destroy()
            existing = None
        if existing is None:
            rails = self.negotiated_rails(syn.op_length)
            peer_macs = [mac_address(peer_node, r) for r in range(rails)]
            conn = self.create_connection(conn_id, peer_node, peer_macs)
            conn.peer_incarnation = peer_incarnation
        # Always answer — duplicate SYNs mean our previous SYN_ACK was lost.
        nic = self.node.nics[0]
        reply = make_syn_ack_frame(
            nic.mac, mac_address(peer_node, 0), conn_id, self.node.node_id
        )
        reply.header.op_length = len(self.node.nics)
        reply.header.remote_address = self.incarnation
        nic.transmit(reply)

    def send_fin(self, conn: Connection) -> None:
        nic = self.node.nics[0]
        header = MultiEdgeHeader(
            frame_type=FrameType.FIN,
            connection_id=conn.conn_id,
            op_id=self.node.node_id,
        )
        nic.transmit(Frame(nic.mac, conn.peer_macs[0], header))

    def _on_fin(self, conn: Connection) -> None:
        first_time = not conn.fin_received
        conn.fin_received = True
        conn.closed = True
        if first_time or not conn.fin_sent:
            # Echo a FIN so the peer's close() completes even if ours raced.
            conn.fin_sent = True
            self.send_fin(conn)
        if conn._fin_event is not None and not conn._fin_event.triggered:
            conn._fin_event.trigger()

    def handle_tx_completions(
        self, nic: Nic, count: int, cpu
    ) -> Generator[Any, Any, None]:
        yield cpu.hold(TX_COMPLETE_NS, "protocol.send")
        # Freed descriptors may unblock stalled connections.  Only one with
        # something queued can have send work.  They are visited in creation
        # order, which is the order of self.connections, and the next one is
        # chosen only when the previous pump returns: one that gains work
        # meanwhile is reached if it comes later, as in a walk of the dict,
        # and a connection created or destroyed meanwhile upsets nothing.
        queued = self.queued
        last = -1
        while True:
            nxt = None
            for order in queued:
                if last < order and (nxt is None or order < nxt):
                    nxt = order
            if nxt is None:
                return
            last = nxt
            conn = queued[last]
            if not (conn.unsent or conn._retransmit_q):
                del queued[last]
            elif conn.has_send_work():
                yield from conn.pump(cpu)

    # -- aggregate statistics ----------------------------------------------

    def total_stats(self) -> ConnectionStats:
        return merge_stats([c.stats for c in self.connections.values()])
