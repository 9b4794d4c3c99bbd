"""Go-back-N retransmission baseline.

MultiEdge recovers losses with *selective repeat*: NACKs name exactly the
missing frames.  The classic alternative — what a TCP-without-SACK-style
transport would do — is go-back-N: on loss, rewind and retransmit
everything from the first missing frame.  This baseline subclasses the
MultiEdge connection and overrides only the recovery decisions, so an
ablation can quantify what selective repeat buys on lossy links.
"""

from __future__ import annotations

from ..core.connection import Connection
from ..core.protocol import MultiEdgeProtocol
from ..core.retransmit import NACK_HOLDOFF_NS

__all__ = ["GoBackNConnection", "install_go_back_n"]


class GoBackNConnection(Connection):
    """Connection variant with go-back-N loss recovery."""

    def _process_nack(self, missing: list[int]) -> None:
        """Rewind: queue every unacked frame from the first missing one."""
        if not missing:
            return
        first = min(missing)
        queued = set(self._retransmit_q)
        now = self.sim.now
        rewind = sorted(
            seq for seq in self.window.inflight if seq >= first
        )
        if not rewind:
            return
        oldest = self.window.inflight[rewind[0]]
        if now - oldest.last_sent_at < NACK_HOLDOFF_NS:
            return
        for seq in rewind:
            if seq in queued:
                continue
            self._queue_retransmit(seq)
            self.stats.nack_retransmits += 1

    def _on_coarse_timeout(self) -> None:
        """Timeout: rewind to the oldest unacked frame."""
        rec = self.window.oldest_unacked()
        if rec is None:
            return
        self.stats.timeout_retransmits += 1
        queued = set(self._retransmit_q)
        for seq in sorted(self.window.inflight):
            if seq not in queued:
                self._queue_retransmit(seq)
        self.sim.process(self._timer_pump())
        self.retransmit_timer.arm()


def install_go_back_n(protocol: MultiEdgeProtocol) -> None:
    """Make every *future* connection of this protocol use go-back-N."""

    original = protocol.create_connection

    def create(conn_id, peer_node_id, peer_macs, params=None):
        if conn_id in protocol.connections:
            raise ValueError(f"connection id {conn_id} already exists")
        conn = GoBackNConnection(
            protocol, conn_id, peer_node_id, peer_macs, params or protocol.params
        )
        protocol.connections[conn_id] = conn
        return conn

    protocol.create_connection = create  # type: ignore[method-assign]
