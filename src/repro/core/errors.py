"""Typed protocol failure conditions.

Before crash recovery existed, the only ways an operation could fail were
a generic ``RuntimeError`` (submit on a closed connection) or silent
stalling when the coarse retransmit timer gave up.  With fail-stop node
crashes in the model, callers need to distinguish *why* an op died:

* :class:`RetransmitExhausted` — the coarse retransmit timer fired
  ``MAX_RETRIES`` consecutive times without ack progress; the peer may be
  dead or the path may be black-holed.  The connection state is intact;
  the caller may keep waiting (progress clears the condition) or tear
  the connection down.
* :class:`PeerCrashed` — the peer's node was declared crashed (all edges
  DOWN, or an explicit crash fault destroyed the endpoint).  The
  connection's volatile state is gone; pending ops can never complete on
  this incarnation and the recovery layer (if enabled) will redeliver
  journaled messages on the next one.

Both derive from :class:`MultiEdgeError` so callers can catch the family.
"""

from __future__ import annotations

__all__ = ["MultiEdgeError", "RetransmitExhausted", "PeerCrashed"]


class MultiEdgeError(RuntimeError):
    """Base class for typed MultiEdge protocol failures."""


class RetransmitExhausted(MultiEdgeError):
    """Coarse retransmit retries exhausted with no ack progress."""

    def __init__(self, conn_id: int, consecutive_timeouts: int) -> None:
        super().__init__(
            f"connection {conn_id}: {consecutive_timeouts} consecutive "
            "retransmit timeouts without ack progress"
        )
        self.conn_id = conn_id
        self.consecutive_timeouts = consecutive_timeouts


class PeerCrashed(MultiEdgeError):
    """The remote node crashed; this connection incarnation is dead."""

    def __init__(self, conn_id: int, peer_node: int) -> None:
        super().__init__(f"connection {conn_id}: peer node {peer_node} crashed")
        self.conn_id = conn_id
        self.peer_node = peer_node
