"""Connection setup and teardown over the wire (paper §2.2).

"Before any communication can occur between two nodes, a connection has to
be set up."  :func:`repro.core.api.establish` wires endpoints directly for
benchmark convenience; this module implements the real three-message
protocol the frame types SYN / SYN_ACK / FIN exist for:

* **dial** (active side) — allocate a connection id, send SYN carrying the
  initiator's node id and rail count, retransmit on a timer until the
  SYN_ACK arrives, then instantiate the endpoint with the negotiated rail
  count (the minimum of both sides').
* **listen** (passive side) — on SYN, instantiate the endpoint and answer
  SYN_ACK; duplicate SYNs (retransmissions) re-send the SYN_ACK.
* **close** — drain the send window, then exchange FINs (each side
  retransmits its FIN until it sees the peer's); a closed connection
  rejects new operations and drops stray frames.

The procedures a process runs (``dial``, ``close_connection``) live here;
what a stack does on *receiving* SYN / SYN_ACK / FIN is part of
:class:`~repro.core.protocol.MultiEdgeProtocol`'s frame dispatch, and the
state both halves share is declared there and on the connection.

Address resolution is deterministic in the simulated world — node id n,
rail r always owns MAC ``mac_address(n, r)`` — standing in for ARP.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..ethernet import mac_address
from ..sim import Event, any_of
from .api import ConnectionHandle, MultiEdgeStack
from .connection import ProtocolParams
from .messages import make_syn_frame
from .retransmit import BackoffPolicy

__all__ = ["dial", "enable_listener", "close_connection", "HandshakeError"]

SYN_RETRY_NS = 3_000_000
MAX_RETRIES = 10

# Capped exponential backoff with seeded jitter for handshake retries
# (shared shape with the crash-recovery reconnect loop).  The first retry
# waits SYN_RETRY_NS like the old fixed schedule; subsequent retries back
# off so a dead or partitioned peer is not hammered on a fixed beat.
HANDSHAKE_BACKOFF = BackoffPolicy(
    base_ns=SYN_RETRY_NS,
    factor=2,
    cap_ns=48_000_000,
    jitter_frac=0.1,
    max_attempts=MAX_RETRIES,
)


class HandshakeError(RuntimeError):
    """Connection setup or teardown failed permanently."""


def _conn_id_for(initiator: int, counter: int) -> int:
    """Initiator-unique connection id within the u16 header field."""
    return ((initiator & 0x3F) << 10) | (counter & 0x3FF)


def enable_listener(stack: MultiEdgeStack) -> None:
    """Accept incoming SYNs (and SYN_ACKs, FINs) on this stack (idempotent)."""
    stack.protocol.listening = True


def _wait(sim, event: Event, delay_ns: int) -> Generator[Any, Any, bool]:
    """Wait for ``event``, at most ``delay_ns``; True if it triggered."""
    timeout = Event(sim)
    timer = sim.timer(delay_ns, timeout.trigger)
    index, _ = yield any_of(sim, [event, timeout])
    if index == 0:
        timer.cancel()
    return index == 0


def dial(
    stack: MultiEdgeStack,
    peer_node_id: int,
    params: Optional[ProtocolParams] = None,
    backoff: Optional[BackoffPolicy] = None,
) -> Generator[Any, Any, ConnectionHandle]:
    """Open a connection to ``peer_node_id`` with a SYN/SYN_ACK handshake.

    Run from a simulation process: ``handle = yield from dial(stack, 3)``.
    The peer must have called :func:`enable_listener`.  SYN retries follow
    ``backoff`` (default :data:`HANDSHAKE_BACKOFF`): capped exponential
    delays with seeded jitter.
    """
    enable_listener(stack)  # to receive the SYN_ACK and future FINs
    protocol = stack.protocol
    conn_id = _conn_id_for(stack.node_id, protocol._dial_counter)
    protocol._dial_counter += 1
    sim = stack.node.sim
    policy = backoff or HANDSHAKE_BACKOFF
    rng = protocol.handshake_rng()
    done = protocol._pending_dials[conn_id] = Event(sim)

    nic = stack.node.nics[0]
    for attempt in range(policy.max_attempts):
        syn = make_syn_frame(
            nic.mac, mac_address(peer_node_id, 0), conn_id, stack.node_id
        )
        syn.header.op_length = len(stack.node.nics)
        syn.header.remote_address = protocol.incarnation
        nic.transmit(syn)
        if (yield from _wait(sim, done, policy.delay_ns(attempt, rng))):
            break  # SYN_ACK arrived
    else:
        protocol._pending_dials.pop(conn_id, None)
        raise HandshakeError(
            f"node {stack.node_id}: no SYN_ACK from node {peer_node_id} "
            f"after {policy.max_attempts} attempts"
        )
    peer_rails, peer_incarnation = done.value
    rails = protocol.negotiated_rails(peer_rails)
    peer_macs = [mac_address(peer_node_id, r) for r in range(rails)]
    conn = protocol.create_connection(conn_id, peer_node_id, peer_macs, params)
    conn.peer_incarnation = peer_incarnation
    return ConnectionHandle(conn, stack.node)


def close_connection(
    stack: MultiEdgeStack, handle: ConnectionHandle
) -> Generator[Any, Any, None]:
    """Gracefully close: drain in-flight frames, exchange FINs."""
    enable_listener(stack)
    conn = handle.conn
    sim = stack.node.sim
    # Drain: wait until everything sent has been acknowledged.
    waited = 0
    while conn.window.in_flight_count or conn.unsent_frames:
        yield 200_000
        waited += 1
        if waited > 10_000:
            raise HandshakeError("close(): send window never drained")
    if conn._fin_event is None:
        conn._fin_event = Event(sim)
    conn.fin_sent = True
    policy = HANDSHAKE_BACKOFF
    rng = stack.protocol.handshake_rng()
    for attempt in range(policy.max_attempts):
        stack.protocol.send_fin(conn)
        if conn.fin_received:
            break
        if (yield from _wait(sim, conn._fin_event, policy.delay_ns(attempt, rng))):
            break
    conn.closed = True
