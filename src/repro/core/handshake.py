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

Address resolution is deterministic in the simulated world — node id n,
rail r always owns MAC ``mac_address(n, r)`` — standing in for ARP.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..ethernet import FrameType, mac_address
from ..sim import Event
from .api import ConnectionHandle, MultiEdgeStack
from .connection import Connection, ProtocolParams
from .messages import make_syn_ack_frame, make_syn_frame
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


def _handshake_rng(protocol) -> random.Random:
    """Per-stack jitter stream, seeded by node id for determinism."""
    rng = getattr(protocol, "_handshake_rng", None)
    if rng is None:
        rng = random.Random(f"multiedge-handshake:{protocol.node.node_id}")
        protocol._handshake_rng = rng
    return rng


class HandshakeError(RuntimeError):
    """Connection setup or teardown failed permanently."""


def _conn_id_for(initiator: int, counter: int) -> int:
    """Initiator-unique connection id within the u16 header field."""
    return ((initiator & 0x3F) << 10) | (counter & 0x3FF)


def enable_listener(stack: MultiEdgeStack) -> None:
    """Accept incoming SYNs on this stack (idempotent)."""
    protocol = stack.protocol
    if getattr(protocol, "_listener_enabled", False):
        return
    protocol._listener_enabled = True
    protocol._pending_dials = getattr(protocol, "_pending_dials", {})

    original_handle = protocol.handle_frame

    def handle_frame(frame, cpu):
        h = frame.header
        if h.frame_type == FrameType.SYN:
            yield from cpu.run(stack.node.params.per_frame_recv_ns, "protocol.recv")
            _accept(stack, h.connection_id, peer_node=h.op_id,
                    peer_rails=h.op_length,
                    peer_incarnation=h.remote_address)
            return
        if h.frame_type == FrameType.SYN_ACK:
            yield from cpu.run(stack.node.params.per_frame_recv_ns, "protocol.recv")
            pending = protocol._pending_dials.pop(h.connection_id, None)
            if pending is not None and not pending["event"].triggered:
                pending["peer_rails"] = h.op_length
                pending["peer_incarnation"] = h.remote_address
                pending["event"].trigger(h.op_length)
            return
        if h.frame_type == FrameType.FIN:
            yield from cpu.run(stack.node.params.per_frame_recv_ns, "protocol.recv")
            conn = protocol.connections.get(h.connection_id)
            if conn is not None:
                _on_fin(stack, conn)
            return
        yield from original_handle(frame, cpu)

    protocol.handle_frame = handle_frame  # type: ignore[method-assign]


def _rails_between(stack: MultiEdgeStack, peer_rails: int) -> int:
    return max(1, min(len(stack.node.nics), peer_rails))


def _accept(
    stack: MultiEdgeStack,
    conn_id: int,
    peer_node: int,
    peer_rails: int,
    peer_incarnation: int = 0,
) -> None:
    protocol = stack.protocol
    rails = _rails_between(stack, peer_rails)
    existing = protocol.connections.get(conn_id)
    if existing is not None and existing.peer_incarnation != peer_incarnation:
        # A new incarnation of the peer is re-dialing a connection id we
        # still hold: the old endpoint belongs to a dead incarnation and
        # must not absorb the fresh handshake.  Route the destruction
        # through the recovery layer when present so monitors detach and
        # counters are salvaged.
        recovery = getattr(protocol, "recovery", None)
        if recovery is not None:
            from .errors import PeerCrashed

            recovery._teardown_connection(
                existing, PeerCrashed(conn_id, peer_node)
            )
        else:
            existing.destroy()
        existing = None
    if existing is None:
        peer_macs = [mac_address(peer_node, r) for r in range(rails)]
        conn = protocol.create_connection(conn_id, peer_node, peer_macs)
        conn.peer_incarnation = peer_incarnation
    # Always answer — duplicate SYNs mean our previous SYN_ACK was lost.
    nic = stack.node.nics[0]
    reply = make_syn_ack_frame(
        nic.mac, mac_address(peer_node, 0), conn_id, stack.node_id
    )
    reply.header.op_length = len(stack.node.nics)
    reply.header.remote_address = getattr(protocol, "incarnation", 0)
    nic.transmit(reply)


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
    counter = getattr(protocol, "_dial_counter", 0)
    protocol._dial_counter = counter + 1
    conn_id = _conn_id_for(stack.node_id, counter)
    sim = stack.node.sim
    policy = backoff or HANDSHAKE_BACKOFF
    rng = _handshake_rng(protocol)
    incarnation = getattr(protocol, "incarnation", 0)

    done = Event(sim)
    pending = {"event": done, "peer_rails": 0, "peer_incarnation": 0}
    protocol._pending_dials[conn_id] = pending

    nic = stack.node.nics[0]
    for attempt in range(policy.max_attempts):
        syn = make_syn_frame(
            nic.mac, mac_address(peer_node_id, 0), conn_id, stack.node_id
        )
        syn.header.op_length = len(stack.node.nics)
        syn.header.remote_address = incarnation
        nic.transmit(syn)
        timeout = Event(sim)
        timer = sim.timer(policy.delay_ns(attempt, rng), timeout.trigger)
        from ..sim import any_of

        winner = yield any_of(sim, [done, timeout])
        if winner[0] == 0:  # SYN_ACK arrived
            timer.cancel()
            break
    else:
        protocol._pending_dials.pop(conn_id, None)
        raise HandshakeError(
            f"node {stack.node_id}: no SYN_ACK from node {peer_node_id} "
            f"after {policy.max_attempts} attempts"
        )
    peer_rails = done.value
    rails = _rails_between(stack, peer_rails)
    peer_macs = [mac_address(peer_node_id, r) for r in range(rails)]
    conn = protocol.create_connection(conn_id, peer_node_id, peer_macs, params)
    conn.peer_incarnation = pending["peer_incarnation"]
    return ConnectionHandle(conn, stack.node)


# ---------------------------------------------------------------------------
# Teardown
# ---------------------------------------------------------------------------

def _send_fin(stack: MultiEdgeStack, conn: Connection) -> None:
    from ..ethernet import Frame, FrameType as FT, MultiEdgeHeader as Hdr

    nic = stack.node.nics[0]
    header = Hdr(frame_type=FT.FIN, connection_id=conn.conn_id,
                 op_id=stack.node_id)
    nic.transmit(
        Frame(src_mac=nic.mac, dst_mac=conn.peer_macs[0], header=header)
    )


def _on_fin(stack: MultiEdgeStack, conn: Connection) -> None:
    first_time = not getattr(conn, "fin_received", False)
    conn.fin_received = True
    conn.closed = True
    if first_time or not getattr(conn, "fin_sent", False):
        # Echo a FIN so the peer's close() completes even if ours raced.
        conn.fin_sent = True
        _send_fin(stack, conn)
    ev = getattr(conn, "_fin_event", None)
    if ev is not None and not ev.triggered:
        ev.trigger()


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
    conn._fin_event = getattr(conn, "_fin_event", None) or Event(sim)
    conn.fin_sent = True
    policy = HANDSHAKE_BACKOFF
    rng = _handshake_rng(stack.protocol)
    for attempt in range(policy.max_attempts):
        _send_fin(stack, conn)
        if getattr(conn, "fin_received", False):
            break
        timeout = Event(sim)
        timer = sim.timer(policy.delay_ns(attempt, rng), timeout.trigger)
        from ..sim import any_of

        winner = yield any_of(sim, [conn._fin_event, timeout])
        if winner[0] == 0:
            timer.cancel()
            break
    conn.closed = True
