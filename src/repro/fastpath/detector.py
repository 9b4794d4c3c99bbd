"""Steady-state detector: may this connection fast-forward right now?

:func:`disqualify_reason` is a pure inspection — it draws no random
numbers, touches no striping deficits, and schedules nothing — so a run
with fastpath *enabled but never armed* stays event-for-event identical
to a run without the subsystem.  It returns ``None`` when the flow is in
analytic steady state, or a stable reason string naming the first
disqualifying condition found (cheapest checks first).

The arming predicate, spelled out (see DESIGN.md "Hybrid fidelity"):
window fully open or cwnd-stable, zero loss (no retransmit queue, no
receive gaps, nothing in flight), no ECN marks or echoes pending, no
fence/failover/journal activity on the edge set, no fault in effect on a
node, NIC or link of the path (``impairment is None``), an otherwise
quiet fabric, and a transfer shape the closed-form model covers.
"""

from __future__ import annotations

from ..ethernet.frame import OpFlags

__all__ = ["disqualify_reason", "UNSUPPORTED_OP_FLAGS"]

# Operation shapes the closed-form model does not cover: fences change
# completion ordering, scatter payloads change receiver memory traffic,
# journaled messages need dedup bookkeeping.  Reads are rejected by kind.
UNSUPPORTED_OP_FLAGS = (
    OpFlags.FENCE_BACKWARD | OpFlags.FENCE_FORWARD
    | OpFlags.SCATTER | OpFlags.JOURNALED
)


def disqualify_reason(fwd):
    """``None`` if ``fwd.conn`` may arm, else the disqualifying reason."""
    conn = fwd.conn
    peer = fwd.peer

    # The invariant monitor checks per-event conservation laws that a
    # closed-form jump satisfies only at op boundaries; monitored runs
    # stay frame-level so every invariant holds at every instant.
    if conn.sim.monitor is not None:
        return "monitor-attached"
    if conn.closed or peer.closed:
        return "connection-closed"

    # Crash recovery: incarnation stamping and journal replay are
    # discontinuities by definition.
    recovery = conn.recovery or peer.recovery
    if recovery is not None:
        for channel in recovery.channels:
            if channel._ready is not None:
                return "journal-replay-in-flight"
        return "recovery-active"

    # Zero-loss steady state: nothing queued for retransmission, nothing
    # unacknowledged in flight, no receive gaps on either side.
    if conn._retransmit_q or peer._retransmit_q:
        return "open-loss-episode"
    if conn.window.inflight or peer.window.inflight:
        return "frames-in-flight"
    if conn.tracker.has_gap() or peer.tracker.has_gap():
        return "open-loss-episode"

    # ECN: no mark may be pending anywhere on the path and no echo debt
    # outstanding; marking itself is a discontinuity, so fabrics with
    # marking enabled stay frame-level entirely.
    if conn.ack_policy.echo_pending or peer.ack_policy.echo_pending:
        return "pending-ecn-echo"

    # Ack machinery quiescent: no unacked receive credit, no armed
    # delayed-ack/NACK timers whose firing the jump would have to model.
    if conn.ack_policy._unacked_frames or peer.ack_policy._unacked_frames:
        return "unacked-frames"
    if conn._delayed_ack_timer.active or peer._delayed_ack_timer.active:
        return "delayed-ack-armed"
    if conn._nack_timer.active or peer._nack_timer.active:
        return "nack-timer-armed"

    if conn._forward_fences or peer._forward_fences:
        return "fence-active"
    if conn._pending_reads or peer._pending_reads:
        return "read-in-flight"
    # The reverse direction must be idle: a peer concurrently streaming
    # shares the receive CPU the model assumes dedicated.
    if peer.unsent:
        return "peer-sending"

    # Window fully open relative to the receiver's ack cadence, so flow
    # control can never bind mid-jump (peak synthesized in-flight stays
    # below one ack batch plus pipeline slack).
    if conn.window.limit < 2 * peer.ack_policy.params.ack_every_frames:
        return "window-too-small"

    # Congestion control stable (the static policy has no controller); pacing
    # shapes departures in a way the model does not reproduce.
    cc = conn.congestion
    if cc is not None and not cc.cwnd_stable(conn.sim.now):
        return "cwnd-unstable"
    if conn._pacing_on or peer._pacing_on:
        return "pacing-enabled"
    for nic in conn.nics:
        if nic.pacer is not None:
            return "pacing-enabled"

    # Control plane: every edge UP on both sides (a SUSPECT edge may
    # transition any moment; heartbeat traffic itself keeps flowing as
    # real frames during a jump and is unaffected).
    for plane in (conn.control_plane, peer.control_plane):
        if plane is None:
            continue
        for state in plane.states:
            if state.name != "UP":
                return "edge-not-up"

    # NIC / fabric quiescent along the path.
    for nic in conn.nics:
        if not nic.powered:
            return "nic-powered-off"
        if nic._tx_ring_used:
            return "nic-busy"
    for nic in peer.nics:
        if not nic.powered:
            return "nic-powered-off"
        if nic._rx_inflight or nic._rx_pending:
            return "nic-busy"

    return fwd.manager.fabric_disqualify_reason(conn, peer)
