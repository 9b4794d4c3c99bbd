"""Flow-level fast-forward: closed-form jumps over steady-state stretches.

A :class:`FlowForwarder` sits on ``connection.fastpath`` and intercepts
the pump.  When the steady-state detector clears the flow, the forwarder
*plans* every queued fragment run through the :class:`PathModel` and
schedules **one** cancellable engine event per operation at the instant
the receiver would finish processing its last frame.  A run that stays
on one rail advances the model in closed form (:meth:`_advance`), so
planning costs O(operations); a striped run walks the striping policy
per frame so per-rail byte deficits advance exactly as the frame path
would.  Runs stay in ``conn.unsent``, untouched, until that event fires,
so an abort rewinds an unfinished operation wholesale to its pre-jump
state.

At each op event the forwarder synthesizes, atomically, every side
effect the frame cascade would have produced: sequence/window advance,
send/receive/ack counters, ordering and watermark state, notification
delivery, memory writes, NIC/switch/link/kernel counters, and tagged CPU
charges on both hosts.  Any discontinuity — a fault, an ECN mark, a
queue drop, an edge-state transition, a NIC power event — bumps the
:class:`FastpathManager` guard, which aborts every active jump at that
boundary and drops the flows back to frame level.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..core.connection import Notification, Operation
from ..ethernet.frame import frame_sizes
from ..host.params import (
    INTERRUPT_NS,
    KTHREAD_WAKEUP_NS,
    PER_FRAME_RECV_NS,
    PER_FRAME_SEND_NS,
    memcpy_ns,
)
from .detector import UNSUPPORTED_OP_FLAGS, disqualify_reason
from .model import PathModel
from .stats import FastpathStats

__all__ = ["FlowForwarder", "FastpathManager"]


class _PlannedOp:
    """One operation's analytically computed completion."""

    __slots__ = (
        "op", "n_runs", "n_frames", "payload_bytes", "t_event", "entry",
        "rail_tx", "memcpy_total", "n_irqs", "base_address", "strip_snapshot",
    )

    def __init__(self, op) -> None:
        self.op = op
        self.n_runs = 0  # runs at the head of unsent this op will consume
        self.n_frames = 0
        self.payload_bytes = 0
        self.t_event = 0
        self.entry = None
        self.rail_tx: dict[int, list[int]] = {}  # rail -> [frames, wire_bytes]
        self.memcpy_total = 0
        self.n_irqs = 0
        self.base_address = 1 << 62
        self.strip_snapshot = None


def _count_tx(rail_tx: dict, rail: int, frames: int, wire_bytes: int) -> None:
    tx = rail_tx.get(rail)
    if tx is None:
        rail_tx[rail] = [frames, wire_bytes]
    else:
        tx[0] += frames
        tx[1] += wire_bytes


class FlowForwarder:
    """Per-endpoint fast-forward state for one connection direction."""

    def __init__(self, manager: "FastpathManager", conn, peer) -> None:
        self.manager = manager
        self.conn = conn
        self.peer = peer
        self.stats = manager.stats
        self.model = PathModel(conn, peer, manager.cluster)
        self.active = False
        self._pending: deque[_PlannedOp] = deque()
        self._planned_runs = 0  # runs at the head of unsent already planned
        # Fluid timeline (absolute ns), valid while active.
        self._rail_free: list[int] = []
        self._sw_free: list[int] = []
        self._tx_cpu_free = 0
        self._rx_cpu_free = 0
        self._cover_from = 0

    # -- pump hook ---------------------------------------------------------

    def offer(self, conn) -> bool:
        """Claim this pump call; True means the frame path must not run."""
        if self.active:
            # Absorb work queued mid-jump (back-to-back submissions, pump
            # calls from probe RX tails).  An unsupported descriptor is a
            # discontinuity: abort and let the frame path take over.
            if self._plan_new():
                return True
            self.abort("mid-jump-unsupported-op", pump=False)
            return False
        if not conn.unsent:
            return False
        # This endpoint is about to transmit.  If the reverse direction is
        # mid-jump, its model assumed a dedicated receive CPU and idle
        # return path over here — no longer true, so that jump aborts at
        # this boundary (unfinished ops rewind and go frame-level).
        peer_fwd = self.peer.fastpath
        if peer_fwd is not None and peer_fwd.active:
            peer_fwd.abort("reverse-traffic")
        reason = disqualify_reason(self)
        if reason is not None:
            self.stats.deny(reason)
            return False
        self._arm()
        if not self._plan_new() or not self._pending:
            self._teardown("arming-unsupported-op")
            return False
        self.stats.jumps += 1
        return True

    def on_discontinuity(self, reason: str) -> None:
        """Connection-local discontinuity (edge transition, teardown)."""
        self.manager.bump(reason)

    # -- arming / planning -------------------------------------------------

    def _arm(self) -> None:
        sim = self.conn.sim
        now = sim.now
        self.active = True
        self._rail_free = [
            max(now, nic._line_free_at) for nic in self.conn.nics
        ]
        self._sw_free = [now] * len(self.conn.nics)
        self._tx_cpu_free = now
        self._rx_cpu_free = now
        self._cover_from = now
        # The first window's worth of TX-completion interrupts fire while
        # the sender is still window-blocked (CPU otherwise idle), so they
        # never delay a delivery; only once the flow is ack-clocked does
        # each completion batch serialize with the pump.
        self._tx_irq_free_frames = self.conn.window.limit

    def _plan_new(self) -> bool:
        """Plan unplanned runs; False on an unsupported shape."""
        conn = self.conn
        unsent = conn.unsent
        start = self._planned_runs
        if start >= len(unsent):
            return True
        m = self.model
        sim = conn.sim
        now = sim.now
        striping = conn.striping
        if self._tx_cpu_free < now:
            self._tx_cpu_free = now
        if self._rx_cpu_free < now:
            self._rx_cpu_free = now
        # With one unmasked rail every frame of a run takes rail 0 and
        # choosing it mutates nothing, so one call places the whole run.
        one_rail = len(conn.nics) == 1 and not striping.masked
        tx_busy = m.tx_busy_ns
        tx_busy_irq_free = tx_busy - m.tx_irq_amortized_ns
        rec: Optional[_PlannedOp] = None
        for i in range(start, len(unsent)):
            run = unsent[i]
            op = run.op
            if op.kind != Operation.WRITE or op.flags & UNSUPPORTED_OP_FLAGS:
                if rec is not None:
                    striping.restore(rec.strip_snapshot)
                return False
            if rec is None or rec.op is not op:
                if rec is not None:
                    self._commit_planned(rec, sim)
                rec = _PlannedOp(op)
                rec.strip_snapshot = striping.snapshot()
            n = run.count
            plen = run.payload_len
            wire = frame_sizes(plen)[1]
            wt = m.wire_ns(wire)
            copy_ns = memcpy_ns(plen)
            rx_cost = PER_FRAME_RECV_NS + copy_ns + m.irq_amortized_ns
            if one_rail:
                if striping.next_rail(plen or 64) is None:
                    return False
                # Split once where the free TX-completion interrupts run out.
                free = min(n, self._tx_irq_free_frames)
                self._tx_irq_free_frames -= free
                if free:
                    self._advance(0, free, tx_busy_irq_free, wt, rx_cost)
                if n > free:
                    self._advance(0, n - free, tx_busy, wt, rx_cost)
                _count_tx(rec.rail_tx, 0, n, n * wire)
            else:
                for _ in range(n):
                    rail = striping.next_rail(plen or 64)
                    if rail is None:
                        striping.restore(rec.strip_snapshot)
                        return False
                    tx_cost = tx_busy
                    if self._tx_irq_free_frames > 0:
                        self._tx_irq_free_frames -= 1
                        tx_cost = tx_busy_irq_free
                    self._advance(rail, 1, tx_cost, wt, rx_cost)
                    _count_tx(rec.rail_tx, rail, 1, wire)
            rec.n_runs += 1
            rec.n_frames += n
            rec.payload_bytes += n * plen
            rec.memcpy_total += n * copy_ns
            if run.remote_address < rec.base_address:
                rec.base_address = run.remote_address
            self._planned_runs += 1
        if rec is not None:
            self._commit_planned(rec, sim)
        return True

    def _advance(self, rail: int, n: int, tx_cost: int, wt: int, rx_cost: int) -> None:
        """Move the fluid timeline past ``n`` equal frames on ``rail``.

        TX CPU, rail, switch egress and RX CPU each serve frame ``i`` at
        ``x_i = max(a_i, x_{i-1}) + c`` where ``a_i`` is the previous
        stage's output plus a constant.  Unrolled, ``x_n = max(x_0 + n*c,
        max_k(a_k + (n-k+1)*c))``; the TX CPU's output is linear in ``i``
        and every later stage's is a max of linear terms, so ``a_k`` is
        convex, the inner max sits at ``k = 1`` or ``k = n``, and
        ``x_n = max(x_1 + (n-1)*c, a_n + c)`` — exact in integers, and the
        recurrence itself for ``n = 1``.
        """
        m = self.model
        more = n - 1
        t1 = self._tx_cpu_free + tx_cost
        tn = t1 + more * tx_cost
        self._tx_cpu_free = tn
        lead = m.tx_dma_ns + m.jitter_mean_ns
        d1 = max(t1 + lead, self._rail_free[rail]) + wt
        dn = max(d1 + more * wt, tn + lead + wt)
        self._rail_free[rail] = dn
        hop = m.prop_ns + m.fwd_ns
        o1 = max(d1 + hop, self._sw_free[rail]) + wt
        on = max(o1 + more * wt, dn + hop + wt)
        self._sw_free[rail] = on
        seen = m.prop_ns + m.rx_dma_ns + m.irq_latency_ns
        r1 = max(o1 + seen, self._rx_cpu_free) + rx_cost
        self._rx_cpu_free = max(r1 + more * rx_cost, on + seen + rx_cost)

    def _commit_planned(self, rec: _PlannedOp, sim) -> None:
        rec.n_irqs = -(-rec.n_frames // self.model.frames_per_irq)
        rec.t_event = max(self._rx_cpu_free, sim.now + 1)
        rec.entry = sim.schedule_cancellable(
            rec.t_event - sim.now, self._fire, rec
        )
        self._pending.append(rec)

    # -- synthesis ---------------------------------------------------------

    def _fire(self, rec: _PlannedOp) -> None:
        if not self.active or not self._pending or self._pending[0] is not rec:
            return
        self._pending.popleft()
        conn = self.conn
        peer = self.peer
        sim = conn.sim
        now = sim.now
        m = self.model
        op = rec.op
        n = rec.n_frames

        # Sender: consume the runs and advance the send window as if
        # every frame had been transmitted and cumulatively acked.
        unsent = conn.unsent
        runs = [unsent.popleft() for _ in range(rec.n_runs)]
        conn.unsent_frames -= n
        self._planned_runs -= rec.n_runs
        conn.window.next_seq += n
        cs = conn.stats
        cs.data_frames_sent += n
        cs.data_bytes_sent += rec.payload_bytes
        cs.piggybacked_acks += n
        cs.pump_charged_ns += n * PER_FRAME_SEND_NS
        conn.ack_policy.on_ack_emitted(conn.tracker.cum_ack, piggybacked=True)
        conn._delayed_ack_timer.cancel()

        # Receiver: deliver the operation in sequence.
        peer.tracker.expected += n
        ps = peer.stats
        ps.data_frames_received += n
        ps.data_bytes_received += rec.payload_bytes
        memory = peer.node.memory
        for run in runs:
            if run.data is not None:
                memory.write(
                    run.remote_address,
                    memoryview(run.data)[
                        run.offset : run.offset + run.count * run.payload_len
                    ],
                )
        rx = peer.ordering.apply_run(op, rec.base_address, n, rec.payload_bytes)
        if rx is not None:
            rx.src_node = peer.peer_node_id
            if rx.wants_notification() and not rx.is_read_request:
                peer.notifications.put(
                    Notification(
                        op_id=rx.op_id,
                        src_node=peer.peer_node_id,
                        address=rx.base_address,
                        length=rx.length,
                        delivered_at=now,
                    )
                )
                ps.notifications_delivered += 1

        # Explicit acks at the receiver's cadence; the tail remainder is
        # flushed by the delayed-ack path once the stream goes idle, so
        # the final planned op carries it.
        ap = peer.ack_policy
        unacked = ap._unacked_frames + n
        acks, remainder = divmod(unacked, ap.params.ack_every_frames)
        if not self._pending and remainder:
            acks += 1
            remainder = 0
        if acks:
            ps.explicit_acks_sent += acks
            cs.explicit_acks_received += acks
            ap.on_ack_emitted(peer.tracker.cum_ack, piggybacked=False)
        ap._unacked_frames = remainder

        # Operation completion (ack covering the last frame).
        op.frames_acked = op.frames_total
        if not op.completed:
            conn._complete_local_op(op)

        self._charge_cpu(rec, acks)
        self._count_devices(rec, acks)

        st = self.stats
        st.ops_synthesized += 1
        st.ff_frames += n
        st.ff_bytes += rec.payload_bytes
        st.ff_acks += acks
        st.ff_virtual_ns += now - self._cover_from
        self._cover_from = now

        if not self._pending:
            self.active = False

    def _charge_cpu(self, rec: _PlannedOp, acks: int) -> None:
        m = self.model
        conn, peer = self.conn, self.peer
        # Sender: pump work plus the ack receive chain.
        sender = [("protocol.send", rec.n_frames * PER_FRAME_SEND_NS)]
        if acks:
            sender += [
                ("protocol.recv", acks * PER_FRAME_RECV_NS),
                ("interrupt", acks * INTERRUPT_NS),
                ("protocol.wakeup", acks * KTHREAD_WAKEUP_NS),
            ]
        n_tx_irqs = 0
        if m.unmaskable_tx_irq:
            n_tx_irqs = rec.n_frames // m.tx_completion_batch
            if n_tx_irqs:
                sender.append(("interrupt", n_tx_irqs * INTERRUPT_NS))
        conn.node.protocol_cpu.bill(sender)
        skern = conn.node.kernel
        skern.irqs_handled += acks + n_tx_irqs
        skern.kthread_wakeups += acks
        # Receiver: per-frame processing, copies, IRQ batches.
        peer.node.protocol_cpu.bill([
            ("protocol.recv", rec.n_frames * PER_FRAME_RECV_NS + rec.memcpy_total),
            ("interrupt", rec.n_irqs * INTERRUPT_NS),
            ("protocol.wakeup", rec.n_irqs * KTHREAD_WAKEUP_NS),
        ])
        rkern = peer.node.kernel
        rkern.irqs_handled += rec.n_irqs
        rkern.kthread_wakeups += rec.n_irqs

    def _count_devices(self, rec: _PlannedOp, acks: int) -> None:
        conn, peer = self.conn, self.peer
        m = self.model
        busiest_rail = 0
        busiest = -1
        for rail, (cnt, wbytes) in rec.rail_tx.items():
            self._count_rail(conn, peer, rail, cnt, wbytes)
            if m.unmaskable_tx_irq:
                tx = conn.nics[rail].counters
                txirqs = cnt // m.tx_completion_batch
                tx.tx_irqs_raised += txirqs
                tx.irqs_raised += txirqs
            if cnt > busiest:
                busiest, busiest_rail = cnt, rail
        peer.nics[busiest_rail].counters.irqs_raised += rec.n_irqs
        # Nothing transmits inside this event, so no TX ring changes while
        # the acks are placed and control_rails() counts them exactly.
        for crail, cnt in peer.striping.control_rails(acks).items():
            self._count_rail(peer, conn, crail, cnt, cnt * m.ack_wire_bytes)
            conn.nics[crail].counters.irqs_raised += cnt

    def _count_rail(self, src, dst, rail: int, frames: int, wbytes: int) -> None:
        """NIC, switch and link counters of ``frames`` frames (``wbytes``
        on the wire in all) sent from ``src`` to ``dst`` on ``rail``."""
        tx = src.nics[rail].counters
        tx.tx_frames += frames
        tx.tx_bytes += wbytes
        dst.nics[rail].counters.rx_frames += frames
        switch = self.manager.cluster.switches[rail]
        switch.ingress_frames += frames
        switch.forwarded += frames
        port = switch.ports[dst.node.node_id]
        port.tx_frames += frames
        for link in (src.nics[rail].tx_link, port.tx_link):
            if link is not None:
                link.frames_delivered += frames
                link.bytes_delivered += wbytes

    # -- abort -------------------------------------------------------------

    def abort(self, reason: str, pump: bool = True) -> None:
        """Cancel every pending jump; unfinished ops rewind to ``unsent``."""
        if not self.active:
            return
        self._teardown(reason, note=True)
        conn = self.conn
        if pump and not conn.closed and conn.has_send_work():
            conn.sim.process(conn._timer_pump())

    def _teardown(self, reason: str, note: bool = False) -> None:
        self.active = False
        sim = self.conn.sim
        first = self._pending[0] if self._pending else None
        for rec in self._pending:
            sim.cancel_scheduled(rec.entry)
        if first is not None:
            self.conn.striping.restore(first.strip_snapshot)
        self._pending.clear()
        self._planned_runs = 0
        if note:
            self.stats.note_abort(reason)


class FastpathManager:
    """Cluster-level owner: forwarders, the guard, and coverage stats."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.stats = FastpathStats()
        self.forwarders: list[FlowForwarder] = []
        # Every device tells the run's guard of a discontinuity.
        cluster.sim.fastpath_guard = self

    # -- wiring ------------------------------------------------------------

    def attach(self, conn) -> None:
        """Put a forwarder on one connection endpoint (idempotent)."""
        existing = conn.fastpath
        if existing is not None and existing.manager is self:
            return
        peer_stack = self.cluster.stacks[conn.peer_node_id]
        peer = peer_stack.protocol.connections.get(conn.conn_id)
        if peer is None:
            raise ValueError(
                f"peer endpoint of connection {conn.conn_id} does not exist"
            )
        forwarder = FlowForwarder(self, conn, peer)
        conn.fastpath = forwarder
        self.forwarders.append(forwarder)

    def attach_all(self) -> None:
        for stack in self.cluster.stacks:
            for conn in list(stack.protocol.connections.values()):
                self.attach(conn)

    # -- discontinuities ---------------------------------------------------

    def bump(self, reason: str) -> None:
        """A discontinuity fired somewhere: abort every active jump."""
        self.stats.guard_bumps += 1
        for forwarder in self.forwarders:
            if forwarder.active:
                forwarder.abort(reason)

    # -- fabric-level detector checks -------------------------------------

    def fabric_disqualify_reason(self, conn, peer) -> Optional[str]:
        cluster = self.cluster
        serve = cluster.serve
        if serve is not None:
            # Open-loop serving traffic (repro.serve): an armed arrival
            # source guarantees future requests at times the analytic
            # model cannot see, and request/response traffic is
            # bidirectional by construction — the reverse leg would be
            # jumped over.  Both must refuse fast-forward.
            if serve.arrivals_armed:
                return "serve-arrivals-armed"
            if serve.active:
                return "serve-traffic-active"
        if cluster.config.fabric is not None:
            # Multi-switch datacenter fabric (repro.fabric): per-hop
            # store-and-forward latency and ECMP path choice are exactly
            # the dynamics the analytic jump cannot reproduce — and the
            # checks below assume one switch per rail, indexed by rail.
            return "multi-hop-fabric"
        # Ask every device of the path, data out and acks back, what is in
        # effect on it *now*: the guard only marks the instant a fault
        # starts, and a flow must not re-arm while the fault still lasts.
        devices = [conn.node, peer.node, *conn.nics, *peer.nics]
        for end in (conn, peer):
            for rail in range(len(end.nics)):
                cable = cluster.cable(end.node.node_id, rail)
                devices += (cable.ab, cable.ba)
        for device in devices:
            reason = device.impairment
            if reason is not None:
                return reason
        for rail in range(len(conn.nics)):
            switch = cluster.switches[rail]
            if switch.params.ecn_threshold_frames is not None:
                return "ecn-enabled"
            if switch.total_queue_depth:
                return "switch-queue-occupied"
        for stack in cluster.stacks:
            for other in stack.protocol.connections.values():
                if other is conn or other is peer:
                    continue
                if (
                    other.unsent
                    or other.window.inflight
                    or other._retransmit_q
                ):
                    return "fabric-busy"
        return None

    # -- reporting ---------------------------------------------------------

    def coverage(self) -> dict:
        """Coverage against the cluster's current totals (analysis probe)."""
        total_bytes = sum(
            stack.protocol.total_stats().data_bytes_sent
            for stack in self.cluster.stacks
        )
        report = self.stats.coverage(self.cluster.sim.now, total_bytes)
        report["pending_horizon_ns"] = self.cluster.sim.next_event_time()
        return report
