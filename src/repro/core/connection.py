"""Connection state machine: the heart of the MultiEdge protocol.

One :class:`Connection` object lives at each endpoint of a point-to-point
channel.  It owns:

**Send side**
  * operation submission: an RDMA write queues run-length fragment
    descriptors (N full-MTU fragments plus at most one tail), an RDMA
    read a single READ_REQ fragment,
  * the sliding :class:`~repro.core.window.SendWindow`,
  * the *pump*: the CPU-charged loop that peels one frame at a time off
    the head run into NIC TX rings, choosing a rail per frame via the
    striping policy, assigning
    sequence numbers in actual transmission order, and piggy-backing the
    current cumulative ack on every frame,
  * forward-fence enforcement (later operations are withheld until the
    fenced operation is fully acknowledged),
  * NACK-driven selective retransmission and the coarse timeout.

**Receive side**
  * duplicate filtering and out-of-order accounting
    (:class:`~repro.core.window.ReceiveTracker`),
  * delivery ordering / backward fences
    (:class:`~repro.core.ordering.OrderingManager`),
  * applying payloads into the node's virtual memory (the paper's
    copy-to-user step, charged to the protocol CPU),
  * servicing remote reads (READ_REQ spawns a READ_RESP send operation),
  * the delayed-ack and NACK timers,
  * completion notifications delivered to the user-level library.

Everything that costs CPU is expressed as a generator to be driven from a
simulation process (the application's syscall context or the kernel
protocol thread), so the CPU-utilization figures fall out of the model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Generator, Optional

from ..congestion import CONTROLLERS
from ..congestion.base import FULL_FRAME_WIRE_BYTES, MIN_CWND_FRAMES, PACING_BURST_FRAMES
from ..ethernet import ECN_CE, ECN_ECHO, Frame, FrameType, OpFlags, max_payload_per_frame
from ..host.cpu import Cpu
from ..host.params import PER_FRAME_RECV_NS, PER_FRAME_SEND_NS, memcpy_ns
from ..sim import Event, Simulator, Store, Timer
from .ack import (
    ACK_DELAY_NS,
    NACK_DELAY_NS,
    NACK_MAX_ENTRIES,
    RENACK_INTERVAL_NS,
    AckPolicy,
    AckPolicyParams,
)
from .messages import (
    SCATTER_RECORD_HEADER,
    decode_scatter_records,
    encode_scatter_records,
    make_ack_frame,
    make_data_frame,
    make_nack_frame,
    make_probe_ack_frame,
    make_read_req_frame,
)
from .errors import PeerCrashed, RetransmitExhausted
from .ordering import FenceDelivery, InOrderDelivery, RxOpState
from .retransmit import NACK_HOLDOFF_NS, RetransmitTimer
from .stats import ConnectionStats
from .striping import make_striping_policy
from .window import ReceiveTracker, SendWindow

__all__ = ["ProtocolParams", "Operation", "Notification", "Connection"]


@dataclass
class ProtocolParams:
    """Compile-time protocol configuration (paper: fixed window size etc.)."""

    window_frames: int = 256
    ack: AckPolicyParams = field(default_factory=AckPolicyParams)
    # 2L-1G mode: buffer out-of-order frames, apply strictly in seq order.
    in_order_delivery: bool = False
    striping: str = "round_robin"
    # Frames whose CPU cost is charged per pump batch.
    pump_batch: int = 8
    # Length-only payloads: frames carry no bytes, only header lengths.
    # Every CPU/wire cost is computed from lengths, so timing and results
    # are identical to carrying real bytes; memory contents are simply not
    # moved.  Used by the micro-benchmark harness; applications that read
    # back received data must keep this off.
    synthetic_payloads: bool = False
    # Congestion controller: "static", or a name in
    # repro.congestion.CONTROLLERS ("aimd" | "dctcp").  "static" is the
    # paper's behaviour: no controller, the fixed flow-control window is
    # the only send limit.
    congestion: str = "static"
    # Token-bucket pacing of an adaptive controller's window (no effect
    # under "static").
    pacing: bool = False

    def __post_init__(self) -> None:
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        if self.congestion != "static" and self.congestion not in CONTROLLERS:
            raise ValueError(
                f"unknown congestion controller {self.congestion!r}; "
                f"choose from {['static', *CONTROLLERS]}"
            )
        if self.congestion != "static" and self.window_frames < MIN_CWND_FRAMES:
            # An adaptive cwnd lives in [MIN_CWND_FRAMES, window_frames].
            raise ValueError(
                f"window_frames={self.window_frames} is below the cwnd floor "
                f"{MIN_CWND_FRAMES} of congestion={self.congestion!r}"
            )
        if self.pump_batch < 1:
            raise ValueError("pump_batch must be >= 1")


class Operation:
    """Sender-side record of one RDMA operation."""

    WRITE = "write"
    READ = "read"
    READ_RESP = "read_resp"

    def __init__(
        self,
        sim: Simulator,
        op_id: int,
        op_seq: int,
        kind: str,
        flags: int,
        local_address: int,
        remote_address: int,
        length: int,
    ) -> None:
        self.op_id = op_id
        self.op_seq = op_seq
        self.kind = kind
        self.flags = flags
        self.local_address = local_address
        self.remote_address = remote_address
        self.length = length
        self.frames_total = 0
        self.frames_acked = 0
        self.bytes_received = 0  # reads: response bytes applied locally
        self.submitted_at = sim.now
        self.completed_at: Optional[int] = None
        self.done = Event(sim)
        # Terminal failure (RetransmitExhausted / PeerCrashed).  A failed
        # op counts as completed so waiters wake exactly once; the API
        # layer re-raises the error from wait()/test().
        self.error: Optional[BaseException] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def forward_fenced(self) -> bool:
        return bool(self.flags & OpFlags.FENCE_FORWARD)

    def __repr__(self) -> str:
        state = "done" if self.completed else "pending"
        return f"Op({self.kind} id={self.op_id} len={self.length} {state})"


@dataclass
class Notification:
    """Completion notification delivered at the target (paper §2.2)."""

    op_id: int
    src_node: int
    address: int
    length: int
    delivered_at: int


class _FragmentRun:
    """``count`` not-yet-transmitted, equally sized fragments of one operation.

    Fragment ``k`` carries ``payload_len`` bytes for ``remote_address +
    k * payload_len``, sliced from ``data`` at ``offset + k * payload_len``
    only when it goes to a NIC.  ``data`` is None for READ_REQs and in
    synthetic-payload mode.  A run in ``Connection.unsent`` is never empty.
    """

    __slots__ = ("op", "remote_address", "payload_len", "count", "data", "offset")

    def __init__(
        self,
        op: Operation,
        remote_address: int,
        payload_len: int,
        count: int = 1,
        data: Optional[bytes] = None,
        offset: int = 0,
    ) -> None:
        self.op = op
        self.remote_address = remote_address
        self.payload_len = payload_len
        self.count = count
        self.data = data
        self.offset = offset


class Connection:
    """One endpoint of a MultiEdge connection."""

    def __init__(
        self,
        protocol: "Any",  # MultiEdgeProtocol; typed loosely to avoid a cycle
        conn_id: int,
        peer_node_id: int,
        peer_macs: list[int],
        params: Optional[ProtocolParams] = None,
    ) -> None:
        self.protocol = protocol
        self.node = protocol.node
        self.sim: Simulator = protocol.node.sim
        self.conn_id = conn_id
        self.peer_node_id = peer_node_id
        self.peer_macs = list(peer_macs)
        self.params = params or ProtocolParams()
        rails = min(len(self.peer_macs), len(self.node.nics))
        self.nics = self.node.nics[:rails]
        self.stats = ConnectionStats()
        # Set by graceful teardown (core.handshake); a closed connection
        # rejects new operations and ignores stray data frames.
        self.closed = False
        self.frames_after_close = 0
        self.fin_sent = False
        self.fin_received = False
        self._fin_event: Optional[Event] = None  # close() waiting for the FIN

        # ---- send state ----
        self.window = SendWindow(self.params.window_frames)
        # Unsent fragments, run-length encoded; unsent_frames is the number
        # of frames they stand for (len(self.unsent) counts runs).
        self.unsent: Deque[_FragmentRun] = deque()
        self.unsent_frames = 0
        self._retransmit_q: Deque[int] = deque()  # seqs to retransmit
        # Creation number on this node, and the protocol's table of
        # connections with queued work that _enqueue and _queue_retransmit
        # register in (MultiEdgeProtocol.handle_tx_completions).
        self.order = protocol.connections_created
        protocol.connections_created += 1
        self._queued: dict[int, Connection] = protocol.queued
        self.striping = make_striping_policy(self.params.striping, self.nics)
        # Congestion control (repro.congestion): None under "static" — the
        # same single-attribute test as the observer hooks, so the default
        # costs nothing.
        cc = CONTROLLERS.get(self.params.congestion)
        self.congestion = None if cc is None else cc(self.window, self.params.pacing)
        self._pacing_on = self.congestion is not None and self.congestion.pacing
        # Crash recovery (repro.recovery).  ``recovery`` is None unless the
        # cluster enabled whole-node crash faults; the incarnation pair then
        # fences off frames from dead incarnations of the peer.
        self.recovery: Optional[Any] = None
        self.local_incarnation = 0
        self.peer_incarnation = 0
        self._next_op_seq = 0
        self._forward_fences: Deque[Operation] = deque()
        self._pending_reads: dict[int, Operation] = {}  # op_id -> read op
        self.retransmit_timer = RetransmitTimer(
            self.sim,
            on_timeout=self._on_coarse_timeout,
            on_dead=self._on_coarse_dead,
        )
        # Edge lifecycle control plane (repro.control); None when the
        # connection runs bare.  Receives probe echoes and dead-peer events.
        self.control_plane: Optional[Any] = None
        # Opt-in flow-level fast-forward (repro.fastpath); None keeps the
        # pump on the exact frame-level path.
        self.fastpath: Optional[Any] = None

        # ---- receive state ----
        self.tracker = ReceiveTracker()
        self.ordering = (
            InOrderDelivery() if self.params.in_order_delivery else FenceDelivery()
        )
        self.ack_policy = AckPolicy(self.params.ack)
        # One timer object each for the life of the connection, re-armed.
        self._delayed_ack_timer = Timer(self.sim, None, self._delayed_ack_fired)
        self._nack_timer = Timer(self.sim, None, self._nack_fired)
        # Sequences that were already missing when the NACK timer was armed;
        # only gaps that *persist* across the whole delay are NACKed, so
        # transient striping reorder never triggers spurious retransmits.
        self._nack_snapshot: set[int] = set()
        self._nacked_at: dict[int, int] = {}
        self.notifications: Store = Store(self.sim)

        if self._pacing_on:
            self._sync_pacing()

    # ------------------------------------------------------------------
    # Operation submission (runs in the caller's CPU context)
    # ------------------------------------------------------------------

    def _fragment(self, op: Operation) -> list[_FragmentRun]:
        """``op.length`` bytes copied from ``op.local_address`` (none in
        synthetic-payload mode) bound for ``op.remote_address``, as a run
        of full-MTU fragments plus at most one tail; O(1) in frames."""
        data = (
            None
            if self.params.synthetic_payloads
            else self.node.memory.read(op.local_address, op.length)
        )
        mtu = max_payload_per_frame()
        full, tail = divmod(op.length, mtu)
        runs = []
        if full:
            runs.append(_FragmentRun(op, op.remote_address, mtu, full, data))
        if tail:
            runs.append(
                _FragmentRun(
                    op, op.remote_address + full * mtu, tail, 1, data, full * mtu
                )
            )
        op.frames_total = full + (1 if tail else 0)
        return runs

    def _enqueue(
        self, kind: str, flags: int, local: int, remote: int, length: int,
        payloads: Optional[list[bytes]] = None, op_id: Optional[int] = None,
    ) -> Operation:
        """Make this endpoint's next operation and queue its fragment runs.

        Every run enters ``unsent`` here, so here the connection tells its
        protocol it has queued work (see ``handle_tx_completions``).  A
        local operation (no ``op_id``) needs the connection open, draws a
        fresh op id, and is fenced and counted; a read response keeps the
        requester's op id.  ``payloads`` are a scatter write's frames.
        """
        local_op = op_id is None
        if local_op:
            self._check_open()
            op_id = self.protocol.allocate_op_id()
        op = Operation(
            self.sim, op_id, self._next_op_seq, kind, flags, local, remote, length
        )
        self._next_op_seq += 1
        if kind == Operation.READ:
            op.frames_total = 1
            runs = [_FragmentRun(op, remote, 0)]
        elif payloads is not None:
            op.frames_total = len(payloads)
            runs = [_FragmentRun(op, remote, len(p), data=p) for p in payloads]
        else:
            runs = self._fragment(op)
        self.unsent_frames += op.frames_total
        unsent = self.unsent
        at = None
        if local_op:
            if op.forward_fenced:
                self._forward_fences.append(op)
            self.stats.ops_submitted += 1
        elif self._forward_fences:
            # Responses bypass forward fences (see _fence_blocked), so they
            # must not queue behind fragments a fence is withholding: slot
            # them ahead of the first fence-blocked run.
            barrier = self._forward_fences[0].op_seq
            for k, queued in enumerate(unsent):
                if (
                    queued.op.kind != Operation.READ_RESP
                    and queued.op.op_seq > barrier
                ):
                    at = k
                    break
        if at is None:
            unsent.extend(runs)
        else:
            for k, run in enumerate(runs):
                unsent.insert(at + k, run)
        self._queued[self.order] = self
        if self.sim.monitor is not None:
            self.sim.monitor.on_op_submitted(self, op)
        return op

    def submit_write(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
    ) -> Operation:
        """Queue an RDMA write as run-length fragment descriptors.

        Pure bookkeeping — the caller charges CPU and then drives
        :meth:`pump`.  The data is copied out of user memory here (the
        paper's user→kernel copy; cost charged by the API layer).
        """
        if length <= 0:
            raise ValueError("RDMA operation length must be positive")
        return self._enqueue(
            Operation.WRITE, flags, local_address, remote_address, length
        )

    def submit_scatter(
        self,
        segments: list[tuple[int, bytes]],
        flags: int = 0,
    ) -> Operation:
        """Queue a scatter write: many small (address, data) segments in
        one operation.

        This is the wire format of a software-DSM *diff*: rather than one
        operation per changed byte-run, every run of a flush rides in one
        operation whose frames pack ``u64 addr + u32 len + data`` records.
        Records never split across frames.
        """
        if not segments:
            raise ValueError("scatter operation needs at least one segment")
        mtu = max_payload_per_frame()
        payloads: list[bytes] = []
        frame_segs: list[tuple[int, bytes]] = []
        frame_bytes = 0
        for addr, data in segments:
            offset = 0
            while offset < len(data):
                chunk = data[offset : offset + (mtu - SCATTER_RECORD_HEADER)]
                need = SCATTER_RECORD_HEADER + len(chunk)
                if frame_bytes + need > mtu and frame_segs:
                    payloads.append(encode_scatter_records(frame_segs))
                    frame_segs, frame_bytes = [], 0
                frame_segs.append((addr + offset, chunk))
                frame_bytes += need
                offset += len(chunk)
        if frame_segs:
            payloads.append(encode_scatter_records(frame_segs))
        return self._enqueue(
            Operation.WRITE, flags | OpFlags.SCATTER, 0, segments[0][0],
            sum(map(len, payloads)), payloads,
        )

    def submit_read(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
    ) -> Operation:
        """Queue an RDMA read: one READ_REQ frame; completion when all
        response bytes have been applied locally."""
        if length <= 0:
            raise ValueError("RDMA operation length must be positive")
        op = self._enqueue(
            Operation.READ, flags, local_address, remote_address, length
        )
        self._pending_reads[op.op_id] = op
        return op

    def _submit_read_response(self, req_frame: Frame) -> None:
        """Responder side: turn an applied READ_REQ into a data send."""
        h = req_frame.header
        # Keep the requester's op id; req_frame.control is its buffer.
        self._enqueue(
            Operation.READ_RESP, 0, h.remote_address, int(req_frame.control),
            h.op_length, op_id=h.op_id,
        )

    # ------------------------------------------------------------------
    # The pump: move descriptors into NIC rings (CPU-charged)
    # ------------------------------------------------------------------

    def has_send_work(self) -> bool:
        return bool(self._retransmit_q) or (
            bool(self.unsent) and self.window.can_send and not self._fence_blocked()
        )

    def _fence_blocked(self) -> bool:
        if not self._forward_fences or not self.unsent:
            return False
        head = self.unsent[0]
        if head.op.kind == Operation.READ_RESP:
            # Responder traffic is never fenced: forward fences order this
            # endpoint's *own* operations.  Parking a read response behind
            # a local fence deadlocks two endpoints whose fenced reads
            # wait on each other's responses.
            return False
        return head.op.op_seq > self._forward_fences[0].op_seq

    def pump(self, cpu: Cpu, tag: str = "protocol.send") -> Generator[Any, Any, None]:
        """Transmit as much as the window, fences, and TX rings allow."""
        fastpath = self.fastpath
        if fastpath is not None and fastpath.offer(self):
            # The flow is in analytic steady state: the forwarder took
            # ownership of everything queued and will synthesize the whole
            # cascade (including this pump's CPU charges) at op boundaries.
            return
        stats = self.stats
        while True:
            n = self._sendable_now()
            if n == 0:
                return
            batch = min(n, self.params.pump_batch)
            yield cpu.hold(batch * PER_FRAME_SEND_NS, tag)
            gray_extra = self.node.gray_pump_extra_ns
            if gray_extra:
                # SlowNode gray fault: the core really is this much slower,
                # but the surplus is billed under its own tag so the
                # pump-CPU conservation invariant stays exact.
                yield cpu.hold(batch * gray_extra, "gray.slow-node")
            # Transmit atomically (no yields) — recheck state after the wait.
            sent = 0
            while sent < batch:
                if not self._send_one():
                    break
                sent += 1
            stats.pump_charged_ns += sent * PER_FRAME_SEND_NS
            if self.sim.monitor is not None:
                self.sim.monitor.on_event(self)
            if sent < batch:
                # The batch was billed up front, then the TX rings (or a
                # state change during the CPU wait) stopped it early.  The
                # core really was occupied for the full charge, but the
                # surplus is ring-stall time, not protocol work: reclassify
                # it so protocol-CPU utilization counts only frames sent.
                stalled = (batch - sent) * PER_FRAME_SEND_NS
                stats.pump_stalled_ns += stalled
                cpu.accounting.reclassify(tag, "stall.tx_ring", stalled)
                return

    def _sendable_now(self) -> int:
        n = len(self._retransmit_q)
        if self.unsent and not self._fence_blocked():
            n += min(self.unsent_frames, self.window.available)
        return n

    def _send_one(self) -> bool:
        """Push one frame to a NIC.  False when nothing can go right now."""
        # Retransmissions first: they unblock the peer.
        while self._retransmit_q:
            seq = self._retransmit_q[0]
            rec = self.window.inflight.get(seq)
            if rec is None:  # acked in the meantime
                self._retransmit_q.popleft()
                continue
            rail = self.striping.next_rail(rec.frame.wire_bytes)
            if rail is None:
                return False
            self._retransmit_q.popleft()
            # An independent wire copy: a previous copy of this seq may
            # still be in flight on another rail, and mutating a shared
            # object would retroactively rewrite its ack, ECN bits, MACs,
            # and transit state (hops/CE/corruption) mid-journey.
            frame = rec.frame.wire_copy()
            frame.dst_mac = self.peer_macs[rail]
            frame.src_mac = self.nics[rail].mac
            frame.header.ack = self.tracker.cum_ack
            # Re-evaluate the ECN echo: the bit a previous copy carried is
            # stale, and a pending CE debt may ride out with this copy.
            echo = self._echo()
            frame.header.flags = frame.header.flags & ~ECN_ECHO | echo
            if echo:
                self.ack_policy.note_echo_sent()
            rec.last_sent_at = self.sim.now
            rec.last_rail = rail
            frame.incarnation = self.local_incarnation
            self.nics[rail].transmit(frame)
            self.stats.retransmitted_frames += 1
            self.retransmit_timer.arm()
            return True
        unsent = self.unsent
        window = self.window
        if not unsent or not window.can_send or self._fence_blocked():
            return False
        run = unsent[0]
        plen = run.payload_len
        rail = self.striping.next_rail(plen or 64)
        if rail is None:
            return False
        # Peel one frame off the head run.
        op = run.op
        address = run.remote_address
        data = run.data
        payload = None if data is None else data[run.offset : run.offset + plen]
        if run.count == 1:
            unsent.popleft()
        else:
            run.count -= 1
            run.remote_address = address + plen
            run.offset += plen
        self.unsent_frames -= 1
        seq = window.allocate_seq()
        cum_ack = self.tracker.cum_ack
        nic = self.nics[rail]
        if op.kind == Operation.READ:
            frame = make_read_req_frame(
                nic.mac, self.peer_macs[rail], self.conn_id, seq, cum_ack,
                op.op_id, op.op_seq, op.flags, address, op.length,
            )
            frame.control = op.local_address  # requester's buffer
        else:
            frame = make_data_frame(
                nic.mac, self.peer_macs[rail], self.conn_id, seq, cum_ack,
                op.op_id, op.op_seq, op.flags, address, op.length, payload,
                op.kind == Operation.READ_RESP, plen,
            )
        if self.ack_policy.echo_pending:
            frame.header.flags |= self._echo()
        frame.incarnation = self.local_incarnation
        window.register(frame, op, self.sim.now, rail=rail)
        nic.transmit(frame)
        stats = self.stats
        stats.data_frames_sent += 1
        stats.data_bytes_sent += frame.header.payload_length
        stats.piggybacked_acks += 1
        self.ack_policy.on_ack_emitted(cum_ack, piggybacked=True)
        self._delayed_ack_timer.cancel()
        self.retransmit_timer.arm()
        return True

    # ------------------------------------------------------------------
    # Receive path (runs on the protocol kernel thread)
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                f"connection {self.conn_id} is closed; no new operations"
            )

    def handle_rx_frame(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        h = frame.header
        if frame.incarnation != self.peer_incarnation:
            # Frame (or ack) from a dead incarnation of the peer: reject it
            # before it can corrupt the resurrected connection's windows.
            self.stats.stale_frames_rejected += 1
            return
        if self.sim.monitor is not None:
            # No-stale-frame-accepted invariant: every frame that passes
            # the guard above must match the expected peer incarnation.
            self.sim.monitor.on_rx_frame(self, frame)
        if self.closed and h.frame_type in (
            FrameType.DATA, FrameType.READ_REQ, FrameType.READ_RESP
        ):
            self.frames_after_close += 1
            return
        yield cpu.hold(PER_FRAME_RECV_NS, "protocol.recv")

        ftype = h.frame_type
        if ftype == FrameType.PROBE:
            # Heartbeat: echo it on the rail it probed (control plane §2.4
            # analogue; unsequenced, never flow-controlled).
            if not self.closed:
                yield from self._answer_probe(frame, cpu)
            return
        if ftype == FrameType.PROBE_ACK:
            if self.control_plane is not None:
                self.control_plane.on_probe_ack(frame)
            return
        if ftype == FrameType.ACK:
            self.stats.explicit_acks_received += 1
            self._process_ack_value(h.ack, bool(h.flags & ECN_ECHO))
        elif ftype == FrameType.NACK:
            self.stats.nacks_received += 1
            self._process_ack_value(h.ack, bool(h.flags & ECN_ECHO))
            self._process_nack(frame.control or [])
        else:
            # Sequenced frame: ECN first (a CE mark must be echoed even on
            # a duplicate), then the piggy-backed ack, then delivery.
            flags = h.flags
            if flags & ECN_CE:
                self.stats.ce_frames_received += 1
                self.ack_policy.note_ce()
            self._process_ack_value(h.ack, bool(flags & ECN_ECHO))
            stats = self.stats
            tracker = self.tracker
            expected_before = tracker.expected
            is_new, in_order = tracker.on_frame(h.seq)
            if not is_new:
                stats.duplicate_frames += 1
                # The peer is retransmitting: our ack state probably got lost.
                self._send_explicit_ack()
            else:
                stats.data_frames_received += 1
                stats.data_bytes_received += h.payload_length
                if not in_order:
                    stats.out_of_order_frames += 1
                    stats.record_reorder(abs(h.seq - expected_before))

                # Gap management: arm/cancel the NACK timer.
                if tracker._beyond:
                    self._arm_nack_timer()
                else:
                    self._nack_timer.cancel()

                apply_now, completed = self.ordering.on_frame(frame)
                if not apply_now:
                    stats.record_buffered(self.ordering.buffered)
                for f in apply_now:
                    # The copy's cost depends on length alone: the read's
                    # snapshot, or the copy to user space whether or not real
                    # bytes ride in the frame (synthetic mode).
                    fh = f.header
                    n = fh.op_length if fh.frame_type == FrameType.READ_REQ else fh.payload_length
                    yield cpu.hold(memcpy_ns(n), "protocol.recv")
                    self._apply_frame(f)
                for rx_op in completed:
                    self._on_rx_op_complete(rx_op)

                if self.ack_policy.on_data_frame():
                    self._send_explicit_ack()
                else:
                    self._arm_delayed_ack()

        if self.sim.monitor is not None:
            self.sim.monitor.on_event(self)
        # Acks may have opened the window; new work may be queued.
        if self.has_send_work():
            yield from self.pump(cpu)

    def _apply_frame(self, frame: Frame) -> None:
        """Apply one in-order frame whose copy cost has been held."""
        h = frame.header
        if h.frame_type == FrameType.READ_REQ:
            # Perform the read: snapshot memory into a response operation.
            self._submit_read_response(frame)
            return
        payload = frame.payload
        if payload is not None and h.payload_length > 0:
            if h.flags & OpFlags.SCATTER:
                for addr, data in decode_scatter_records(payload):
                    self.node.memory.write(addr, data)
            else:
                self.node.memory.write(h.remote_address, payload)
        if h.frame_type == FrameType.READ_RESP:
            op = self._pending_reads.get(h.op_id)
            if op is not None:
                op.bytes_received += h.payload_length
                if op.bytes_received >= op.length:
                    del self._pending_reads[h.op_id]
                    self._complete_local_op(op)

    def _on_rx_op_complete(self, rx_op: RxOpState) -> None:
        rx_op.src_node = self.peer_node_id
        if (
            self.recovery is not None
            and rx_op.flags & OpFlags.JOURNALED
            and not self.recovery.accept_delivery(self, rx_op)
        ):
            # Journal replay re-sent a message this node already delivered
            # (same peer incarnation + journal seq): suppress the duplicate.
            self.stats.duplicate_msgs_suppressed += 1
            return
        if rx_op.wants_notification() and not rx_op.is_read_request:
            self.notifications.put(
                Notification(
                    op_id=rx_op.op_id,
                    src_node=self.peer_node_id,
                    address=rx_op.base_address,
                    length=rx_op.length,
                    delivered_at=self.sim.now,
                )
            )
            self.stats.notifications_delivered += 1

    # ------------------------------------------------------------------
    # Edge lifecycle (driven by repro.control, usable manually too)
    # ------------------------------------------------------------------

    def _answer_probe(self, frame: Frame, cpu: Cpu) -> Generator[Any, Any, None]:
        """Echo a heartbeat probe back on the rail it arrived on."""
        rail = frame.control
        if not isinstance(rail, int) or not 0 <= rail < len(self.nics):
            return
        yield cpu.hold(PER_FRAME_SEND_NS, "protocol.send")
        gray_extra = self.node.gray_pump_extra_ns
        if gray_extra:
            # A slow node answers probes slowly too — that is exactly the
            # RTT inflation the differential gray scorer keys on.
            yield cpu.hold(gray_extra, "gray.slow-node")
        nic = self.nics[rail]
        probe_ack = make_probe_ack_frame(
            nic.mac, self.peer_macs[rail], self.conn_id, frame
        )
        probe_ack.incarnation = self.local_incarnation
        nic.transmit(probe_ack)
        self.stats.probes_answered += 1

    def remove_edge(self, rail: int, migrate: bool = True) -> int:
        """Take one rail of a live connection out of service.

        Masks the rail for the striping policy and migrates every unacked
        in-flight frame whose latest transmission used it onto the
        survivors (requeued in sequence order, so delivery-order
        guarantees are untouched — retransmissions keep their original
        sequence numbers).  Returns the number of migrated frames.
        Idempotent: removing an already-removed edge does nothing.
        """
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        if not self.striping.rail_active(rail):
            return 0
        self.striping.disable_rail(rail)
        self.stats.edges_removed += 1
        migrated = 0
        if migrate:
            queued = set(self._retransmit_q)
            for seq in self.window.inflight_on_rail(rail):
                if seq in queued:
                    continue
                self._queue_retransmit(seq)
                migrated += 1
        self.stats.migrated_frames += migrated
        if self.sim.monitor is not None:
            self.sim.monitor.on_event(self)
        if self.has_send_work():
            self.sim.process(self._timer_pump())
        return migrated

    def add_edge(self, rail: int) -> None:
        """Return a previously removed rail to service (live re-stripe)."""
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        if self.striping.rail_active(rail):
            return
        self.striping.enable_rail(rail)
        self.stats.edges_added += 1
        if self.sim.monitor is not None:
            self.sim.monitor.on_event(self)
        if self.has_send_work():
            self.sim.process(self._timer_pump())

    @property
    def active_rails(self) -> list[int]:
        return self.striping.active_rails

    def _on_coarse_dead(self) -> None:
        """Retransmit retries exhausted: every rail is silent."""
        self.fail_pending_ops(
            RetransmitExhausted(
                self.conn_id, self.retransmit_timer.consecutive_timeouts
            )
        )
        if self.control_plane is not None:
            self.control_plane.on_connection_dead()

    def fail_pending_ops(self, exc: BaseException) -> int:
        """Terminate every incomplete operation with a typed error.

        Failed ops count as completed (waiters wake exactly once and the
        API layer re-raises ``exc``); send queues and window state are left
        untouched so accounting invariants still hold — :meth:`destroy`
        clears them for the whole-node crash case.  Returns the number of
        ops failed.
        """
        pending: dict[int, Operation] = {}
        for rec in self.window.inflight.values():
            pending[id(rec.op)] = rec.op
        for run in self.unsent:
            pending[id(run.op)] = run.op
        for op in self._pending_reads.values():
            pending[id(op)] = op
        for op in self._forward_fences:
            pending[id(op)] = op
        failed = 0
        for op in pending.values():
            if op.completed:
                continue
            op.error = exc
            op.completed_at = self.sim.now
            if not op.done.triggered:
                op.done.trigger(op)
            failed += 1
        return failed

    def destroy(self, exc: Optional[BaseException] = None) -> int:
        """Atomically discard this endpoint's volatile state (crash model).

        Fails every pending op (default :class:`PeerCrashed`), cancels all
        timers, drops the send/receive queues and in-flight window records,
        and removes the connection from the protocol's dispatch table.
        Frames still in the fabric hit ``unknown_connection_frames`` (or
        the stale-incarnation guard of a successor connection).  Returns
        the number of ops failed.
        """
        if exc is None:
            exc = PeerCrashed(self.conn_id, self.peer_node_id)
        fastpath = self.fastpath
        if fastpath is not None:
            fastpath.on_discontinuity("endpoint-destroyed")
            self.fastpath = None
        failed = self.fail_pending_ops(exc)
        self.closed = True
        self.retransmit_timer.cancel()
        self.retransmit_timer.exhausted = True  # never re-arm
        self._delayed_ack_timer.cancel()
        self._nack_timer.cancel()
        self.unsent.clear()
        self.unsent_frames = 0
        self._retransmit_q.clear()
        # Leave the protocol's walk for good: a read response this endpoint
        # still applies after the crash registers in a table nobody reads.
        self._queued.pop(self.order, None)
        self._queued = {}
        self.window.inflight.clear()
        self._pending_reads.clear()
        self._forward_fences.clear()
        if self.protocol.connections.get(self.conn_id) is self:
            del self.protocol.connections[self.conn_id]
        return failed

    # ------------------------------------------------------------------
    # Ack / NACK machinery
    # ------------------------------------------------------------------

    def _sync_pacing(self) -> None:
        """Retune the NIC token buckets to the controller's current rate.

        The connection-level rate (cwnd/srtt with headroom) is split evenly
        across the active rails; the NIC clamps each share at line rate.
        """
        rate = self.congestion.pacing_rate_bps()
        rails = self.striping.active_rails
        per_rail = rate / len(rails) if rails else rate
        burst = PACING_BURST_FRAMES * FULL_FRAME_WIRE_BYTES
        for rail in rails:
            self.nics[rail].set_pacing_rate(per_rail, burst)

    def _process_ack_value(self, cum_ack: int, ece: bool = False) -> None:
        freed = self.window.on_ack(cum_ack)
        if ece:
            self.stats.ecn_echoes_received += 1
        if self.sim.monitor is not None:
            self.sim.monitor.on_ack(self, cum_ack, freed)
        if not freed:
            return
        cc = self.congestion
        if cc is not None:
            # Karn's rule: an RTT sample only from a never-retransmitted
            # frame (the newest of the freed batch).
            rec = freed[-1]
            rtt = None if rec.retransmits else self.sim.now - rec.last_sent_at
            cc.on_ack(len(freed), ece, self.sim.now, rtt)
            if self._pacing_on:
                self._sync_pacing()
        self.retransmit_timer.on_progress()
        if self.window.inflight:
            self.retransmit_timer.arm()
        for rec in freed:
            op = rec.op
            op.frames_acked += 1
            if op.frames_acked >= op.frames_total and not op.completed:
                if op.kind == Operation.READ:
                    # Reads complete when response data lands, not on ack.
                    continue
                self._complete_local_op(op)

    def _complete_local_op(self, op: Operation) -> None:
        op.completed_at = self.sim.now
        self.stats.ops_completed += 1
        if self._forward_fences and self._forward_fences[0] is op:
            self._forward_fences.popleft()
        elif op in self._forward_fences:
            self._forward_fences.remove(op)
        op.done.trigger(op)

    def _queue_retransmit(self, seq: int) -> None:
        """Queue in-flight ``seq`` for retransmission; every enqueue of
        ``_retransmit_q`` goes through here (see :meth:`_enqueue`)."""
        self.window.inflight[seq].retransmits += 1
        self._retransmit_q.append(seq)
        self._queued[self.order] = self

    def _process_nack(self, missing: list[int]) -> None:
        queued = set(self._retransmit_q)
        now = self.sim.now
        enqueued = 0
        for seq in missing:
            rec = self.window.inflight.get(seq)
            if rec is None or seq in queued:
                continue
            # Recently (re)transmitted frames are most likely still queued
            # in a busy rail, not lost: retransmitting them would only add
            # duplicates on an already-congested path.
            if now - rec.last_sent_at < NACK_HOLDOFF_NS:
                continue
            self._queue_retransmit(seq)
            self.stats.nack_retransmits += 1
            enqueued += 1
        if enqueued:
            cc = self.congestion
            if cc is not None:
                cc.on_loss(now)
                if self._pacing_on:
                    self._sync_pacing()

    def _echo(self) -> int:
        """``ECN_ECHO`` when the frame being built must carry the echo (CE
        marks arrived since the last ack left), counting it; else 0."""
        if self.ack_policy.echo_pending:
            self.stats.ecn_echoes_sent += 1
            return ECN_ECHO
        return 0

    def _send_explicit_ack(self) -> None:
        # Control frames ride a separate rotation: they must not charge the
        # data-plane byte-deficit counters or advance its cursor.
        rail = self.striping.control_rail()
        if rail is None:
            return  # rings full; the delayed-ack timer will try again
        cum = self.tracker.cum_ack
        ece = self._echo()
        frame = make_ack_frame(
            self.nics[rail].mac, self.peer_macs[rail], self.conn_id, cum, ece
        )
        frame.incarnation = self.local_incarnation
        self.nics[rail].transmit(frame)
        self.stats.explicit_acks_sent += 1
        self.ack_policy.on_ack_emitted(cum, piggybacked=False)
        self._delayed_ack_timer.cancel()

    def _send_nack(self) -> None:
        still_missing = set(self.tracker.missing(NACK_MAX_ENTRIES))
        now = self.sim.now
        missing = sorted(
            seq
            for seq in (still_missing & self._nack_snapshot)
            if now - self._nacked_at.get(seq, -(1 << 60)) >= RENACK_INTERVAL_NS
        )
        if not missing:
            return
        rail = self.striping.control_rail()
        if rail is None:
            return
        ece = self._echo()
        frame = make_nack_frame(
            self.nics[rail].mac,
            self.peer_macs[rail],
            self.conn_id,
            self.tracker.cum_ack,
            missing,
            ece,
        )
        frame.incarnation = self.local_incarnation
        self.nics[rail].transmit(frame)
        self.stats.nacks_sent += 1
        if ece:
            self.ack_policy.note_echo_sent()
        for seq in missing:
            self._nacked_at[seq] = now
        expected = self.tracker.expected
        if len(self._nacked_at) > 4 * NACK_MAX_ENTRIES:
            self._nacked_at = {
                s: t for s, t in self._nacked_at.items() if s >= expected
            }

    # ------------------------------------------------------------------
    # Timers (callbacks spawn small CPU-charged processes)
    # ------------------------------------------------------------------

    def _arm_delayed_ack(self) -> None:
        timer = self._delayed_ack_timer
        if not timer.active:
            timer.restart(ACK_DELAY_NS)

    def _delayed_ack_fired(self) -> None:
        if self.ack_policy.needs_delayed_ack(self.tracker.cum_ack):
            self.sim.process(self._timer_work(self._send_explicit_ack))

    def _arm_nack_timer(self) -> None:
        timer = self._nack_timer
        if not timer.active:
            self._nack_snapshot = set(self.tracker.missing(NACK_MAX_ENTRIES))
            timer.restart(NACK_DELAY_NS)

    def _nack_fired(self) -> None:
        if self.tracker.has_gap():
            self.sim.process(self._timer_work(self._send_nack))
            self._arm_nack_timer()  # keep nagging until the gap closes

    def _on_coarse_timeout(self) -> None:
        rec = self.window.last_unacked()
        if rec is None:
            return
        seq = rec.frame.header.seq
        if seq not in self._retransmit_q:
            # Count at the enqueue site: a timer firing while the seq is
            # still queued enqueues nothing and must not inflate either
            # the per-frame or the connection-level retransmit counter.
            self.stats.timeout_retransmits += 1
            self._queue_retransmit(seq)
            cc = self.congestion
            if cc is not None:
                cc.on_timeout(self.sim.now)
                if self._pacing_on:
                    self._sync_pacing()
        self.sim.process(self._timer_pump())
        self.retransmit_timer.arm()
        if self.sim.monitor is not None:
            self.sim.monitor.on_event(self)

    def _timer_work(self, action) -> Generator[Any, Any, None]:
        """Run a small control-frame action on the protocol CPU."""
        yield self.node.protocol_cpu.hold(PER_FRAME_SEND_NS, "protocol.send")
        action()

    def _timer_pump(self) -> Generator[Any, Any, None]:
        yield from self.pump(self.node.protocol_cpu)
