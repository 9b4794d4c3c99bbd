"""Message passing over MultiEdge RDMA.

The paper motivates MultiEdge with the observation that scalable systems
carry *several* communication protocols for different application domains
on separate physical interconnects, and asks whether one edge-based
interconnect can serve them all.  The DSM (:mod:`repro.dsm`) is one such
domain; this package is the other classic one — MPI-style message passing —
built on exactly the same RDMA primitives:

* **eager protocol** (small messages): the payload is RDMA-written into a
  slot of the receiver's per-peer inbox ring together with a 32-byte
  envelope; the completion notification wakes the receiver's matcher.
  The ring, its credits and the turn-taking of its writers are
  :class:`repro.core.SlotRing`; several processes of one rank may send to
  the same peer at once.
* **rendezvous protocol** (large messages): the sender posts a
  request-to-send envelope; when a matching ``recv`` buffer exists, the
  receiver answers clear-to-send with the destination virtual address and
  the payload travels as a single zero-copy RDMA write into the user
  buffer — the RDMA-enabled message passing the paper's related work
  (EMP, U-Net, VIA) builds towards.

Matching follows MPI semantics: ``(source, tag)`` with wildcards, FIFO per
(source, tag) pair, with an unexpected-message queue.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..bench.cluster import Cluster
from ..core import PeerCrashed, SlotRing
from ..ethernet import OpFlags
from ..sim import Event, Simulator

__all__ = ["MpWorld", "MpEndpoint", "MpMessage", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1

SLOT_BYTES = 16_384  # eager ceiling; larger messages rendezvous
RING_SLOTS = 16
SEND_WINDOW = RING_SLOTS - 2
CREDIT_EVERY = 4

# Envelope at the head of every eager slot / control message:
#   u32 kind, u32 src, u32 tag, u32 msg_id, u64 size, u64 addr
_ENVELOPE = struct.Struct("!IIIIQQ")
ENVELOPE_BYTES = _ENVELOPE.size

KIND_EAGER = 1
KIND_RTS = 2  # rendezvous request-to-send
KIND_CTS = 3  # clear-to-send, carries destination address


@dataclass
class MpMessage:
    """A received message."""

    source: int
    tag: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class _PendingRecv:
    source: int
    tag: int
    event: Event


@dataclass
class _PendingRendezvous:
    """Sender-side state of one rendezvous transfer."""

    data: bytes
    done: Event
    dest: int = -1


class MpEndpoint:
    """One rank of a message-passing world."""

    def __init__(self, world: "MpWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.sim: Simulator = world.cluster.sim
        self.stack = world.cluster.stacks[rank]
        self._peers: dict[int, SlotRing] = {}  # wired by MpWorld._wire_pair
        self._unexpected: list[MpMessage] = []
        self._waiting: list[_PendingRecv] = []
        # Posted receive buffers of accepted rendezvous transfers.
        self._posted_rdv: list[tuple[int, int, int, int, Event]] = []
        #   entries: (src, msg_id, dest_addr, size, event)
        self._rdv_out: dict[int, _PendingRendezvous] = {}
        # Free rendezvous send scratch as (address, capacity), grow-only.
        self._rdv_scratch: Optional[tuple[int, int]] = None
        self._next_msg_id = 1
        # Messages that arrived as RTS and wait for a matching recv.
        self._pending_rts: list[tuple[int, int, int, int]] = []
        #   entries: (src, tag, msg_id, size)
        self.stats_sent = 0
        self.stats_received = 0

    # -- send path -----------------------------------------------------------

    def send(
        self, dest: int, data: bytes, tag: int = 0
    ) -> Generator[Any, Any, None]:
        """Blocking send (returns when the buffer is reusable)."""
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("mp payloads are bytes")
        data = bytes(data)
        ring = self._peers[dest]
        if ENVELOPE_BYTES + len(data) <= SLOT_BYTES:
            yield from self._send_eager(ring, data, tag)
        else:
            yield from self._send_rendezvous(ring, dest, data, tag)
        self.stats_sent += 1

    def _send_eager(
        self, ring: SlotRing, data: bytes, tag: int
    ) -> Generator[Any, Any, None]:
        envelope = _ENVELOPE.pack(
            KIND_EAGER, self.rank, tag, self._next_msg_id, len(data), 0
        )
        self._next_msg_id += 1
        yield from ring.send(envelope + data)

    def _send_rendezvous(
        self, ring: SlotRing, dest: int, data: bytes, tag: int
    ) -> Generator[Any, Any, None]:
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        pending = _PendingRendezvous(data=data, done=Event(self.sim), dest=dest)
        self._rdv_out[msg_id] = pending
        envelope = _ENVELOPE.pack(
            KIND_RTS, self.rank, tag, msg_id, len(data), 0
        )
        yield from ring.send(envelope)
        # CTS handling (in the listener) performs the bulk write; we wait
        # until the payload has been pushed and acknowledged.
        got = yield pending.done
        if isinstance(got, PeerCrashed):
            raise got

    # -- receive path ----------------------------------------------------------

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, MpMessage]:
        """Blocking receive with MPI-style (source, tag) matching."""
        msg = self._match_unexpected(source, tag)
        if msg is not None:
            self.stats_received += 1
            return msg
        # A pending rendezvous RTS may match: accept it by allocating the
        # destination buffer and answering CTS.
        rts = self._match_rts(source, tag)
        if rts is not None:
            msg = yield from self._accept_rendezvous(*rts)
            self.stats_received += 1
            return msg
        waiter = _PendingRecv(source, tag, Event(self.sim))
        self._waiting.append(waiter)
        msg = yield waiter.event
        if isinstance(msg, PeerCrashed):  # the only matching sender died
            raise msg
        if isinstance(msg, tuple):  # an RTS matched this waiter
            msg = yield from self._accept_rendezvous(*msg)
        self.stats_received += 1
        return msg

    def _match_unexpected(self, source: int, tag: int) -> Optional[MpMessage]:
        for i, msg in enumerate(self._unexpected):
            if (source in (ANY_SOURCE, msg.source)) and (
                tag in (ANY_TAG, msg.tag)
            ):
                return self._unexpected.pop(i)
        return None

    def _match_rts(self, source: int, tag: int):
        for i, (src, t, msg_id, size) in enumerate(self._pending_rts):
            if (source in (ANY_SOURCE, src)) and (tag in (ANY_TAG, t)):
                return self._pending_rts.pop(i)
        return None

    def _accept_rendezvous(
        self, src: int, tag: int, msg_id: int, size: int
    ) -> Generator[Any, Any, MpMessage]:
        memory = self.stack.node.memory
        dest = memory.alloc(size)
        fin = Event(self.sim)
        self._posted_rdv.append((src, msg_id, dest, size, fin))
        envelope = _ENVELOPE.pack(KIND_CTS, self.rank, tag, msg_id, size, dest)
        yield from self._peers[src].send(envelope)
        got = yield fin
        if isinstance(got, PeerCrashed):
            raise got
        return MpMessage(source=src, tag=tag, data=memory.read(dest, size))

    # -- listener ---------------------------------------------------------------

    def _listener(self, peer: int) -> Generator:
        ring = self._peers[peer]
        conn = ring.conn
        memory = self.stack.node.memory
        cpu = self.stack.node.protocol_cpu
        while True:
            note = yield from conn.wait_notification(cpu=cpu)
            if conn.conn.closed:
                # This incarnation died (node crash destroyed the
                # endpoint); drop the notification and retire.  After a
                # reconnect, MpWorld.on_pair_reconnected() spawns a fresh
                # listener on the new endpoints.
                return
            base = note.address
            if ring.absorb_credit(base):
                continue
            if ring.consume(base) is None:
                # Not the ring's: a rendezvous payload that landed
                # directly in a posted buffer.
                for i, (src, msg_id, dest, size, fin) in enumerate(self._posted_rdv):
                    if base == dest and src == peer:
                        self._posted_rdv.pop(i)
                        fin.trigger()
                        break
                else:
                    raise RuntimeError(
                        f"mp rank {self.rank}: notification at {base:#x} "
                        f"matches no ring slot or posted buffer"
                    )
                continue
            envelope = memory.read(base, ENVELOPE_BYTES)
            kind, src, tag, msg_id, size, addr = _ENVELOPE.unpack(envelope)
            if ring.credit_due():
                try:
                    yield from ring.return_credit()
                except RuntimeError:
                    if conn.conn.closed:
                        return  # crashed mid-credit; listener retires
                    raise
            if kind == KIND_EAGER:
                data = memory.read(base + ENVELOPE_BYTES, size)
                self._deliver(MpMessage(source=src, tag=tag, data=data))
            elif kind == KIND_RTS:
                self._deliver_rts(src, tag, msg_id, size)
            elif kind == KIND_CTS:
                pending = self._rdv_out.pop(msg_id, None)
                if pending is None:
                    raise RuntimeError(f"CTS for unknown message {msg_id}")
                self.sim.process(
                    self._push_rendezvous(ring, addr, pending),
                    name=f"mp.rdv{self.rank}->{peer}",
                )
            else:
                raise RuntimeError(f"unknown mp envelope kind {kind}")

    def _push_rendezvous(
        self, ring: SlotRing, dest_addr: int, pending: _PendingRendezvous
    ) -> Generator:
        memory = self.stack.node.memory
        size = len(pending.data)
        # Take the scratch while the write is being issued: pushes for two
        # outstanding rendezvous sends may overlap, and one that finds it
        # taken (or too small) reserves its own.
        scratch, capacity = self._rdv_scratch or (0, 0)
        self._rdv_scratch = None
        if capacity < size:
            capacity = max(size, 2 * capacity)
            scratch = memory.alloc(capacity)
        memory.write(scratch, pending.data)
        cpu = self.stack.node.protocol_cpu
        h = yield from ring.conn.rdma_write(
            scratch, dest_addr, size, flags=OpFlags.NOTIFY, cpu=cpu,
        )
        # Submitted, hence copied out: the scratch is free again.
        if self._rdv_scratch is None or self._rdv_scratch[1] < capacity:
            self._rdv_scratch = (scratch, capacity)
        yield from h.wait()
        pending.done.trigger()

    def _deliver(self, msg: MpMessage) -> None:
        for i, waiter in enumerate(self._waiting):
            if (waiter.source in (ANY_SOURCE, msg.source)) and (
                waiter.tag in (ANY_TAG, msg.tag)
            ):
                self._waiting.pop(i)
                waiter.event.trigger(msg)
                return
        self._unexpected.append(msg)

    # -- crash recovery hook ----------------------------------------------

    def on_peer_crashed(self, peer: int) -> None:
        """Fail every wait that only ``peer`` could satisfy.

        Called through :meth:`MpWorld.on_node_crashed`.  Receives
        posted with ``source == peer``, rendezvous sends targeting the
        peer, and credit waits on its inbox all raise a typed
        :class:`~repro.core.PeerCrashed` instead of hanging forever.
        ``ANY_SOURCE`` receives are left alone — a surviving rank may
        still satisfy them.
        """
        exc = PeerCrashed(-1, peer)
        self._peers[peer].fail(exc)
        for waiter in [w for w in self._waiting if w.source == peer]:
            self._waiting.remove(waiter)
            waiter.event.trigger(exc)
        for msg_id in [m for m, p in self._rdv_out.items() if p.dest == peer]:
            pending = self._rdv_out.pop(msg_id)
            if not pending.done.triggered:
                pending.done.trigger(exc)
        for entry in [e for e in self._posted_rdv if e[0] == peer]:
            self._posted_rdv.remove(entry)
            fin = entry[4]
            if not fin.triggered:
                fin.trigger(exc)

    def _deliver_rts(self, src: int, tag: int, msg_id: int, size: int) -> None:
        for i, waiter in enumerate(self._waiting):
            if (waiter.source in (ANY_SOURCE, src)) and (
                waiter.tag in (ANY_TAG, tag)
            ):
                self._waiting.pop(i)
                waiter.event.trigger((src, tag, msg_id, size))
                return
        self._pending_rts.append((src, tag, msg_id, size))


class MpWorld:
    """A message-passing world over one simulated cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.size = cluster.config.nodes
        self.endpoints = [MpEndpoint(self, rank) for rank in range(self.size)]
        for i in range(self.size):
            for j in range(i + 1, self.size):
                self._wire_pair(i, j)
        for ep in self.endpoints:
            for peer in ep._peers:
                ep.sim.process(
                    ep._listener(peer), name=f"mp.listen{ep.rank}-{peer}"
                )
        cluster.layers.append(self)

    def on_node_crashed(self, node_id: int) -> None:
        """Crash hook (repro.recovery): every surviving rank's waits on
        ``node_id`` fail with a typed ``PeerCrashed``, and the messages that
        had arrived at ``node_id`` unmatched die with its memory."""
        for ep in self.endpoints:
            if ep.rank != node_id:
                ep.on_peer_crashed(node_id)
        crashed = self.endpoints[node_id]
        crashed._unexpected.clear()
        crashed._pending_rts.clear()

    def _wire_pair(self, i: int, j: int) -> None:
        """Build both ends of the ``i``/``j`` eager rings and cross-link them."""
        ends = [
            SlotRing(conn, RING_SLOTS, SLOT_BYTES, SEND_WINDOW, CREDIT_EVERY)
            for conn in self.cluster.connect(i, j)
        ]
        self.endpoints[i]._peers[j], self.endpoints[j]._peers[i] = ends
        SlotRing.link(*ends)

    def on_pair_reconnected(self, i: int, j: int) -> None:
        """Reconnect hook (repro.recovery): rebuild the eager rings between
        ``i`` and ``j`` on the pair's fresh endpoints.

        The old rings (inboxes, credit cells, sequence counters) refer to a
        dead incarnation.  A writer parked on one would wait for credit
        forever — the crash fails no ring of the crashed node itself —
        and take every later message of its sender with it, so both old
        rings are failed first: that writer, and any that takes its turn
        later, raises :class:`~repro.core.PeerCrashed`.  Then fresh rings
        are built on both sides, with new listener processes on the fresh
        connection.  The old listeners stay parked on the destroyed
        endpoints' notification queues; destroyed connections never
        notify, and nothing waits on them.
        """
        for rank, peer in ((i, j), (j, i)):
            self.endpoints[rank]._peers[peer].fail(PeerCrashed(-1, peer))
        self._wire_pair(i, j)
        for rank, peer in ((i, j), (j, i)):
            ep = self.endpoints[rank]
            ep.sim.process(
                ep._listener(peer), name=f"mp.relisten{rank}-{peer}"
            )

    def start(self, program) -> list:
        """Spawn ``program(endpoint)`` on every rank without running; returns
        the processes, a pausable run's workload (:class:`~repro.fabric.TrafficRun`)."""
        sim = self.cluster.sim
        return [
            sim.process(program(ep), name=f"mp.rank{ep.rank}")
            for ep in self.endpoints
        ]

    def run(self, program, limit_ms: int = 600_000) -> list:
        """Run ``program(endpoint)`` on every rank; returns their results."""
        sim = self.cluster.sim
        limit = limit_ms * 1_000_000
        return [sim.run_until_done(p, limit=limit) for p in self.start(program)]
