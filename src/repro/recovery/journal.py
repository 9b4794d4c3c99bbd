"""Sender-side message journal: exactly-once delivery across node crashes.

A :class:`ReliableChannel` wraps one connection with a journal of every
message sent on it.  Each entry gets a **journal sequence number** (jseq)
at append time; the channel is its connection's *sole* submitter, so jseq
and the protocol-level ``op_seq`` coincide — which lets the receiver key
its durable dedup log on ``(sender, sender_incarnation, op_seq)`` without
any extra header bytes.

An entry stays *pending* until the operation carrying it completes
successfully (cumulative acks free the send window in sequence order, so
the delivered set is always a prefix of the journal).  When the peer
crashes, every in-flight operation fails with
:class:`~repro.core.PeerCrashed`; its entries remain pending.  After the
recovery layer reconnects, :meth:`ReliableChannel.rebind` seeds the fresh
connection's ``op_seq`` counter from the first pending jseq and re-issues
the pending suffix.  Entries that *were* applied at the receiver before
the crash (delivered but never acked, or acked frames lost) carry the same
``(incarnation, jseq)`` key and are suppressed by the receiver's delivery
log — at-least-once redelivery plus dedup gives exactly-once.

The journal itself is volatile with its node (fail-stop): if the *sender*
crashes, its journal dies with it and unacked messages are lost.  A
restarted sender is a new incarnation with a fresh key space, so nothing
it sends can be mistaken for the dead incarnation's traffic.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..core.api import ConnectionHandle
from ..core.errors import MultiEdgeError
from ..ethernet.frame import OpFlags

__all__ = ["JournalEntry", "MessageJournal", "ReliableChannel"]


class JournalEntry:
    """One journaled message: payload coordinates plus delivery state."""

    __slots__ = (
        "jseq",
        "local_address",
        "remote_address",
        "length",
        "delivered",
        "delivered_at",
        "issued_on",
        "send_count",
    )

    def __init__(
        self, jseq: int, local_address: int, remote_address: int, length: int
    ) -> None:
        self.jseq = jseq
        self.local_address = local_address
        self.remote_address = remote_address
        self.length = length
        self.delivered = False
        self.delivered_at: Optional[int] = None  # sim ns of the first ack
        # The Connection this entry was last issued on — replay after a
        # rebind must not double-issue entries already in flight on the
        # *new* connection.
        self.issued_on: Optional[Any] = None
        self.send_count = 0


class MessageJournal:
    """Ordered journal of messages; delivered entries form a prefix."""

    def __init__(self) -> None:
        self.entries: List[JournalEntry] = []
        self.delivered_count = 0

    def append(
        self, local_address: int, remote_address: int, length: int
    ) -> JournalEntry:
        entry = JournalEntry(
            len(self.entries), local_address, remote_address, length
        )
        self.entries.append(entry)
        return entry

    def pending(self) -> List[JournalEntry]:
        return [e for e in self.entries if not e.delivered]

    def mark_delivered(self, entry: JournalEntry) -> None:
        if not entry.delivered:
            entry.delivered = True
            self.delivered_count += 1


class ReliableChannel:
    """Exactly-once message stream from ``src`` to ``dst`` over one connection.

    Created through :meth:`ClusterRecovery.channel`.  The channel must be
    the only submitter on its connection (asserted), and does not support
    fence flags — every message is a plain NOTIFY write.
    """

    def __init__(self, recovery, src: int, dst: int) -> None:
        self.recovery = recovery
        self.cluster = recovery.cluster
        self.sim = recovery.sim
        self.src = src
        self.dst = dst
        self.journal = MessageJournal()
        self.handle: ConnectionHandle = self.cluster.connect(src, dst)[0]
        if self.handle.conn._next_op_seq != 0:
            raise ValueError(
                "ReliableChannel must be its connection's sole submitter"
            )
        self.dead: Optional[BaseException] = None
        self.messages_sent = 0
        self.redeliveries = 0
        # None = ready to issue; an Event while a reconnect/replay is in
        # progress (senders block on it instead of racing the replay).
        self._ready = None
        # Register with the recovery layer so peer-down teardown and
        # reconnect rebinds reach this channel.
        if self not in recovery.channels:
            recovery.channels.append(self)

    # -- sending ----------------------------------------------------------

    def send(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        cpu=None,
    ) -> Generator[Any, Any, JournalEntry]:
        """Journal a message and issue it; returns its entry.

        ``yield from`` this from an application process.  The returned
        entry's :attr:`~JournalEntry.delivered` flips once the receiver
        has acknowledged it (possibly after crash-redelivery).
        """
        if self.dead is not None:
            raise self.dead
        entry = self.journal.append(local_address, remote_address, length)
        self.messages_sent += 1
        while True:
            while self._ready is not None:
                yield self._ready
                if self.dead is not None:
                    raise self.dead
            try:
                yield from self._issue(entry, cpu)
            except MultiEdgeError:
                # The connection was torn down while this send was inside
                # the submit path (the teardown ran between our readiness
                # check and the actual submit).  The recovery layer has
                # already flagged the loss — wait out the reconnect and
                # let the replay redeliver.
                if self.dead is not None:
                    raise self.dead
                if self._ready is None:
                    raise  # closed for a reason recovery doesn't know
                continue
            return entry

    def _issue(
        self, entry: JournalEntry, cpu=None
    ) -> Generator[Any, Any, None]:
        conn = self.handle.conn
        if entry.issued_on is conn:
            return  # replay already put it on the current connection
        assert conn._next_op_seq == entry.jseq, (
            "journal/op sequence divergence: the channel must be the "
            "connection's sole submitter"
        )
        entry.issued_on = conn
        entry.send_count += 1
        h = yield from self.handle.rdma_write(
            entry.local_address,
            entry.remote_address,
            entry.length,
            flags=OpFlags.NOTIFY | OpFlags.JOURNALED,
            cpu=cpu,
        )
        op = h._op

        def _on_done(_value, entry=entry, op=op) -> None:
            if op.error is None:
                if entry.delivered_at is None:
                    entry.delivered_at = self.sim.now
                self.journal.mark_delivered(entry)
            # On error the entry stays pending; rebind() redelivers it.

        op.done.add_callback(_on_done)

    # -- recovery plumbing (called by ClusterRecovery) --------------------

    def on_connection_lost(self) -> None:
        """The underlying connection was destroyed; block new sends."""
        if self._ready is None:
            self._ready = self.sim.event()

    def fail(self, exc: BaseException) -> None:
        """Permanent failure (reconnect exhausted / sender crashed)."""
        self.dead = exc
        ev = self._ready
        self._ready = None
        if ev is not None and not ev.triggered:
            ev.trigger()

    def rebind(self, handle: ConnectionHandle) -> None:
        """Adopt the post-reconnect connection and replay the pending suffix."""
        self.handle = handle
        if self._ready is None:
            self._ready = self.sim.event()
        self.sim.process(self._replay(), name=f"recovery.replay.{self.src}->{self.dst}")

    def _replay(self) -> Generator[Any, Any, None]:
        conn = self.handle.conn
        pending = self.journal.pending()
        if pending:
            assert conn._next_op_seq == 0, (
                "rebind target connection already carried traffic"
            )
            # Resume the op_seq space where the journal left off so
            # jseq == op_seq still holds and the receiver's dedup keys
            # line up across the reconnect.
            conn._next_op_seq = pending[0].jseq
            for entry in pending:
                if self.handle.conn is not conn:
                    return  # a newer rebind superseded this replay
                if entry.issued_on is conn:
                    continue
                replay = entry.send_count > 0
                try:
                    yield from self._issue(entry)
                except MultiEdgeError:
                    # The replay target died mid-replay (another crash);
                    # leave _ready set for the next rebind (or fail()).
                    return
                if replay:
                    self.redeliveries += 1
        ev = self._ready
        self._ready = None
        if ev is not None and not ev.triggered:
            ev.trigger()
