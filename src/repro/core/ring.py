"""Credit-returned slot ring: the small-message channel above the RDMA API.

:mod:`repro.mp` and :mod:`repro.dsm` both carry their small messages this
way (DESIGN.md, "Message rings above RDMA"), and this module is that way,
kept once.  The receiver owns an inbox of ``slots`` fixed-size slots;
message ``n`` is one RDMA write with ``NOTIFY | FENCE_BACKWARD`` into slot
``n % slots``.  The sender may run ``window`` messages ahead of what the
receiver has consumed; every ``credit_every`` messages the receiver writes
its cumulative consumed count (u64, big-endian) into a credit cell in the
sender's memory, which the sender applies with ``max()``.

One reused scratch buffer is the RDMA source of every slot write, so the
writers of a ring take turns: a ``send`` that started while another was
between filling the scratch and ``submit_write``'s snapshot of it would
overwrite it and compute the same slot.  Credits have their own scratch and
cell and never take the turn, so a writer stalled for credit cannot block
the credit that frees it.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..ethernet import OpFlags
from ..sim import Event, Resource
from .api import ConnectionHandle
from .errors import PeerCrashed

__all__ = ["SlotRing"]

_SLOT_FLAGS = OpFlags.NOTIFY | OpFlags.FENCE_BACKWARD


class SlotRing:
    """One node's end of the two rings it shares with one peer: the inbox
    the peer writes into, and the sending state for the peer's inbox.

    The listener process is the caller's; it asks the ring three questions
    of each notification: :meth:`absorb_credit`, :meth:`consume`,
    :meth:`credit_due`.
    """

    def __init__(
        self,
        conn: ConnectionHandle,
        slots: int,
        slot_bytes: int,
        window: int,
        credit_every: int,
    ) -> None:
        # credit_every <= window: a stalled writer's credit always comes.
        # window < slots: a slot may be read after its credit has left.
        if not 0 < credit_every <= window < slots or slot_bytes <= 0:
            raise ValueError(
                f"need 0 < credit_every <= window < slots, slot_bytes > 0; got "
                f"{credit_every=} {window=} {slots=} {slot_bytes=}"
            )
        self.conn = conn
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.window = window
        self.credit_every = credit_every
        self._sim = conn.node.sim
        memory = self._memory = conn.node.memory
        # What the peer writes into ...
        self._inbox = memory.alloc(slots * slot_bytes)
        self._credit_cell = memory.alloc(8)
        # ... and the RDMA sources of what we write: submit_write copies the
        # bytes out when an operation is submitted, so one of each serves
        # every message.
        self._slot_scratch = memory.alloc(slot_bytes)
        self._credit_scratch = memory.alloc(8)
        self._peer_inbox = self._peer_credit_cell = 0  # set by link()
        self._send_seq = self._peer_consumed = self._recv_seq = 0
        self._credit_event: Optional[Event] = None  # the stalled writer's
        self._failed: Optional[PeerCrashed] = None  # set by fail()
        self._turn = Resource(self._sim)

    @staticmethod
    def link(a: "SlotRing", b: "SlotRing") -> None:
        """Tell each end of a pair where the other's inbox and cell are."""
        a._peer_inbox, a._peer_credit_cell = b._inbox, b._credit_cell
        b._peer_inbox, b._peer_credit_cell = a._inbox, a._credit_cell

    def send(self, blob: bytes, cpu=None, stage=None) -> Generator[Any, Any, None]:
        """Write ``blob`` into the peer's next slot, charging ``cpu``
        (default: the application CPU).

        Takes the writer's turn (FIFO behind a writer already sending),
        then waits while the peer is ``window`` messages behind.  ``stage``,
        if given, is a generator function run as ``stage(slot)`` once the
        slot is known and before it is written (the DSM stages the slot's
        write notices there, ahead of the fence).  The turn passes on when
        the write has been issued, or on any error.  On a failed ring (see
        :meth:`fail`) it raises instead of waiting.
        """
        turn = self._turn
        if not turn.try_acquire():
            yield turn
        try:
            if self._failed is not None:
                raise self._failed
            while self._send_seq - self._peer_consumed >= self.window:
                self._credit_event = Event(self._sim)
                got = yield self._credit_event
                if isinstance(got, PeerCrashed):
                    raise got
            slot = self._send_seq % self.slots
            if stage is not None:
                yield from stage(slot)
            self._memory.write(self._slot_scratch, blob)
            yield from self.conn.rdma_write(
                self._slot_scratch, self._peer_inbox + slot * self.slot_bytes,
                len(blob), flags=_SLOT_FLAGS, cpu=cpu,
            )
            self._send_seq += 1
        finally:
            turn.release()

    def fail(self, exc: PeerCrashed) -> None:
        """The ring is dead (its peer crashed, or a reconnect replaced it):
        the writer stalled for credit and every writer that takes its turn
        later raise ``exc`` instead of waiting for a credit that cannot
        come.  A failed ring stays failed."""
        self._failed = exc
        self._wake(exc)

    def _wake(self, value: Optional[PeerCrashed] = None) -> None:
        ev, self._credit_event = self._credit_event, None
        if ev is not None:
            ev.trigger(value)

    def absorb_credit(self, address: int) -> bool:
        """Is it the peer's credit?  Then apply it and wake the writer."""
        if address != self._credit_cell:
            return False
        consumed = int.from_bytes(self._memory.read(address, 8), "big")
        self._peer_consumed = max(self._peer_consumed, consumed)
        self._wake()
        return True

    def consume(self, address: int) -> Optional[int]:
        """Is it the next message in order?  Then count it consumed and
        return its slot index (the message starts at ``address``); a write
        anywhere else returns ``None`` and consumes nothing."""
        slot = self._recv_seq % self.slots
        if address != self._inbox + slot * self.slot_bytes:
            return None
        self._recv_seq += 1
        return slot

    def credit_due(self) -> bool:
        """Did the message just consumed complete a batch of credit?"""
        return self._recv_seq % self.credit_every == 0

    def return_credit(self) -> Generator[Any, Any, None]:
        """Write the consumed count into the peer's credit cell, on the
        node's protocol CPU.  Only this ring's listener calls it."""
        self._memory.write(
            self._credit_scratch, self._recv_seq.to_bytes(8, "big")
        )
        yield from self.conn.rdma_write(
            self._credit_scratch, self._peer_credit_cell, 8,
            flags=OpFlags.NOTIFY, cpu=self.conn.node.protocol_cpu,
        )
