"""Whole-node crash/restart recovery (fail-stop model).

The edge lifecycle control plane (:mod:`repro.control`) tolerates *edge*
failures; this package adds the next layer up — a **node** that loses all
volatile state at once: connection windows, retransmit queues, NIC rings,
in-flight pump work, DSM page caches.  The pieces:

* :class:`ClusterRecovery` — the cluster-level coordinator.  Tracks each
  node's **incarnation number** (bumped on every restart, carried by the
  SYN/SYN_ACK handshake and stamped on every frame so traffic from a dead
  incarnation is rejected), performs the atomic state destruction of
  :meth:`~ClusterRecovery.crash` / resurrection of
  :meth:`~ClusterRecovery.restart`, escalates all-edges-DOWN detector
  verdicts into ``PEER_DOWN`` connection teardown, and runs the reconnect
  loop (capped exponential backoff + seeded jitter) for the surviving
  side.  It also owns the receivers' durable delivery log — the
  ``(incarnation, seq)`` dedup that makes redelivery exactly-once.
* :class:`MessageJournal` / :class:`ReliableChannel` — a sender-side
  journal of messages; unacked entries are redelivered across a
  reconnect, with duplicates suppressed at the receiver.

With no crash faults scheduled none of this is instantiated and the
default protocol path is bit-identical (fingerprint-verified).
"""

from .journal import JournalEntry, MessageJournal, ReliableChannel
from .manager import ClusterRecovery, NodeRecoveryState, reconnect_bound_ns

__all__ = [
    "ClusterRecovery",
    "NodeRecoveryState",
    "reconnect_bound_ns",
    "MessageJournal",
    "JournalEntry",
    "ReliableChannel",
]
