"""User-level MultiEdge library (paper §2.2).

This is the programming interface applications see.  It mirrors the paper's
API: connection-oriented, fully asynchronous remote memory operations
initiated through a single primitive, operation handles for progress
queries, and completion notifications at the target.

All entry points that cross into the kernel are generators: an application
process issues ``handle = yield from conn.rdma_write(...)``, which charges
the syscall, the user→kernel copy, and the inline send-path work to the
application's CPU — exactly the costs the paper attributes to operation
initiation (~2 µs host overhead plus copy time).  The user-library work and
the syscall crossing are application time (``app.issue``; the paper measures
protocol time *inside* the kernel layer), the copy is protocol time
(``protocol.send``).  ``cpu=`` overrides the issuing CPU (default: the
application CPU); runtime services pinned to the protocol CPU pass theirs.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..host import Node
from ..host.params import CONTEXT_SWITCH_NS, OP_ISSUE_NS, SYSCALL_NS, memcpy_ns
from ..sim import SimulationError
from .connection import Connection, Notification, Operation, ProtocolParams
from .protocol import MultiEdgeProtocol

__all__ = ["OpHandle", "ConnectionHandle", "MultiEdgeStack", "establish"]


class OpHandle:
    """User-level handle to query the progress of an issued operation."""

    def __init__(self, op: Operation, owner: "ConnectionHandle") -> None:
        self._op = op
        self._owner = owner

    @property
    def op_id(self) -> int:
        return self._op.op_id

    def test(self) -> bool:
        """Non-blocking completion probe.

        Raises the operation's typed error (:class:`RetransmitExhausted`,
        :class:`PeerCrashed`) if it terminated in failure.
        """
        if self._op.error is not None:
            raise self._op.error
        return self._op.completed

    def wait(self) -> Generator[Any, Any, "OpHandle"]:
        """Block the calling process until the operation completes.

        Raises the operation's typed error if it terminated in failure
        (retry exhaustion or a peer crash) instead of succeeding.
        """
        if not self._op.completed:
            yield self._op.done
            yield self._owner.node.app_cpu.hold(CONTEXT_SWITCH_NS, "app.wakeup")
        if self._op.error is not None:
            raise self._op.error
        return self

    @property
    def latency_ns(self) -> int:
        if self._op.completed_at is None:
            raise SimulationError("operation has not completed")
        return self._op.completed_at - self._op.submitted_at


class ConnectionHandle:
    """User-level view of one MultiEdge connection endpoint."""

    def __init__(self, conn: Connection, node: Node) -> None:
        self.conn = conn
        self.node = node

    @property
    def peer_node_id(self) -> int:
        return self.conn.peer_node_id

    @property
    def stats(self):
        return self.conn.stats

    def rdma_write(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
        cpu=None,
    ) -> Generator[Any, Any, OpHandle]:
        """Asynchronous remote memory write; returns an :class:`OpHandle`.

        ``yield from`` this from an application process.
        """
        cpu = cpu or self.node.app_cpu
        yield cpu.hold(SYSCALL_NS + OP_ISSUE_NS, "app.issue")
        yield cpu.hold(memcpy_ns(length), "protocol.send")
        op = self.conn.submit_write(local_address, remote_address, length, flags)
        yield from self.conn.pump(cpu)
        return OpHandle(op, self)

    def rdma_write_scatter(
        self,
        segments: list,
        flags: int = 0,
        cpu=None,
    ) -> Generator[Any, Any, OpHandle]:
        """Scatter write: many (remote_address, bytes) segments, one op.

        The natural carrier for software-DSM diffs; see
        :meth:`Connection.submit_scatter`.
        """
        cpu = cpu or self.node.app_cpu
        total = sum(len(d) for _, d in segments)
        yield cpu.hold(SYSCALL_NS + OP_ISSUE_NS, "app.issue")
        yield cpu.hold(memcpy_ns(total), "protocol.send")
        op = self.conn.submit_scatter(segments, flags)
        yield from self.conn.pump(cpu)
        return OpHandle(op, self)

    def rdma_read(
        self,
        local_address: int,
        remote_address: int,
        length: int,
        flags: int = 0,
        cpu=None,
    ) -> Generator[Any, Any, OpHandle]:
        """Asynchronous remote memory read into ``local_address``."""
        cpu = cpu or self.node.app_cpu
        yield cpu.hold(SYSCALL_NS + OP_ISSUE_NS, "app.issue")  # nothing to copy
        op = self.conn.submit_read(local_address, remote_address, length, flags)
        yield from self.conn.pump(cpu)
        return OpHandle(op, self)

    def wait_notification(self, cpu=None) -> Generator[Any, Any, Notification]:
        """Block until a completion notification arrives from the peer."""
        note = yield self.conn.notifications
        yield (cpu or self.node.app_cpu).hold(CONTEXT_SWITCH_NS, "app.wakeup")
        return note

    def poll_notification(self) -> Optional[Notification]:
        """Non-blocking notification check."""
        ok, note = self.conn.notifications.try_get()
        return note if ok else None


class MultiEdgeStack:
    """A node with the MultiEdge protocol layer attached.

    Bundles the pieces a benchmark or application needs: the host model,
    the kernel protocol layer, and connection establishment.
    """

    def __init__(self, node: Node, params: Optional[ProtocolParams] = None) -> None:
        self.node = node
        self.protocol = MultiEdgeProtocol(node, params)

    @property
    def node_id(self) -> int:
        return self.node.node_id


def establish(
    a: MultiEdgeStack,
    b: MultiEdgeStack,
    params: Optional[ProtocolParams] = None,
    conn_id: Optional[int] = None,
) -> tuple[ConnectionHandle, ConnectionHandle]:
    """Create a connection between two stacks; returns both endpoints.

    Connection setup is a control-plane operation performed out of band
    (the real system exchanges SYN/SYN_ACK frames once at startup; the
    handshake latency is irrelevant to every measured experiment, so the
    simulation wires endpoints directly).  Connection ids are allocated
    from the owning simulator (1-based per simulator), never from module
    state — two clusters in one process cannot observe each other.
    """
    if conn_id is None:
        conn_id = a.node.sim.next_conn_id()
    rails = min(len(a.node.nics), len(b.node.nics))
    conn_a = a.protocol.create_connection(
        conn_id, b.node_id, [nic.mac for nic in b.node.nics[:rails]], params
    )
    conn_b = b.protocol.create_connection(
        conn_id, a.node_id, [nic.mac for nic in a.node.nics[:rails]], params
    )
    return ConnectionHandle(conn_a, a.node), ConnectionHandle(conn_b, b.node)
