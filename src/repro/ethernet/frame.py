"""Ethernet frame model.

Frames carry a real 14-byte Ethernet header plus a typed MultiEdge payload
header.  The simulator passes :class:`Frame` objects around (cheap), but the
headers have byte-exact ``encode``/``decode`` methods so the wire format is
concrete and testable — the protocol header layout below is what a kernel
implementation would put after the Ethernet header.

Wire-time accounting includes the parts of the Ethernet physical layer that
consume link time but carry no payload: preamble + SFD (8 B), frame check
sequence (4 B), and the inter-frame gap (12 B).  The paper's testbed switches
do not support jumbo frames, so the MTU is the classic 1500 bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

__all__ = [
    "ETH_HEADER_BYTES",
    "ETH_CRC_BYTES",
    "ETH_PREAMBLE_BYTES",
    "ETH_IFG_BYTES",
    "ETH_MTU",
    "ETH_MIN_PAYLOAD",
    "ETH_OVERHEAD_BYTES",
    "MULTIEDGE_ETHERTYPE",
    "MULTIEDGE_HEADER_BYTES",
    "FrameType",
    "OpFlags",
    "ECN_CE",
    "ECN_ECHO",
    "MultiEdgeHeader",
    "Frame",
    "wire_time_ns",
    "max_payload_per_frame",
    "frame_sizes",
]

ETH_HEADER_BYTES = 14
ETH_CRC_BYTES = 4
ETH_PREAMBLE_BYTES = 8
ETH_IFG_BYTES = 12
ETH_MTU = 1500  # no jumbo frames (switch firmware limitation in the paper)
ETH_MIN_PAYLOAD = 46
# Per-frame wire bytes that are pure overhead (never payload).
ETH_OVERHEAD_BYTES = (
    ETH_HEADER_BYTES + ETH_CRC_BYTES + ETH_PREAMBLE_BYTES + ETH_IFG_BYTES
)

# Experimental ethertype range; MultiEdge frames are raw Ethernet.
MULTIEDGE_ETHERTYPE = 0x88B5


class FrameType(IntEnum):
    """MultiEdge frame kinds."""

    DATA = 0  # RDMA write payload / RDMA read response payload
    ACK = 1  # explicit positive acknowledgement
    NACK = 2  # negative acknowledgement listing missing sequences
    READ_REQ = 3  # remote read request
    SYN = 4  # connection setup request
    SYN_ACK = 5  # connection setup acknowledgement
    FIN = 6  # connection teardown
    READ_RESP = 7  # remote read response payload (sequenced like DATA)
    PROBE = 8  # edge-health heartbeat probe (control plane, unsequenced)
    PROBE_ACK = 9  # heartbeat echo, returned on the probed rail


class OpFlags(IntEnum):
    """Bit-field flags for RDMA operations (paper §2.2, §2.5)."""

    NONE = 0
    NOTIFY = 1 << 0  # deliver a notification at the target on completion
    FENCE_BACKWARD = 1 << 1  # perform only after all previously issued ops
    FENCE_FORWARD = 1 << 2  # subsequent ops wait until this one is performed
    SCATTER = 1 << 3  # payload is a list of (address, length, data) records
    JOURNALED = 1 << 4  # message rides a journaled channel: dedup on delivery


# ECN bits in the header flags byte (raw Ethernet has no IP ToS field, so
# MultiEdge carries congestion signalling in its own header).  Bits 0-3
# belong to OpFlags; ECN uses the top of the byte.
ECN_CE = 1 << 6  # Congestion Experienced: set by a switch egress queue
ECN_ECHO = 1 << 7  # receiver -> sender echo of CE on acknowledgements


# MultiEdge protocol header, directly after the Ethernet header:
#   u8  type            frame kind (FrameType)
#   u8  flags           OpFlags for the carried operation
#   u16 connection_id
#   u32 seq             frame sequence number (per connection, per direction)
#   u32 ack             piggy-backed cumulative acknowledgement
#   u32 op_id           operation this frame belongs to
#   u32 op_seq          operation issue sequence (fence ordering)
#   u64 remote_address  target virtual address for this frame's payload
#   u32 op_length       total operation length in bytes
#   u16 payload_length  payload bytes in this frame
#   u16 _pad
_HEADER_STRUCT = struct.Struct("!BBHIIIIQIHH")
MULTIEDGE_HEADER_BYTES = _HEADER_STRUCT.size  # 36 bytes


@dataclass(slots=True)
class MultiEdgeHeader:
    """Typed view of the MultiEdge wire header.

    ``payload_length`` must not change once the header is attached to a
    :class:`Frame` — the frame caches its wire size at construction.
    """

    frame_type: FrameType = FrameType.DATA
    flags: int = 0
    connection_id: int = 0
    seq: int = 0
    ack: int = 0
    op_id: int = 0
    op_seq: int = 0
    remote_address: int = 0
    op_length: int = 0
    payload_length: int = 0

    def encode(self) -> bytes:
        """Serialise to the 36-byte wire representation."""
        return _HEADER_STRUCT.pack(
            int(self.frame_type),
            self.flags,
            self.connection_id,
            self.seq,
            self.ack,
            self.op_id,
            self.op_seq,
            self.remote_address,
            self.op_length,
            self.payload_length,
            0,
        )

    @classmethod
    def decode(cls, data: bytes) -> "MultiEdgeHeader":
        """Parse the 36-byte wire representation."""
        (
            frame_type,
            flags,
            connection_id,
            seq,
            ack,
            op_id,
            op_seq,
            remote_address,
            op_length,
            payload_length,
            _pad,
        ) = _HEADER_STRUCT.unpack(data[:MULTIEDGE_HEADER_BYTES])
        return cls(
            frame_type=FrameType(frame_type),
            flags=flags,
            connection_id=connection_id,
            seq=seq,
            ack=ack,
            op_id=op_id,
            op_seq=op_seq,
            remote_address=remote_address,
            op_length=op_length,
            payload_length=payload_length,
        )


# Data bytes a single frame can carry under the 1500-byte MTU.
_MAX_PAYLOAD = ETH_MTU - MULTIEDGE_HEADER_BYTES


def max_payload_per_frame() -> int:
    """Data bytes a single frame can carry under the 1500-byte MTU."""
    return _MAX_PAYLOAD


# payload_length -> (mac_payload_bytes, wire_bytes).  Only ~2-3 distinct
# payload lengths occur per run (full MTU fragments plus one tail size per
# transfer size), so the dict stays tiny while the hot Frame constructor
# skips the header-size arithmetic and min-payload branch per frame.
_SIZE_CACHE: dict[int, tuple[int, int]] = {}


def frame_sizes(payload_length: int) -> tuple[int, int]:
    """``(mac_payload_bytes, wire_bytes)`` for a MultiEdge frame.

    ``mac_payload_bytes`` is everything between the Ethernet header and the
    CRC (MultiEdge header + payload, padded up to the 46-byte minimum);
    ``wire_bytes`` adds the fixed physical-layer overhead.
    """
    cached = _SIZE_CACHE.get(payload_length)
    if cached is not None:
        return cached
    mac_payload = MULTIEDGE_HEADER_BYTES + payload_length
    if mac_payload < ETH_MIN_PAYLOAD:
        mac_payload = ETH_MIN_PAYLOAD
    sizes = (mac_payload, mac_payload + ETH_OVERHEAD_BYTES)
    _SIZE_CACHE[payload_length] = sizes
    return sizes


class Frame:
    """A frame in flight.

    ``payload`` optionally carries the real bytes being moved (RDMA data);
    control frames carry ``None`` and a synthetic ``payload_length`` through
    the header.  ``uid`` identifies the physical frame instance (a
    retransmission is a new Frame with the same header ``seq``); it is 0
    until the transmitting NIC stamps it from the simulator's per-instance
    counter, so two simulators in one process never share uid state.

    ``mac_payload_bytes`` and ``wire_bytes`` are computed once at
    construction — the header's ``payload_length`` is immutable from then
    on (factories in :mod:`repro.core.messages` set it before building the
    frame).
    """

    __slots__ = (
        "src_mac",
        "dst_mac",
        "header",
        "payload",
        "corrupted",
        "uid",
        "control",
        "incarnation",
        "hops",
        "mac_payload_bytes",
        "wire_bytes",
    )

    def __init__(
        self,
        src_mac: int,
        dst_mac: int,
        header: MultiEdgeHeader,
        payload: Optional[bytes] = None,
        corrupted: bool = False,
        uid: int = 0,
        # Extra control payload (e.g. NACK missing-sequence list); accounted
        # in wire size via header.payload_length, kept typed for the
        # simulator.
        control: Optional[object] = None,
    ) -> None:
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.header = header
        self.payload = payload
        self.corrupted = corrupted
        self.uid = uid
        self.control = control
        # Sender-node incarnation number (crash recovery).  0 until the
        # recovery subsystem stamps it; on the wire it would ride in a
        # reserved header field, so frame sizes are unchanged.
        self.incarnation = 0
        # Switch hops taken so far; bumped by every switch a frame enters,
        # where it backs the no-forwarding-loop invariant.
        self.hops = 0
        payload_length = header.payload_length
        if payload is not None and len(payload) != payload_length:
            raise ValueError(
                f"payload length {len(payload)} != header "
                f"payload_length {payload_length}"
            )
        if payload_length > _MAX_PAYLOAD:
            raise ValueError(
                f"payload {payload_length} exceeds MTU budget {_MAX_PAYLOAD}"
            )
        # Bytes between Ethernet header and CRC (padded to the minimum),
        # and total link-time bytes including physical-layer overhead.
        sizes = _SIZE_CACHE.get(payload_length)
        if sizes is None:
            sizes = frame_sizes(payload_length)
        self.mac_payload_bytes, self.wire_bytes = sizes

    @property
    def is_data(self) -> bool:
        return self.header.frame_type == FrameType.DATA

    def wire_copy(self) -> "Frame":
        """An independent physical copy for retransmission.

        The copy carries its own header object and transit state
        (``corrupted``/``hops`` reset, CE mark cleared), so mutating it —
        new piggy-backed ack, ECN echo, rail MACs — can never reach back
        into an earlier copy of the same sequence number still in flight
        on another rail.  ``payload``/``control`` are shared by reference:
        both are treated as immutable once attached.
        """
        h = self.header
        copy = Frame.__new__(Frame)
        copy.src_mac = self.src_mac
        copy.dst_mac = self.dst_mac
        copy.header = MultiEdgeHeader(
            frame_type=h.frame_type,
            flags=h.flags & ~ECN_CE,
            connection_id=h.connection_id,
            seq=h.seq,
            ack=h.ack,
            op_id=h.op_id,
            op_seq=h.op_seq,
            remote_address=h.remote_address,
            op_length=h.op_length,
            payload_length=h.payload_length,
        )
        copy.payload = self.payload
        copy.corrupted = False
        copy.uid = 0
        copy.control = self.control
        copy.incarnation = self.incarnation
        copy.hops = 0
        copy.mac_payload_bytes = self.mac_payload_bytes
        copy.wire_bytes = self.wire_bytes
        return copy

    def __repr__(self) -> str:  # compact, for traces
        h = self.header
        return (
            f"Frame({h.frame_type.name} conn={h.connection_id} seq={h.seq} "
            f"ack={h.ack} op={h.op_id} len={h.payload_length})"
        )


def wire_time_ns(wire_bytes: int, speed_bps: float) -> int:
    """Serialisation time of ``wire_bytes`` on a ``speed_bps`` link."""
    return int(round(wire_bytes * 8 * 1e9 / speed_bps))
