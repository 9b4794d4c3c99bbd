"""DSM control-message wire format.

GeNIMA-style synchronization rides on ordinary MultiEdge RDMA writes: a
control message is a 128-byte record deposited into the peer's inbox ring
with ``NOTIFY | FENCE_BACKWARD`` flags.  The backward fence guarantees that
everything the sender issued earlier on the same connection — page diffs,
write-notice arrays — has been applied before the message is acted upon;
this is precisely the "enforce ordering only between necessary operations"
usage of the paper's API extension (§2.5, Figure 6).

Large variable-size payloads (write-notice lists) do not travel in the
message: they are bulk-written to a staging area and the message carries
only a count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

__all__ = ["MsgType", "Message", "MSG_SLOT_BYTES", "encode_notices", "decode_notices"]

MSG_SLOT_BYTES = 128
_MSG_STRUCT = struct.Struct("!IIQQQQ")  # type, src, a, b, c, d
_PAD = MSG_SLOT_BYTES - _MSG_STRUCT.size


class MsgType(IntEnum):
    LOCK_REQ = 1  # a=lock_id
    LOCK_GRANT = 2  # a=lock_id, b=notice_count (staged)
    LOCK_REL = 3  # a=lock_id, b=notice_count (staged)
    BARRIER_ARRIVE = 4  # a=barrier_id, b=notice_count (staged), c=epoch
    BARRIER_RELEASE = 5  # a=barrier_id, b=notice_count (staged), c=epoch


@dataclass
class Message:
    """One 128-byte control message."""

    msg_type: MsgType
    src: int
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0

    def encode(self) -> bytes:
        return (
            _MSG_STRUCT.pack(
                int(self.msg_type), self.src, self.a, self.b, self.c, self.d
            )
            + b"\x00" * _PAD
        )

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        msg_type, src, a, b, c, d = _MSG_STRUCT.unpack(data[: _MSG_STRUCT.size])
        return cls(MsgType(msg_type), src, a, b, c, d)


def encode_notices(notices: list[tuple[int, int]]) -> bytes:
    """Pack (region_id, page_index) write notices for bulk staging."""
    out = bytearray()
    for region_id, page in notices:
        out += struct.pack("!II", region_id, page)
    return bytes(out)


def decode_notices(data: bytes, count: int) -> list[tuple[int, int]]:
    """Unpack ``count`` write notices from a staging area."""
    notices = []
    for i in range(count):
        region_id, page = struct.unpack_from("!II", data, i * 8)
        notices.append((region_id, page))
    return notices
