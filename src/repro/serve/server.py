"""The server side of the serving layer: bounded-queue request loops.

Each server rank runs one :class:`ServerLoop` on its
:class:`~repro.mp.MpEndpoint`: a receiver process that admits requests
into a bounded queue, and a fixed pool of worker processes that dequeue,
model service time, and enqueue responses.  Overload behavior is
explicit: when the queue is at capacity the request is *shed* — the
client gets an immediate tiny response flagged ``FLAG_SHED`` and the
shed counter ticks — never silent queue growth.

Wire format (inside mp messages, which ride the RDMA eager protocol):

* request  (tag ``TAG_REQ``):  ``!QIIQ`` — req_id, client rank, flags,
  response bytes wanted — padded to the request's payload size;
* response (tag ``TAG_RESP``): ``!QIIQQQ`` — req_id, server rank, flags,
  t_rx, t_service_start, t_service_end — padded to the requested
  response size (shed responses are header-only).

The three server-side timestamps ride back to the client so it can
decompose end-to-end latency into queueing (admission -> service start),
service, and network time without any clock-sync hand-waving — all
ranks share the simulator's clock.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Generator

from ..sim import Event

__all__ = [
    "ServerSpec",
    "ServerLoop",
    "TAG_REQ",
    "TAG_RESP",
    "FLAG_SHED",
    "REQ_HDR",
    "RESP_HDR",
]

TAG_REQ = 0x53A0
TAG_RESP = 0x53A1
FLAG_SHED = 0x1

REQ_HDR = struct.Struct("!QIIQ")  # req_id, client, flags, resp_bytes
RESP_HDR = struct.Struct("!QIIQQQ")  # req_id, server, flags, t_rx, t0, t1


@dataclass(frozen=True)
class ServerSpec:
    """Capacity and service-time model for one server rank.

    ``service`` is ``("fixed", ns)``, ``("exp", mean_ns)``, or
    ``("uniform", lo_ns, hi_ns)``; draws come from a per-server
    ``serve:<seed>:svc:<rank>`` RNG stream so servers never perturb each
    other's (or the arrival source's) sequences.
    """

    queue_cap: int = 64
    workers: int = 4
    service: tuple = ("fixed", 20_000)

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class ServerLoop:
    """Bounded-queue request/response loop on one mp rank."""

    def __init__(self, runtime, ep, spec: ServerSpec, rng) -> None:
        self.runtime = runtime
        self.ep = ep
        self.rank = ep.rank
        self.sim = ep.sim
        self.spec = spec
        self.rng = rng
        # Gray-fault hook: SlowNode stretches this node's service times.
        self.node = runtime.cluster.nodes[ep.rank]
        self.queue: deque = deque()
        self._idle: list[Event] = []  # parked workers, FIFO
        # Counters (server-side view; conservation is checked client-side).
        self.received = 0
        self.served = 0
        self.shed = 0
        self.peak_queue = 0

    def start(self) -> None:
        self.sim.process(self._receiver(), name=f"serve.rx{self.rank}")
        for w in range(self.spec.workers):
            self.sim.process(self._worker(), name=f"serve.w{self.rank}.{w}")

    # -- crash semantics ---------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state is lost: queued-but-unserved requests vanish.

        The receiver and worker processes survive: they wait on the
        endpoint's receive queue and on this loop's queue, which outlive
        the transport, so after restart + re-wiring they resume with the
        empty queue — exactly a process restart from the client's view.
        Message passing's own crash and reconnect hooks drop the requests
        that had arrived unmatched and fail the dead incarnation's rings,
        so a sender parked on one raises and moves on.
        """
        self.queue.clear()

    # -- processes ---------------------------------------------------------

    def _receiver(self) -> Generator:
        while True:
            msg = yield from self.ep.recv(tag=TAG_REQ)
            self.received += 1
            req_id, client, _flags, resp_bytes = REQ_HDR.unpack_from(msg.data)
            now = self.sim.now
            if len(self.queue) >= self.spec.queue_cap:
                self.shed += 1
                self.runtime.enqueue_response(
                    self.rank, client, req_id, FLAG_SHED, now, now, now, 0
                )
                continue
            self.queue.append((req_id, client, resp_bytes, now))
            self.peak_queue = max(self.peak_queue, len(self.queue))
            if self._idle:
                self._idle.pop(0).trigger()

    def _worker(self) -> Generator:
        while True:
            if not self.queue:
                ev = Event(self.sim)
                self._idle.append(ev)
                yield ev
                continue
            req_id, client, resp_bytes, t_rx = self.queue.popleft()
            t_start = self.sim.now
            svc = self._service_ns()
            factor = self.node.gray_slow_factor
            if factor != 1.0:
                svc = max(1, int(svc * factor))
            yield svc
            t_end = self.sim.now
            self.served += 1
            self.runtime.enqueue_response(
                self.rank, client, req_id, 0, t_rx, t_start, t_end, resp_bytes
            )

    def _service_ns(self) -> int:
        kind = self.spec.service[0]
        if kind == "fixed":
            return max(1, int(self.spec.service[1]))
        if kind == "exp":
            return max(1, int(self.rng.exponential(self.spec.service[1])))
        if kind == "uniform":
            lo, hi = self.spec.service[1], self.spec.service[2]
            return max(1, int(self.rng.integers(lo, hi + 1)))
        raise ValueError(f"unknown service model {self.spec.service!r}")


def pack_request(req_id: int, client: int, flags: int, resp_bytes: int,
                 req_bytes: int) -> bytes:
    """Request payload padded to ``req_bytes`` (header minimum)."""
    hdr = REQ_HDR.pack(req_id, client, flags, resp_bytes)
    return hdr + b"\x00" * max(0, req_bytes - len(hdr))


def pack_response(req_id: int, server: int, flags: int, t_rx: int,
                  t_start: int, t_end: int, resp_bytes: int) -> bytes:
    """Response payload padded to ``resp_bytes``; shed = header only."""
    hdr = RESP_HDR.pack(req_id, server, flags, t_rx, t_start, t_end)
    if flags & FLAG_SHED:
        return hdr
    return hdr + b"\x00" * max(0, resp_bytes - len(hdr))


def unpack_response(data: bytes) -> tuple:
    return RESP_HDR.unpack_from(data)
