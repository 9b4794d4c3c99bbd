"""Byte-level striping baseline (paper §1).

The paper contrasts MultiEdge's *decoupled* spatial parallelism (whole
frames round-robined over rails) with the traditional *byte-level*
parallelism, where "a single data unit sliced in bytes is transmitted over
multiple physical links that are tightly controlled by the sender and the
receiver".  This module implements that tightly-coupled scheme over the
same NIC/link substrate so the two approaches can be compared:

* every data unit is sliced into one fragment per rail (each fragment pays
  the full per-frame Ethernet overhead),
* the rails operate in lock-step: the next unit may start only when every
  fragment of the previous unit has been delivered — the sender
  synchronises to the *slowest* rail, so per-frame jitter directly
  subtracts from throughput,
* as the number of rails grows, the fixed overhead per fragment grows
  linearly while the payload per fragment shrinks — the scaling problem
  the paper points out.

This is a transport-level model (no sliding window / retransmission): the
comparison of interest is achievable goodput versus rail count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ethernet import Frame, MultiEdgeHeader, max_payload_per_frame
from ..sim import Event
from .. bench.cluster import Cluster

__all__ = ["ByteStripingResult", "run_byte_striping"]


@dataclass
class ByteStripingResult:
    """Outcome of a byte-striping transfer."""

    rails: int
    unit_bytes: int
    total_bytes: int
    elapsed_ns: int
    throughput_mbps: float
    frames_sent: int


def run_byte_striping(
    cluster: Cluster,
    total_bytes: int = 4_000_000,
    unit_bytes: int | None = None,
) -> ByteStripingResult:
    """Stream ``total_bytes`` from node 0 to node 1 with byte striping.

    ``unit_bytes`` defaults to one MTU worth of payload per *unit* (the
    natural comparison point: frame striping moves the same unit as one
    frame on one rail).
    """
    sim = cluster.sim
    node_a, node_b = cluster.nodes[0], cluster.nodes[1]
    rails = min(len(node_a.nics), len(node_b.nics))
    unit = unit_bytes or max_payload_per_frame()
    slice_size = (unit + rails - 1) // rails

    state = {"received": 0, "frames": 0}
    done = Event(sim)
    expected_frames = ((total_bytes + unit - 1) // unit) * rails

    def on_rx() -> None:
        state["frames"] += 1
        if state["frames"] >= expected_frames:
            done.trigger()

    # Drain receiver NICs by polling (transport-level model: no kernel).
    def receiver():
        polled = 0
        for nic in node_b.nics:
            nic.disable_interrupts()
        while state["frames"] < expected_frames:
            progressed = False
            for nic in node_b.nics:
                frames, _ = nic.poll()
                for _f in frames:
                    on_rx()
                    progressed = True
            if not progressed:
                yield 1_000
        return None

    def sender():
        sent = 0
        seq = 0
        while sent < total_bytes:
            this_unit = min(unit, total_bytes - sent)
            per_slice = (this_unit + rails - 1) // rails
            # Lock-step: wait for every rail to have TX-ring room.
            while any(nic.tx_ring_free == 0 for nic in node_a.nics[:rails]):
                yield 1_000
            for rail in range(rails):
                chunk = min(per_slice, max(0, this_unit - rail * per_slice))
                header = MultiEdgeHeader(
                    seq=seq, payload_length=max(chunk, 0)
                )
                frame = Frame(
                    src_mac=node_a.nics[rail].mac,
                    dst_mac=node_b.nics[rail].mac,
                    header=header,
                    payload=bytes(max(chunk, 0)),
                )
                node_a.nics[rail].transmit(frame)
                seq += 1
            sent += this_unit
            # Tight coupling: next unit only after the slowest rail is
            # ready again (modelled by ring-space polling above plus the
            # lock-step slice issue).
        return None

    t0 = sim.now
    sproc = sim.process(sender(), name="bytestripe.send")
    rproc = sim.process(receiver(), name="bytestripe.recv")
    sim.run_until_done(rproc, limit=t0 + 600_000_000_000)
    elapsed = sim.now - t0
    throughput = total_bytes / (elapsed / 1e9) / 1e6 if elapsed else 0.0
    return ByteStripingResult(
        rails=rails,
        unit_bytes=unit,
        total_bytes=total_bytes,
        elapsed_ns=elapsed,
        throughput_mbps=throughput,
        frames_sent=expected_frames,
    )
