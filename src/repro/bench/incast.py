"""Incast scenario runner: N senders converge on one receiver.

Many-to-one traffic is the pattern that motivates repro.congestion: every
sender's frames meet at the receiver's switch output port, the queue
fills, and — without congestion control — the tail drops trigger timeout
storms that collapse goodput.  :class:`IncastRun` (one-shot:
:func:`run_incast`) is the reusable harness behind
``benchmarks/bench_congestion.py`` and ``examples/incast.py``: it stands
up an ``senders + 1``-node cluster, streams chunks from every sender to
the last node concurrently, and reports goodput alongside the congestion
counters (queue drops, CE marks, echoes, final congestion windows, pacing
stalls).

Everything is deterministic: same parameters + same seed give the same
:class:`IncastResult`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .cluster import Cluster, named_config
from .run import Run

__all__ = ["IncastResult", "IncastRun", "run_incast"]


@dataclass
class IncastResult:
    """Everything measured by one :func:`run_incast` run."""

    config: str
    senders: int
    congestion: str
    ecn_threshold_frames: Optional[int]
    chunk_bytes: int
    chunks_per_sender: int
    elapsed_ns: int  # first op issued -> last op completed
    data_intact: bool
    # Congestion outcome.
    dropped_queue_full: int  # switch tail drops
    paused_frames: int  # lossless-mode backpressure events
    peak_queue_depth: int  # worst output queue, in frames
    retransmissions: int
    timeout_retransmits: int
    nack_retransmits: int
    ce_marked: int  # frames the fabric marked CE
    ce_received: int  # marked frames that reached a receiver
    ecn_echoes_sent: int
    ecn_echoes_received: int
    pacing_stall_ns: int
    final_cwnd_frames: list[int] = field(default_factory=list)  # per sender
    # Multi-switch fabric extras (empty/None on classic single-switch runs).
    fabric: Optional[str] = None  # spec name, e.g. "LeafSpineSpec"
    per_switch_drops: dict = field(default_factory=dict)  # name -> tail drops
    routing_violations: list[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.senders * self.chunks_per_sender * self.chunk_bytes

    @property
    def goodput_bps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_bytes * 8 / (self.elapsed_ns / 1e9)


class IncastRun(Run):
    """Stream chunks from ``senders`` nodes into node ``senders`` at once.

    Every sender issues ``chunks_per_sender`` sequential ``chunk_bytes``
    RDMA writes to its own buffer on the shared receiver; all senders run
    concurrently, so their frames converge on the receiver's switch
    output port.  ``congestion`` selects the controller for every
    connection and ``pacing`` paces its window; ``ecn_threshold_frames``
    arms ECN marking on every switch of the fabric.
    ``verify_data=True`` uses real payloads and checks the receiver's
    memory afterwards (slower; benchmarks keep the default synthetic
    frames).  ``fabric`` optionally routes the incast across a
    multi-switch fabric (a :class:`~repro.fabric.LeafSpineSpec` or
    :class:`~repro.fabric.FatTreeSpec`); senders then converge on the
    receiver across trunk hops, and the result carries per-switch drop
    counts plus the fabric's routing-invariant check.
    """

    def __init__(
        self,
        config: str = "1L-1G",
        senders: int = 8,
        chunk_bytes: int = 64 * 1024,
        chunks_per_sender: int = 8,
        congestion: str = "static",
        pacing: bool = False,
        ecn_threshold_frames: Optional[int] = None,
        seed: int = 0,
        synthetic_payloads: bool = True,
        verify_data: bool = False,
        limit_ns: int = 20_000_000_000,
        fabric=None,
    ) -> None:
        if senders < 1:
            raise ValueError("need at least one sender")
        if verify_data and synthetic_payloads:
            synthetic_payloads = False
        receiver = senders
        cfg = named_config(
            config, nodes=senders + 1, seed=seed,
            synthetic_payloads=synthetic_payloads, fabric=fabric,
        )
        protocol = replace(cfg.protocol, congestion=congestion, pacing=pacing)
        switch = replace(cfg.switch, ecn_threshold_frames=ecn_threshold_frames)
        cluster = self.cluster = Cluster(
            replace(cfg, protocol=protocol, switch=switch)
        )

        handles = {s: cluster.connect(s, receiver)[0] for s in range(senders)}
        rx_node = cluster.nodes[receiver]
        bufs = {}
        self.expected = {}  # receiver address -> payload (verify_data only)
        for s in range(senders):
            src = cluster.nodes[s].memory.alloc(chunk_bytes)
            dst = rx_node.memory.alloc(chunk_bytes)
            bufs[s] = (src, dst)
            if verify_data:
                payload = bytes((s * 7 + i) % 251 for i in range(chunk_bytes))
                cluster.nodes[s].memory.write(src, payload)
                self.expected[dst] = payload

        def sender(s: int):
            src, dst = bufs[s]
            handle = handles[s]
            for _ in range(chunks_per_sender):
                oh = yield from handle.rdma_write(src, dst, chunk_bytes)
                yield from oh.wait()

        self.procs = [cluster.sim.process(sender(s)) for s in range(senders)]
        self.limit_ns = limit_ns

    def _report(self) -> IncastResult:
        from ..analysis.summary import summarize_cluster

        cluster, recipe = self.cluster, self.recipe
        receiver = recipe["senders"]
        memory = cluster.nodes[receiver].memory
        intact = all(
            memory.read(dst, len(data)) == data
            for dst, data in self.expected.items()
        )
        summary = summarize_cluster(cluster, self.end_ns)
        cwnds = [
            conn.congestion.cwnd_frames
            for stack in cluster.stacks
            for conn in stack.protocol.connections.values()
            if conn.congestion is not None and conn.node.node_id != receiver
        ]

        fabric = recipe["fabric"]
        return IncastResult(
            config=recipe["config"],
            senders=receiver,
            congestion=recipe["congestion"],
            ecn_threshold_frames=recipe["ecn_threshold_frames"],
            chunk_bytes=recipe["chunk_bytes"],
            chunks_per_sender=recipe["chunks_per_sender"],
            elapsed_ns=self.end_ns,
            data_intact=intact,
            dropped_queue_full=summary.dropped_queue_full,
            paused_frames=summary.paused_frames,
            peak_queue_depth=summary.peak_queue_depth,
            retransmissions=summary.retransmissions,
            timeout_retransmits=summary.timeout_retransmits,
            nack_retransmits=summary.nack_retransmits,
            ce_marked=summary.ce_marked,
            ce_received=summary.ce_received,
            ecn_echoes_sent=summary.ecn_echoes_sent,
            ecn_echoes_received=summary.ecn_echoes_received,
            pacing_stall_ns=summary.pacing_stall_ns,
            final_cwnd_frames=cwnds,
            fabric=type(fabric).__name__ if fabric is not None else None,
            per_switch_drops=(
                {sw.name: sw.dropped_queue_full for sw in summary.switches}
                if fabric is not None
                else {}
            ),
            routing_violations=[
                v for fab in cluster.fabrics for v in fab.routing_invariants()
            ],
        )


def run_incast(**kwargs) -> IncastResult:
    """One-shot front door: build an :class:`IncastRun`, run it, report."""
    return IncastRun(**kwargs).finish()
