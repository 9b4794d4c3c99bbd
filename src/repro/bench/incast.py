"""Incast scenario runner: N senders converge on one receiver.

Many-to-one traffic is the pattern that motivates repro.congestion: every
sender's frames meet at the receiver's switch output port, the queue
fills, and — without congestion control — the tail drops trigger timeout
storms that collapse goodput.  :func:`run_incast` is the reusable harness
behind ``benchmarks/bench_congestion.py`` and ``examples/incast.py``: it
stands up an ``senders + 1``-node cluster, streams chunks from every
sender to the last node concurrently, and reports goodput alongside the
congestion counters (queue drops, CE marks, echoes, final congestion
windows, pacing stalls).

Everything is deterministic: same parameters + same seed give the same
:class:`IncastResult`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..congestion import CongestionParams
from .cluster import Cluster, named_config

__all__ = ["IncastResult", "run_incast"]


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


def run_incast(
    config: str = "1L-1G",
    senders: int = 8,
    chunk_bytes: int = 64 * 1024,
    chunks_per_sender: int = 8,
    congestion: str = "static",
    congestion_params: Optional[CongestionParams] = None,
    ecn_threshold_frames: Optional[int] = None,
    seed: int = 0,
    synthetic_payloads: bool = True,
    verify_data: bool = False,
    limit_ns: int = 20_000_000_000,
    fabric=None,
) -> IncastResult:
    """Stream chunks from ``senders`` nodes into node ``senders`` at once.

    Every sender issues ``chunks_per_sender`` sequential ``chunk_bytes``
    RDMA writes to its own buffer on the shared receiver; all senders run
    concurrently, so their frames converge on the receiver's switch
    output port.  ``congestion`` selects the controller for every
    connection; ``ecn_threshold_frames`` arms ECN marking on the fabric.
    ``verify_data=True`` uses real payloads and checks the receiver's
    memory afterwards (slower; benchmarks keep the default synthetic
    frames).  ``fabric`` optionally routes the incast across a
    multi-switch fabric (a :class:`~repro.fabric.LeafSpineSpec` or
    :class:`~repro.fabric.FatTreeSpec`); senders then converge on the
    receiver across trunk hops, and the result carries per-switch drop
    counts plus the fabric's routing-invariant check.
    """
    if senders < 1:
        raise ValueError("need at least one sender")
    if verify_data and synthetic_payloads:
        synthetic_payloads = False
    n_nodes = senders + 1
    receiver = senders
    cfg = named_config(
        config,
        nodes=n_nodes,
        seed=seed,
        synthetic_payloads=synthetic_payloads,
        fabric=fabric,
    )
    cluster = Cluster(
        replace(
            cfg,
            protocol=replace(
                cfg.protocol,
                congestion=congestion,
                congestion_params=congestion_params,
            ),
        )
    )
    if ecn_threshold_frames is not None:
        cluster.set_ecn_threshold(ecn_threshold_frames)

    handles = {}
    for s in range(senders):
        a, _b = cluster.connect(s, receiver)
        handles[s] = a

    rx_node = cluster.nodes[receiver]
    bufs = {}
    payloads = {}
    for s in range(senders):
        src = cluster.nodes[s].memory.alloc(chunk_bytes)
        dst = rx_node.memory.alloc(chunk_bytes)
        bufs[s] = (src, dst)
        if verify_data:
            payload = bytes((s * 7 + i) % 251 for i in range(chunk_bytes))
            cluster.nodes[s].memory.write(src, payload)
            payloads[s] = payload

    def sender(s: int):
        src, dst = bufs[s]
        handle = handles[s]
        for _ in range(chunks_per_sender):
            oh = yield from handle.rdma_write(src, dst, chunk_bytes)
            yield from oh.wait()

    procs = [cluster.sim.process(sender(s)) for s in range(senders)]
    for proc in procs:
        cluster.sim.run_until_done(proc, limit=limit_ns)
    elapsed = cluster.sim.now
    cluster.quiesce()  # drain straggling acks / timers

    intact = True
    if verify_data:
        for s in range(senders):
            _src, dst = bufs[s]
            if rx_node.memory.read(dst, chunk_bytes) != payloads[s]:
                intact = False

    from ..analysis.summary import summarize_cluster

    summary = summarize_cluster(cluster, elapsed)
    paused = sum(
        port.paused_frames for sw in cluster.switches for port in sw.ports
    )
    t_retrans = n_retrans = 0
    cwnds = []
    for stack in cluster.stacks:
        for conn in stack.protocol.connections.values():
            t_retrans += conn.stats.timeout_retransmits
            n_retrans += conn.stats.nack_retransmits
            if conn.congestion.active and conn.node.node_id != receiver:
                cwnds.append(conn.congestion.cwnd_frames)

    return IncastResult(
        config=config,
        senders=senders,
        congestion=congestion,
        ecn_threshold_frames=ecn_threshold_frames,
        chunk_bytes=chunk_bytes,
        chunks_per_sender=chunks_per_sender,
        elapsed_ns=elapsed,
        data_intact=intact,
        dropped_queue_full=sum(sw.dropped_queue_full for sw in summary.switches),
        paused_frames=paused,
        peak_queue_depth=max(sw.peak_queue_depth for sw in summary.switches),
        retransmissions=summary.retransmissions,
        timeout_retransmits=t_retrans,
        nack_retransmits=n_retrans,
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
