"""Failover scenario runner: kill a rail mid-transfer, measure recovery.

:func:`run_failover` is the reusable harness behind the failover
acceptance test, ``benchmarks/bench_failover.py``, and the example
script.  It runs a continuous one-way bulk stream over a two-node
multi-rail cluster with the edge lifecycle control plane enabled, kills
one rail at a configured time (optionally repairing it later), and
reports:

* when the sender's detector declared the rail DOWN (detection latency),
* goodput before the kill, while degraded, and (if repaired) after
  recovery,
* the full edge transition history, and
* end-to-end data integrity of everything the stream delivered.

Everything is deterministic: same parameters + same seed give the same
:class:`FailoverResult`, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..control import (
    EdgeState,
    EdgeTransition,
    FaultSchedule,
    PermanentFailure,
    Repair,
)
from .cluster import Cluster, named_config

__all__ = ["FailoverResult", "run_failover"]

_MS = 1_000_000


@dataclass
class FailoverResult:
    """Everything measured by one :func:`run_failover` run."""

    config: str
    chunk_bytes: int
    chunks_sent: int
    data_intact: bool
    kill_ns: int
    repair_ns: Optional[int]
    detected_ns: Optional[int]  # sender-side DOWN transition time
    recovered_ns: Optional[int]  # sender-side post-repair UP transition
    baseline_goodput_bps: float  # before the kill
    degraded_goodput_bps: float  # between detection and repair
    recovered_goodput_bps: float  # after recovery (0.0 if no repair)
    probe_frames: int = 0  # heartbeat probes sent (both endpoints)
    wire_frames: int = 0  # every frame any NIC transmitted
    transitions: list[EdgeTransition] = field(default_factory=list)

    @property
    def detect_latency_ns(self) -> Optional[int]:
        if self.detected_ns is None:
            return None
        return self.detected_ns - self.kill_ns

    @property
    def probe_overhead(self) -> float:
        """Heartbeat frames as a fraction of everything on the wire."""
        return self.probe_frames / self.wire_frames if self.wire_frames else 0.0

    @property
    def degraded_fraction(self) -> float:
        """Degraded goodput as a fraction of the pre-kill baseline."""
        if self.baseline_goodput_bps <= 0:
            return 0.0
        return self.degraded_goodput_bps / self.baseline_goodput_bps


def run_failover(
    config: str = "2Lu-1G",
    chunk_bytes: int = 256 * 1024,
    kill_ns: int = 10 * _MS,
    repair_ns: Optional[int] = 60 * _MS,
    run_ns: int = 100 * _MS,
    dead_rail: int = 0,
    seed: int = 0,
    striping: Optional[str] = None,
) -> FailoverResult:
    """Stream chunks from node 0 to node 1, killing ``dead_rail`` en route.

    The stream issues back-to-back ``chunk_bytes`` RDMA writes for
    ``run_ns`` of simulated time.  ``striping`` overrides the cluster
    config's policy (e.g. ``"adaptive"``).  ``repair_ns=None`` leaves the
    rail dead for good.
    """
    from ..analysis.summary import summarize_cluster

    cfg = named_config(config, nodes=2, seed=seed)
    if striping is not None:
        cfg = replace(cfg, protocol=replace(cfg.protocol, striping=striping))
    cluster = Cluster(cfg)
    a, b = cluster.connect(0, 1)
    mgr_a, _mgr_b = cluster.enable_edge_control(0, 1)

    events: list = [PermanentFailure(at_ns=kill_ns, node=0, rail=dead_rail)]
    if repair_ns is not None:
        events.append(Repair(at_ns=repair_ns, node=0, rail=dead_rail))
    FaultSchedule(events).apply(cluster)

    src = a.node.memory.alloc(chunk_bytes)
    dst = b.node.memory.alloc(chunk_bytes)
    payload = bytes(i % 251 for i in range(chunk_bytes))
    a.node.memory.write(src, payload)

    progress: list[tuple[int, int]] = []  # (completion time, chunk index)
    state = {"sent": 0, "intact": True}

    def stream():
        while cluster.sim.now < run_ns:
            handle = yield from a.rdma_write(src, dst, chunk_bytes)
            yield from handle.wait()
            if b.node.memory.read(dst, chunk_bytes) != payload:
                state["intact"] = False
            state["sent"] += 1
            progress.append((cluster.sim.now, state["sent"]))

    proc = cluster.sim.process(stream())
    cluster.sim.run_until_done(proc, limit=run_ns + 200 * _MS)

    detected_ns = None
    recovered_ns = None
    for t in mgr_a.history:
        if t.rail == dead_rail and t.new is EdgeState.DOWN and detected_ns is None:
            detected_ns = t.time_ns
        if (
            detected_ns is not None
            and t.rail == dead_rail
            and t.new is EdgeState.UP
            and t.time_ns > detected_ns
        ):
            recovered_ns = t.time_ns
            break

    def goodput(t0: int, t1: int) -> float:
        """Chunk-completion goodput (bits/s) over [t0, t1)."""
        if t1 <= t0:
            return 0.0
        done = sum(1 for when, _ in progress if t0 <= when < t1)
        return done * chunk_bytes * 8 / ((t1 - t0) / 1e9)

    stream_end = progress[-1][0] if progress else 0
    baseline = goodput(0, min(kill_ns, stream_end))
    degraded_end = repair_ns if repair_ns is not None else run_ns
    degraded_start = detected_ns if detected_ns is not None else kill_ns
    degraded = goodput(degraded_start, degraded_end)
    recovered = 0.0
    if recovered_ns is not None:
        recovered = goodput(recovered_ns, run_ns)

    mgr_a.stop()
    _mgr_b.stop()
    probe_frames = a.stats.probes_sent + b.stats.probes_sent
    return FailoverResult(
        config=config,
        chunk_bytes=chunk_bytes,
        chunks_sent=state["sent"],
        data_intact=state["intact"],
        kill_ns=kill_ns,
        repair_ns=repair_ns,
        detected_ns=detected_ns,
        recovered_ns=recovered_ns,
        baseline_goodput_bps=baseline,
        degraded_goodput_bps=degraded,
        recovered_goodput_bps=recovered,
        probe_frames=probe_frames,
        wire_frames=summarize_cluster(cluster).wire_frames,
        transitions=list(mgr_a.history),
    )
