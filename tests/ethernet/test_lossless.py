"""Tests for core-assisted (lossless) switch mode — paper §6 hybrid."""

import pytest

from repro.analysis import summarize_cluster
from repro.bench import make_cluster
from repro.ethernet import SwitchParams


def _incast(cluster, senders=3, size=120_000, limit_ms=60_000):
    """N senders blast one receiver; returns (all_intact, conns)."""
    n = senders + 1
    conns = []
    procs = []
    targets = []
    payload = bytes(i % 241 for i in range(size))
    for i in range(senders):
        a, b = cluster.connect(i, n - 1)
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        a.node.memory.write(src, payload)
        conns.append(a)
        targets.append((b, dst))

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

        procs.append(cluster.sim.process(app()))
    for p in procs:
        cluster.sim.run_until_done(p, limit=limit_ms * 1_000_000)
    intact = all(
        b.node.memory.read(dst, size) == payload for b, dst in targets
    )
    return intact, conns


def test_lossy_incast_drops_and_retransmits():
    cluster = make_cluster(
        "1L-1G", nodes=4,
        switch=SwitchParams(ports=4, output_queue_frames=24),
    )
    intact, conns = _incast(cluster)
    assert intact
    assert summarize_cluster(cluster).frames_dropped > 0
    assert sum(c.stats.retransmitted_frames for c in conns) > 0


def test_lossless_incast_never_drops():
    cluster = make_cluster(
        "1L-1G", nodes=4,
        switch=SwitchParams(ports=4, output_queue_frames=24, lossless=True),
    )
    intact, conns = _incast(cluster)
    assert intact
    s = summarize_cluster(cluster)
    assert s.frames_dropped == 0
    # The congestion went into fabric buffering instead.  (Deep fabric
    # queues can still provoke *spurious* timeout retransmissions — the
    # classic bufferbloat effect of lossless fabrics — but nothing is
    # actually lost and every duplicate is filtered at the receiver.)
    port = cluster.switches[0].port(3)
    assert port.paused_frames > 0
    assert port.peak_queue_depth > 24
    assert s.paused_frames == port.paused_frames
    dup = sum(
        s.protocol.total_stats().duplicate_frames for s in cluster.stacks
    )
    retrans = sum(c.stats.retransmitted_frames for c in conns)
    assert dup == retrans  # all retransmissions were unnecessary duplicates


def test_lossless_faster_than_lossy_under_heavy_incast():
    """Core-assisted flow control avoids the retransmission tax."""
    import time

    def run(lossless):
        cluster = make_cluster(
            "1L-1G", nodes=5,
            switch=SwitchParams(
                ports=5, output_queue_frames=16, lossless=lossless
            ),
        )
        t0 = cluster.sim.now
        intact, _ = _incast(cluster, senders=4, size=150_000)
        assert intact
        return cluster.sim.now - t0

    t_lossless = run(True)
    t_lossy = run(False)
    assert t_lossless <= t_lossy


def test_lossless_mode_off_by_default():
    assert not SwitchParams().lossless
