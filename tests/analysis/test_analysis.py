"""Tests for probes and cluster summaries."""

import pytest

from repro.analysis import (
    InflightProbe,
    QueueProbe,
    ThroughputProbe,
    ascii_histogram,
    summarize_cluster,
)
from repro.bench import make_cluster
from repro.bench.micro import run_one_way
from repro.core import merge_stats

MS = 1_000_000


def streamed_cluster(config="1L-1G", size=262144):
    cluster = make_cluster(config, nodes=2)
    run_one_way(cluster, size, iterations=8)
    return cluster


def merged_stats(cluster):
    return merge_stats([s.protocol.total_stats() for s in cluster.stacks])


class TestSummary:
    def test_summary_totals_consistent(self):
        cluster = streamed_cluster()
        s = summarize_cluster(cluster)
        assert s.data_frames > 0
        assert s.wire_frames >= s.data_frames  # wire includes acks etc.
        assert s.data_bytes <= s.wire_bytes
        assert 0 < s.wire_efficiency < 1
        assert s.goodput_mbps > 0
        assert s.retransmissions == 0
        assert s.switch_drops == 0

    def test_coalescing_factor(self):
        cluster = streamed_cluster()
        s = summarize_cluster(cluster)
        # Paper Fig 5: effective coalescing factor of about 3-10 for apps;
        # a smooth stream coalesces at least that well.
        assert s.interrupt_coalescing_factor >= 2

    def test_summary_is_a_read(self):
        # Residency is counted up to each summary's own instant, so
        # summaries at any instants, in any order, agree.
        cluster = make_cluster("2L-1G", nodes=2)
        cluster.enable_edge_control(0, 1)  # 4 edges
        cluster.sim.run(until=5 * MS)

        def residency(**kw):
            return sum(summarize_cluster(cluster, **kw).edge_state_time_ns.values())

        assert residency() == 4 * 5 * MS
        assert residency(elapsed_ns=2 * MS) == 4 * 2 * MS
        assert residency() == 4 * 5 * MS

    def test_reorder_histogram_single_link_empty(self):
        hist = merged_stats(streamed_cluster("1L-1G")).reorder_histogram
        assert sum(hist) == 0

    def test_reorder_histogram_two_rails_closely_spaced(self):
        hist = merged_stats(streamed_cluster("2Lu-1G")).reorder_histogram
        assert sum(hist) > 0
        # Paper: "frames arrive out-of-order but closely spaced" — the
        # mass must sit in the small-distance buckets.
        close = sum(hist[:4])
        assert close / sum(hist) > 0.8

    def test_protocol_cpu_fraction_positive(self):
        cluster = streamed_cluster()
        s = summarize_cluster(cluster)
        assert 0 < s.protocol_cpu_fraction_mean < 2


class TestProbes:
    def test_throughput_probe_sees_stream(self):
        cluster = make_cluster("1L-1G", nodes=2)
        a, b = cluster.connect(0, 1)
        probe = ThroughputProbe(cluster.sim, b.conn, interval_ns=500_000)
        run_one_way(cluster, 262144, iterations=8)
        probe.stop()
        assert probe.peak() > 80  # MB/s during the burst
        assert len(probe.samples) > 3

    def test_inflight_probe_bounded_by_window(self):
        cluster = make_cluster("1L-1G", nodes=2)
        a, b = cluster.connect(0, 1)
        probe = InflightProbe(cluster.sim, a.conn)
        run_one_way(cluster, 1048576, iterations=4)
        probe.stop()
        assert probe.peak() > 0
        assert probe.peak() <= a.conn.window.size

    def test_queue_probe_sees_congestion(self):
        from repro.ethernet import SwitchParams

        cluster = make_cluster(
            "1L-1G", nodes=3,
            switch=SwitchParams(ports=3, output_queue_frames=64),
        )
        probe = QueueProbe(cluster.sim, cluster.switches[0], interval_ns=50_000)
        size = 150_000
        procs = []
        for i in (0, 1):
            h, t = cluster.connect(i, 2)
            src = h.node.memory.alloc(size)
            dst = t.node.memory.alloc(size)

            def app(h=h, src=src, dst=dst):
                hd = yield from h.rdma_write(src, dst, size)
                yield from hd.wait()

            procs.append(cluster.sim.process(app()))
        for p in procs:
            cluster.sim.run_until_done(p, limit=60_000_000_000)
        probe.stop()
        assert probe.peak() > 5  # two 1G flows into one 1G port queue up

    def test_probe_interval_validation(self):
        cluster = make_cluster("1L-1G", nodes=2)
        a, _ = cluster.connect(0, 1)
        with pytest.raises(ValueError):
            ThroughputProbe(cluster.sim, a.conn, interval_ns=0)


def test_ascii_histogram_renders():
    text = ascii_histogram([5, 2, 0, 1])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "#" in lines[0]
    assert lines[2].endswith("0")
