"""Tests for cluster summaries and the run-level reads of traffic behaviour."""

from repro.analysis import ascii_histogram, summarize_cluster
from repro.bench import make_cluster
from repro.bench.micro import run_one_way
from repro.control import FaultSchedule, PermanentFailure
from repro.core import merge_stats
from repro.verify import InvariantMonitor

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

    def test_residency_covers_the_measured_interval(self):
        # Managers made at 4 ms, a reset at 30 ms, rail 0 cut at 31 ms: both
        # ends of rail 0 turn SUSPECT at 39.5 ms and DOWN at 40.5 ms, after
        # the interval's 25 ms length but inside [30, 55] ms, which is the
        # interval residency covers.
        cluster = make_cluster("2L-1G", nodes=2)
        cluster.connect(0, 1)
        cluster.sim.run(until=4 * MS)
        cluster.enable_edge_control(0, 1)  # 4 edges
        FaultSchedule([PermanentFailure(at_ns=31 * MS, node=0, rail=0)]).apply(
            cluster
        )
        cluster.sim.run(until=30 * MS)
        before = summarize_cluster(cluster).edge_state_time_ns
        assert before["up"] == sum(before.values()) == 4 * 26 * MS
        cluster.reset_measurement()
        cluster.sim.run(until=60 * MS)
        t = summarize_cluster(cluster, elapsed_ns=25 * MS).edge_state_time_ns
        assert sum(t.values()) == 4 * 25 * MS
        assert t["suspect"] == 2 * MS
        assert t["down"] == 2 * (55 * MS - 40_500_000)

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
    """Stream goodput, window occupancy and queue build-up, read from the run."""

    def test_throughput_probe_sees_stream(self):
        cluster = make_cluster("1L-1G", nodes=2)
        result = run_one_way(cluster, 262144, iterations=8)
        assert result.throughput_mbps > 80  # MB/s of goodput

    def test_inflight_probe_bounded_by_window(self):
        # The attached monitor raises window-overflow on the first event
        # that leaves more frames in flight than the window holds.
        cluster = make_cluster("1L-1G", nodes=2)
        a, b = cluster.connect(0, 1)
        monitor = InvariantMonitor.attach(cluster)
        run_one_way(cluster, 1048576, iterations=4)
        monitor.final_check()
        assert monitor.ok and monitor.checks_run > 0
        assert a.conn.stats.data_frames_sent > a.conn.window.size

    def test_queue_probe_sees_congestion(self):
        from repro.ethernet import SwitchParams

        cluster = make_cluster(
            "1L-1G", nodes=3,
            switch=SwitchParams(ports=3, output_queue_frames=64),
        )
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
        # Two 1G flows into one 1G port queue up.
        assert summarize_cluster(cluster).peak_queue_depth > 5


def test_ascii_histogram_renders():
    text = ascii_histogram([5, 2, 0, 1])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "#" in lines[0]
    assert lines[2].endswith("0")
