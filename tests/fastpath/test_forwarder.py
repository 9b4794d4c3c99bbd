"""End-to-end fast-forward behaviour: parity, divergence, aborts, coverage."""

import pytest

from repro.analysis import summarize_cluster
from repro.bench.cluster import make_cluster
from repro.bench.micro import run_one_way
from repro.verify.fuzz import fingerprint, run_scenario, scenario_from_seed


def _one_way(config, fastpath, size=1 << 20, **kw):
    cluster = make_cluster(config, fastpath=fastpath, synthetic_payloads=True)
    result = run_one_way(cluster, size, **kw)
    return cluster, result


class TestFingerprintParity:
    def test_monitored_runs_never_arm_and_stay_byte_identical(self):
        for seed in (1, 2, 7, 11):
            sc = scenario_from_seed(seed)
            off = run_scenario(sc, use_monitor=True)
            on = run_scenario(sc, use_monitor=True, fastpath=True)
            assert off.ok and on.ok, (seed, off.failure or on.failure)
            assert on.fastpath_jumps == 0, seed
            assert off.fingerprint == on.fingerprint, seed

    def test_unmonitored_no_opportunity_runs_stay_identical(self):
        armed = 0
        for seed in range(1, 13):
            sc = scenario_from_seed(seed)
            off = run_scenario(sc, use_monitor=False)
            on = run_scenario(sc, use_monitor=False, fastpath=True)
            assert off.ok and on.ok, (seed, off.failure or on.failure)
            if on.fastpath_jumps:
                armed += 1
            else:
                assert off.fingerprint == on.fingerprint, seed


class TestDivergence:
    @pytest.mark.parametrize("config", ["1L-1G", "1L-10G", "2L-1G", "2Lu-1G"])
    def test_one_way_goodput_within_one_percent(self, config):
        _, off = _one_way(config, fastpath=False)
        on_cluster, on = _one_way(config, fastpath=True)
        stats = on_cluster.fastpath.stats
        assert stats.jumps >= 1, stats.denials
        div = abs(on.throughput_mbps - off.throughput_mbps) / off.throughput_mbps
        assert div < 0.01, f"{config}: {div * 100:.3f}% divergence"

    def test_counters_synthesized(self):
        _, off = _one_way("1L-1G", fastpath=False)
        cluster, on = _one_way("1L-1G", fastpath=True)
        # Frame/byte totals are exact; notifications must all arrive.
        assert on.data_frames == off.data_frames
        stats = cluster.fastpath.stats
        assert stats.ff_frames > 0
        assert stats.ff_bytes > 0


class TestDeviceCounters:
    def test_two_rail_one_way_device_counters_pinned(self):
        """The fingerprint hashes connection stats only; these are the NIC,
        link and switch counters a jump synthesizes, data out on both rails
        and acks back on both (counted per rail, not per ack)."""
        cluster, _ = _one_way("2L-1G", fastpath=True)
        assert cluster.fastpath.stats.jumps == 1
        for rail in (0, 1):
            snd = cluster.nodes[0].nics[rail].counters
            rcv = cluster.nodes[1].nics[rail].counters
            assert (snd.tx_frames, snd.rx_frames, snd.irqs_raised) == (4302, 135, 135)
            assert (rcv.tx_frames, rcv.rx_frames, rcv.irqs_raised) == (135, 4302, 1434)
            out, back = cluster.cable(0, rail), cluster.cable(1, rail)
            assert (out.ab.frames_delivered, out.ba.frames_delivered) == (4302, 135)
            assert (back.ab.frames_delivered, back.ba.frames_delivered) == (135, 4302)
            assert cluster.switches[rail].forwarded == 4437
        a, b = cluster.connect(0, 1)
        assert (a.conn.striping._control_cursor, b.conn.striping._control_cursor) == (0, 0)


class TestAbort:
    def test_link_outage_aborts_jump_and_run_completes(self):
        cluster = make_cluster("1L-1G", fastpath=True, synthetic_payloads=True)
        cable = cluster.cable(0, 0)
        # Fail the cable mid-measurement (warmup takes ~35 ms of virtual
        # time and the stats reset at measurement start): the active jump
        # must abort back to frame level and the retransmit machinery must
        # finish the stream.
        cluster.sim.at(50_000_000, cable.ab.fail_for, 200_000)
        result = run_one_way(cluster, 1 << 20, iterations=8)
        stats = cluster.fastpath.stats
        assert "link-outage" in stats.abort_reasons, stats.abort_reasons
        assert result.elapsed_ns > 0  # the notification arrived

    def test_endpoint_destroy_detaches_forwarder(self):
        cluster = make_cluster("1L-1G", fastpath=True)
        a, _ = cluster.connect(0, 1)
        a.conn.destroy()
        assert a.conn.fastpath is None


class TestMemoryContent:
    def test_receiver_memory_identical_with_real_payloads(self):
        import hashlib

        digests = []
        for fastpath in (False, True):
            cluster = make_cluster("1L-1G", fastpath=fastpath)
            a, b = cluster.connect(0, 1)
            size = 256 * 1024
            src = a.node.memory.alloc(size)
            dst = b.node.memory.alloc(size)
            pattern = bytes((i * 31 + 7) % 251 for i in range(size))
            a.node.memory.write(src, pattern)

            from repro.ethernet import OpFlags

            def sender():
                yield from a.rdma_write(src, dst, size, flags=OpFlags.NOTIFY)

            def receiver():
                yield from b.wait_notification()

            rproc = cluster.sim.process(receiver())
            cluster.sim.process(sender())
            cluster.sim.run_until_done(rproc, limit=600_000_000_000)
            got = b.node.memory.read(dst, size)
            digests.append(hashlib.sha256(got).hexdigest())
            if fastpath:
                assert bytes(got) == pattern
        assert digests[0] == digests[1]


class TestCoverage:
    def test_summary_reports_fastpath_coverage(self):
        cluster, result = _one_way("1L-1G", fastpath=True)
        summary = summarize_cluster(cluster, result.elapsed_ns)
        assert summary.ff_jumps >= 1
        assert summary.ff_bytes > 0
        assert summary.ff_time_coverage_pct > 50.0

    def test_manager_coverage_reports_horizon(self):
        cluster, _ = _one_way("1L-1G", fastpath=True)
        report = cluster.fastpath.coverage()
        assert report["jumps"] >= 1
        assert "pending_horizon_ns" in report


class TestNextEventTime:
    def test_empty_sim_has_no_horizon(self):
        from repro.sim import Simulator

        sim = Simulator()
        assert sim.next_event_time() is None

    def test_horizon_tracks_earliest_pending_event(self):
        from repro.sim import Simulator

        sim = Simulator()
        sim.schedule(500, lambda: None)
        sim.schedule(100, lambda: None)
        assert sim.next_event_time() == 100

    def test_cancelled_head_is_skipped(self):
        from repro.sim import Simulator

        sim = Simulator()
        entry = sim.schedule_cancellable(100, lambda: None)
        sim.schedule(700, lambda: None)
        sim.cancel_scheduled(entry)
        assert sim.next_event_time() == 700


def test_frame_size_cache_is_bit_identical():
    from repro.ethernet.frame import (
        ETH_MIN_PAYLOAD,
        ETH_OVERHEAD_BYTES,
        MULTIEDGE_HEADER_BYTES,
        frame_sizes,
    )

    for plen in (0, 1, 64, 1000, 1464):
        mac_payload, wire = frame_sizes(plen)
        expected_mac = max(MULTIEDGE_HEADER_BYTES + plen, ETH_MIN_PAYLOAD)
        assert mac_payload == expected_mac
        assert wire == expected_mac + ETH_OVERHEAD_BYTES
        # The cache returns the same tuple every time.
        assert frame_sizes(plen) is frame_sizes(plen)
