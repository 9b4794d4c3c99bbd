"""Tests for the runtime invariant monitor (repro.verify)."""

import types

import pytest

from repro.bench.cluster import make_cluster
from repro.verify import InvariantMonitor, InvariantViolation


def _run_write(cluster, handle, src, dst, size):
    def proc():
        h = yield from handle.rdma_write(src, dst, size)
        yield from h.wait()

    cluster.sim.run_until_done(cluster.sim.process(proc()), limit=10**10)
    cluster.sim.run()


def _small_cluster(config="1L-1G", seed=1):
    c = make_cluster(config, nodes=2, seed=seed)
    a, b = c.connect(0, 1)
    src = c.nodes[0].memory.alloc(64 * 1024)
    dst = c.nodes[1].memory.alloc(64 * 1024)
    return c, a, b, src, dst


class TestOffByDefault:
    def test_no_monitor_unless_attached(self):
        c, a, b, src, dst = _small_cluster()
        assert c.sim.monitor is None
        _run_write(c, a, src, dst, 4096)  # runs fine without a monitor

    def test_attach_wires_everything(self):
        c, a, b, src, dst = _small_cluster()
        mon = InvariantMonitor.attach(c)
        assert c.sim.monitor is mon
        assert set(mon.conn_monitors) == {
            (a.conn.conn_id, 0), (b.conn.conn_id, 1)
        }
        _run_write(c, a, src, dst, 16 * 1024)
        mon.final_check()
        assert mon.checks_run > 0 and mon.ok

    def test_detach_unwires(self):
        c, a, b, src, dst = _small_cluster()
        mon = InvariantMonitor.attach(c)
        mon.detach()
        assert c.sim.monitor is None

    def test_manager_created_after_attach_is_checked(self):
        from repro.control.detector import EdgeState

        c = make_cluster("2Lu-1G", nodes=2, seed=1)
        c.connect(0, 1)
        mon = InvariantMonitor.attach(c, collect=True)
        ma, _ = c.enable_edge_control(0, 1)
        ma._on_transition(0, EdgeState.UP, EdgeState.UP, c.sim.now, "test")
        assert [v.invariant for v in mon.violations] == ["edge-self-transition"]

    def test_detach_stops_registering_new_connections(self):
        c, a, b, src, dst = _small_cluster()
        c.enable_crash_recovery()
        mon = InvariantMonitor.attach(c)
        mon.detach()
        stack = c.stacks[0]
        stack.protocol.create_connection(99, 1, [nic.mac for nic in c.nodes[1].nics])
        assert (99, 0) not in mon.conn_monitors


class TestCleanRuns:
    @pytest.mark.parametrize("config", ["1L-1G", "1L-10G", "2L-1G", "2Lu-1G"])
    def test_bulk_write_clean(self, config):
        c, a, b, src, dst = _small_cluster(config)
        mon = InvariantMonitor.attach(c)
        _run_write(c, a, src, dst, 64 * 1024)
        mon.final_check()
        assert mon.ok

    def test_edge_control_clean(self):
        c = make_cluster("2Lu-1G", nodes=2, seed=3)
        c.connect(0, 1)
        m1, m2 = c.enable_edge_control(0, 1)
        mon = InvariantMonitor.attach(c)
        a, _ = c.connect(0, 1)
        src = c.nodes[0].memory.alloc(64 * 1024)
        dst = c.nodes[1].memory.alloc(64 * 1024)

        def proc():
            h = yield from a.rdma_write(src, dst, 64 * 1024)
            yield from h.wait()

        # Probe loops keep the event queue non-empty; stop them before the
        # final drain or sim.run() never returns.
        c.sim.run_until_done(c.sim.process(proc()), limit=10**10)
        m1.stop()
        m2.stop()
        c.sim.run()
        mon.final_check()
        assert mon.ok


class TestPlantedCorruptions:
    def _completed_run(self):
        c, a, b, src, dst = _small_cluster()
        mon = InvariantMonitor.attach(c)
        _run_write(c, a, src, dst, 8192)
        return c, a, mon

    def test_catches_sent_counter_drift(self):
        _, a, mon = self._completed_run()
        a.conn.stats.data_frames_sent += 1
        with pytest.raises(InvariantViolation, match="sent-vs-seq"):
            mon.final_check()

    def test_catches_freed_seq_resurrection(self):
        _, a, mon = self._completed_run()
        rec = types.SimpleNamespace(
            frame=types.SimpleNamespace(header=types.SimpleNamespace(seq=0)),
            retransmits=0,
        )
        a.conn.window.inflight[0] = rec
        with pytest.raises(InvariantViolation):
            mon.final_check()

    def test_catches_cpu_charge_drift(self):
        _, a, mon = self._completed_run()
        a.conn.stats.pump_charged_ns += 1
        with pytest.raises(InvariantViolation, match="pump-cpu"):
            mon.final_check()

    def test_catches_negative_deficit(self):
        c = make_cluster("2Lu-1G", nodes=2, seed=1)
        a, _ = c.connect(0, 1)
        mon = InvariantMonitor.attach(c)
        src = c.nodes[0].memory.alloc(8192)
        dst = c.nodes[1].memory.alloc(8192)
        _run_write(c, a, src, dst, 8192)
        a.conn.striping._charged[0] = -5
        with pytest.raises(InvariantViolation, match="deficit"):
            mon.final_check()

    def test_catches_cum_ack_regression(self):
        _, a, mon = self._completed_run()
        tracker = a.conn.tracker
        tracker.expected -= 1
        with pytest.raises(InvariantViolation):
            mon.final_check()

    def test_catches_rx_op_live_below_the_watermark(self):
        from repro.core import RxOpState

        c, _, mon = self._completed_run()
        rx = c.connect(0, 1)[1].conn.ordering
        assert rx.ops == {} and rx.watermark == 1
        rx.ops[0] = RxOpState(op_id=1, op_seq=0, flags=0, length=8192)
        with pytest.raises(InvariantViolation, match="rx-op-resurrected"):
            mon.final_check()

    def test_catches_overrun_of_a_retired_rx_op(self):
        c, _, mon = self._completed_run()
        rx = c.connect(0, 1)[1].conn.ordering
        rx.retired_overrun += 3
        with pytest.raises(InvariantViolation, match="rx-byte-overrun"):
            mon.final_check()

    def test_catches_illegal_edge_transition(self):
        from repro.control.detector import EdgeState

        c = make_cluster("2Lu-1G", nodes=2, seed=1)
        c.connect(0, 1)
        mgr, _ = c.enable_edge_control(0, 1)
        mon = InvariantMonitor.attach(c)
        with pytest.raises(InvariantViolation, match="edge"):
            mon.on_edge_transition(
                mgr, 0, EdgeState.DOWN, EdgeState.SUSPECT, "bogus"
            )

    def test_collect_mode_gathers_instead_of_raising(self):
        c, a, b, src, dst = _small_cluster()
        mon = InvariantMonitor.attach(c, collect=True)
        _run_write(c, a, src, dst, 8192)
        a.conn.stats.data_frames_sent += 1
        mon.final_check()
        assert not mon.ok
        assert any("sent-vs-seq" in str(v) for v in mon.violations)
