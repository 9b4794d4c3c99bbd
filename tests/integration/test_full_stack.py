"""Cross-module integration tests: the full stack under realistic load."""

import numpy as np
import pytest

from repro.analysis import summarize_cluster
from repro.apps import FftApp, run_app
from repro.bench import make_cluster, run_micro
from repro.bench.micro import run_one_way
from repro.dsm import DsmRuntime
from repro.ethernet import LinkParams, SwitchParams


class TestAllToAll:
    def test_sixteen_node_all_to_all_exchange(self):
        """Every node writes a distinct buffer to every other node."""
        n, size = 8, 3000
        cluster = make_cluster("1L-1G", nodes=n)
        handles = {}
        bufs = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                hi, hj = cluster.connect(i, j)
                src = hi.node.memory.alloc(size)
                dst = hj.node.memory.alloc(size)
                payload = bytes((i * 16 + j + k) % 256 for k in range(size))
                hi.node.memory.write(src, payload)
                bufs[(i, j)] = (hj, dst, payload)
                handles[(i, j)] = (hi, src, dst)

        procs = []
        for (i, j), (hi, src, dst) in handles.items():

            def app(hi=hi, src=src, dst=dst, size=size):
                h = yield from hi.rdma_write(src, dst, size)
                yield from h.wait()

            procs.append(cluster.sim.process(app()))
        for p in procs:
            cluster.sim.run_until_done(p, limit=60_000_000_000)
        for (i, j), (hj, dst, payload) in bufs.items():
            assert hj.node.memory.read(dst, size) == payload, (i, j)
        assert summarize_cluster(cluster).frames_dropped == 0

    def test_incast_congestion_recovers(self):
        """Many-to-one with tiny switch buffers: drops happen, data lands."""
        n, size = 6, 60_000
        cluster = make_cluster(
            "1L-1G",
            nodes=n,
            switch=SwitchParams(ports=n, output_queue_frames=16),
        )
        targets = []
        procs = []
        for i in range(n - 1):
            hi, hlast = cluster.connect(i, n - 1)
            src = hi.node.memory.alloc(size)
            dst = hlast.node.memory.alloc(size)
            payload = bytes((i + k) % 256 for k in range(size))
            hi.node.memory.write(src, payload)
            targets.append((hlast, dst, payload))

            def app(hi=hi, src=src, dst=dst):
                h = yield from hi.rdma_write(src, dst, size)
                yield from h.wait()

            procs.append(cluster.sim.process(app()))
        for p in procs:
            cluster.sim.run_until_done(p, limit=120_000_000_000)
        assert summarize_cluster(cluster).frames_dropped > 0, (
            "expected congestion drops"
        )
        for hlast, dst, payload in targets:
            assert hlast.node.memory.read(dst, size) == payload


class TestMixedWorkloads:
    def test_dsm_and_raw_rdma_share_a_cluster(self):
        """A DSM app and a raw RDMA stream coexist on one cluster."""
        cluster = make_cluster("1L-1G", nodes=4)
        rt = DsmRuntime(cluster)
        region = rt.alloc_region("shared", 64 * 4096, home="block")

        # Raw side stream between nodes 0 and 1 (same connection pair the
        # DSM uses — exercises op multiplexing on one connection).
        a, b = cluster.connect(0, 1)
        size = 50_000
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)
        a.node.memory.write(src, b"R" * size)

        def stream():
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

        stream_proc = cluster.sim.process(stream())

        def program(node):
            view = yield from node.access(
                region, node.rank * 4096, 4096, "rw"
            )
            view[:8] = node.rank + 1
            yield from node.barrier(0)
            total = 0
            for peer in range(node.size):
                v = yield from node.access(region, peer * 4096, 8, "r")
                total += int(v[0])
            return total

        result = rt.run(program)
        cluster.sim.run_until_done(stream_proc, limit=60_000_000_000)
        assert result.returns == [10, 10, 10, 10]  # 1+2+3+4
        assert b.node.memory.read(dst, size) == b"R" * size

    def test_app_runs_on_lossy_network(self):
        """A full DSM application completes correctly despite bit errors."""
        result = run_app(
            FftApp(m=64),
            nodes=4,
            link=LinkParams(speed_bps=1e9, bit_error_rate=5e-8),
        )
        assert result.verified


class TestCrossConfig:
    @pytest.mark.parametrize("config", ["1L-1G", "2L-1G", "2Lu-1G", "1L-10G"])
    def test_one_way_works_on_every_config(self, config):
        r = run_one_way(make_cluster(config, nodes=2), 65536)
        assert r.throughput_mbps > 50

    def test_two_rail_uses_both_switches(self):
        cluster = make_cluster("2L-1G", nodes=2)
        run_one_way(cluster, 262144, iterations=5)
        for sw in cluster.switches:
            assert sw.forwarded > 0

    def test_protocol_time_accounted_during_micro(self):
        cluster = make_cluster("1L-1G", nodes=2)
        r = run_micro("one-way", cluster, 65536)
        assert r.cpu_util_pct > 0
        for stack in cluster.stacks[:2]:
            assert stack.node.protocol_cpu_time() > 0
