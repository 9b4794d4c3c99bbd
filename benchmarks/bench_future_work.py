"""Paper §6 future-work experiments: larger fabrics, second domain.

The paper's conclusions name two directions this infrastructure should
explore: (a) "larger system configurations with more nodes and
communication paths that consist of multiple switches" and (b) serving
several application domains on one interconnect.  Both are runnable here:

* leaf-spine fabrics with an oversubscribed spine: same-leaf vs
  cross-leaf latency/throughput, 32-node barriers,
* the message-passing domain: point-to-point latency/bandwidth and
  collective scaling over the exact substrate the DSM uses,
* hybrid core support: incast behaviour with a lossless (PAUSE-style)
  fabric versus the pure edge-based protocol recovering from drops.
"""

import numpy as np

from repro.analysis import summarize_cluster
from repro.bench import Table, make_cluster
from repro.bench.micro import run_one_way
from repro.fabric import LeafSpineSpec
from repro.mp import MpWorld, allreduce, barrier

# One spine, one uplink per leaf: cross-leaf traffic is oversubscribed
# hosts_per_leaf : 1.
TWO_LEAVES = LeafSpineSpec(leaves=2, spines=1, hosts_per_leaf=4)


def _p2p_transfer(cluster, i, j, size):
    a, b = cluster.connect(i, j)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)

    def app():
        h = yield from a.rdma_write(src, dst, size)
        yield from h.wait()

    t0 = cluster.sim.now
    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=120_000_000_000)
    return cluster.sim.now - t0


def _mp_latency_bandwidth(nodes=2):
    """NetPIPE-style ping-pong over the message-passing layer."""
    out = []
    for size in (8, 1024, 16384, 262144):
        cluster = make_cluster("1L-1G", nodes=nodes)
        world = MpWorld(cluster)
        iters = 20 if size <= 16384 else 6
        state = {}

        def program(ep, size=size, iters=iters):
            payload = bytes(size)
            if ep.rank == 0:
                t0 = ep.sim.now
                for i in range(iters):
                    yield from ep.send(1, payload, tag=i)
                    yield from ep.recv(source=1, tag=i)
                state["rtt"] = (ep.sim.now - t0) / iters
            else:
                for i in range(iters):
                    msg = yield from ep.recv(source=0, tag=i)
                    yield from ep.send(0, msg.data, tag=i)

        world.run(program)
        half_rtt_us = state["rtt"] / 2 / 1000
        bw = size / (state["rtt"] / 2 / 1e9) / 1e6
        out.append((size, half_rtt_us, bw))
    return out


def _collective_scaling():
    out = []
    for nodes in (2, 4, 8, 16):
        cluster = make_cluster("1L-1G", nodes=nodes)
        world = MpWorld(cluster)
        state = {}

        def program(ep):
            yield from barrier(ep)  # warm
            t0 = ep.sim.now
            for r in range(5):
                yield from barrier(ep, tag_round=r + 1)
            if ep.rank == 0:
                state["barrier"] = (ep.sim.now - t0) / 5
            t0 = ep.sim.now
            yield from allreduce(ep, np.arange(64.0))
            if ep.rank == 0:
                state["allreduce"] = ep.sim.now - t0

        world.run(program)
        out.append((nodes, state["barrier"] / 1000, state["allreduce"] / 1000))
    return out


def run_experiment():
    out = {}

    # (a) leaf-spine fabric characteristics.
    size = 262144
    flat = make_cluster("1L-1G", nodes=8)
    t_flat = _p2p_transfer(flat, 0, 5, size)
    ls = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    t_same = _p2p_transfer(ls, 0, 1, size)
    ls2 = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    t_cross = _p2p_transfer(ls2, 0, 5, size)
    out["fabric"] = [
        ("flat 8-node", size / (t_flat / 1e9) / 1e6),
        ("leaf-spine same-leaf", size / (t_same / 1e9) / 1e6),
        ("leaf-spine cross-leaf", size / (t_cross / 1e9) / 1e6),
    ]

    # Oversubscription: 4 simultaneous cross-leaf flows on 1 uplink.
    over = make_cluster("1L-1G", nodes=8, fabric=TWO_LEAVES)
    flows = 4
    procs = []
    for i in range(flows):
        a, b = over.connect(i, 4 + i)
        src = a.node.memory.alloc(size)
        dst = b.node.memory.alloc(size)

        def app(a=a, src=src, dst=dst):
            h = yield from a.rdma_write(src, dst, size)
            yield from h.wait()

        procs.append(over.sim.process(app()))
    t0 = over.sim.now
    for p in procs:
        over.sim.run_until_done(p, limit=240_000_000_000)
    agg = flows * size / ((over.sim.now - t0) / 1e9) / 1e6
    out["oversubscription"] = agg

    # 32-node fabric barrier cost (beyond the paper's 16 nodes).
    big = make_cluster(
        "1L-1G", nodes=32,
        fabric=LeafSpineSpec(leaves=4, spines=1, hosts_per_leaf=8),
    )
    world = MpWorld(big)
    state = {}

    def program(ep):
        yield from barrier(ep)
        t0 = ep.sim.now
        for r in range(3):
            yield from barrier(ep, tag_round=r + 1)
        if ep.rank == 0:
            state["barrier"] = (ep.sim.now - t0) / 3

    world.run(program)
    out["barrier32_us"] = state["barrier"] / 1000

    # (b) the message-passing domain.
    out["mp_pingpong"] = _mp_latency_bandwidth()
    out["mp_collectives"] = _collective_scaling()

    # (c) hybrid core support: edge-only vs lossless fabric under incast.
    from repro.ethernet import SwitchParams

    out["hybrid"] = []
    for lossless in (False, True):
        cluster = make_cluster(
            "1L-1G", nodes=5,
            switch=SwitchParams(
                ports=5, output_queue_frames=24, lossless=lossless
            ),
        )
        size = 150_000
        procs = []
        for i in range(4):
            a, b = cluster.connect(i, 4)
            src = a.node.memory.alloc(size)
            dst = b.node.memory.alloc(size)

            def app(a=a, src=src, dst=dst):
                h = yield from a.rdma_write(src, dst, size)
                yield from h.wait()

            procs.append((cluster.sim.process(app()), a))
        t0 = cluster.sim.now
        for p, _ in procs:
            cluster.sim.run_until_done(p, limit=240_000_000_000)
        elapsed = cluster.sim.now - t0
        retrans = sum(a.stats.retransmitted_frames for _, a in procs)
        out["hybrid"].append(
            (
                "lossless core" if lossless else "edge-only",
                4 * size / (elapsed / 1e9) / 1e6,
                summarize_cluster(cluster).frames_dropped,
                retrans,
            )
        )
    return out


def test_future_work(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    t = Table("§6(a) — leaf-spine fabric, 256 KB stream", ["path", "MB/s"])
    for name, thr in out["fabric"]:
        t.add(name, thr)
    t.show()
    t = Table(
        "§6(a) — spine oversubscription (4 cross-leaf flows, 1 uplink)",
        ["aggregate MB/s"],
    )
    t.add(out["oversubscription"])
    t.show()
    t = Table("§6(a) — 32-node dissemination barrier", ["us"])
    t.add(out["barrier32_us"])
    t.show()

    t = Table(
        "§6(b) — message passing ping-pong over MultiEdge",
        ["size (B)", "half-RTT (us)", "bandwidth (MB/s)"],
    )
    for size, lat, bw in out["mp_pingpong"]:
        t.add(size, lat, bw)
    t.show()
    t = Table(
        "§6(b) — collective scaling (1L-1G)",
        ["nodes", "barrier (us)", "allreduce 512B (us)"],
    )
    for nodes, b_us, ar_us in out["mp_collectives"]:
        t.add(nodes, b_us, ar_us)
    t.show()

    # -- assertions ----------------------------------------------------------
    fabric = dict(out["fabric"])
    # Same-leaf equals the flat network; crossing the spine costs little
    # for a single stream (store-and-forward adds latency, not bandwidth).
    assert fabric["leaf-spine same-leaf"] > 0.95 * fabric["flat 8-node"]
    assert fabric["leaf-spine cross-leaf"] > 0.85 * fabric["flat 8-node"]
    # But concurrent cross-leaf flows collapse onto the single uplink.
    assert out["oversubscription"] < 140

    # MP small-message latency is within a few us of the raw RDMA path.
    small = out["mp_pingpong"][0]
    assert small[1] < 80  # us
    big = out["mp_pingpong"][-1]
    assert big[2] > 90  # MB/s, rendezvous reaches most of the link

    # Dissemination barrier grows ~log n.
    coll = {n: b for n, b, _ in out["mp_collectives"]}
    assert coll[16] < 6 * coll[2]

    t = Table(
        "§6(b) — hybrid core support: 4-to-1 incast, tiny switch buffers",
        ["fabric", "aggregate MB/s", "drops", "retransmissions"],
    )
    for row in out["hybrid"]:
        t.add(*row)
    t.show()
    hybrid = {name: (thr, drops, rx) for name, thr, drops, rx in out["hybrid"]}
    assert hybrid["edge-only"][1] > 0, "edge fabric must drop under incast"
    assert hybrid["lossless core"][1] == 0, "lossless fabric must not drop"
    assert hybrid["lossless core"][0] >= 0.9 * hybrid["edge-only"][0]
