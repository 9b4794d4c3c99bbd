#!/usr/bin/env python
"""Reliability demo: declarative fault schedules and live edge failover.

MultiEdge guarantees delivery across faults (paper §2.4).  Every scenario
here scripts its trouble with ``repro.control.faults`` — a declarative
:class:`FaultSchedule` applied to the cluster — and shows the transfer
completing with correct bytes, plus what the recovery cost was:

1. a bit-error ramp on one edge — CRC drops recovered by NACKs,
2. a 5 ms outage mid-transfer — recovered by the coarse timeout,
3. a flapping edge — repeated short outages, absorbed by retransmission,
4. an incast storm overflowing a tiny switch queue — congestion drops
   recovered by selective retransmission,
5. rail death with the edge lifecycle control plane on — the failure is
   *detected*, in-flight frames are migrated to the surviving rail, and
   the repaired rail is re-striped automatically.

Run:  python examples/failure_injection.py
"""

from repro.analysis import summarize_cluster
from repro.bench import make_cluster, run_failover
from repro.control import BitErrorRamp, FaultSchedule, Flap, Outage, Repair
from repro.ethernet import SwitchParams

MS = 1_000_000


def transfer(cluster, size=300_000, limit_ms=5000):
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from a.rdma_write(src, dst, size)
        yield from handle.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=limit_ms * MS)
    ok = b.node.memory.read(dst, size) == payload
    return ok, a.stats, cluster


def scenario_bit_errors() -> None:
    cluster = make_cluster("1L-1G", nodes=2)
    # Ramp node 0's edge to a noisy 1e-6 BER just after the transfer starts,
    # then swap the cable back to clean mid-way.
    FaultSchedule([
        BitErrorRamp(at_ns=0, node=0, rail=0, bit_error_rate=1e-6),
        Repair(at_ns=10 * MS, node=0, rail=0),
    ]).apply(cluster)
    ok, stats, cl = transfer(cluster)
    crc = summarize_cluster(cl).crc_drops
    print(f"bit errors   : data intact={ok}  CRC drops={crc}  "
          f"retransmits={stats.retransmitted_frames}  "
          f"nacks rx={stats.nacks_received}")


def scenario_outage() -> None:
    cluster = make_cluster("1L-1G", nodes=2)
    # Fail node 0's edge for 5 ms shortly after the transfer starts.
    FaultSchedule([
        Outage(at_ns=2 * MS, node=0, rail=0, duration_ns=5 * MS),
    ]).apply(cluster)
    ok, stats, cl = transfer(cluster)
    print(f"5ms outage   : data intact={ok}  "
          f"lost to outage={summarize_cluster(cl).link_outage_losses}  "
          f"timeout retransmits={stats.timeout_retransmits}  "
          f"retransmits={stats.retransmitted_frames}")


def scenario_flapping() -> None:
    cluster = make_cluster("1L-1G", nodes=2)
    # Edge goes down for 1 ms out of every 4 ms, five times in a row.
    FaultSchedule([
        Flap(at_ns=1 * MS, node=0, rail=0, period_ns=4 * MS,
             down_ns=1 * MS, count=5),
    ]).apply(cluster)
    ok, stats, cl = transfer(cluster)
    print(f"flapping edge: data intact={ok}  "
          f"lost to outage={summarize_cluster(cl).link_outage_losses}  "
          f"retransmits={stats.retransmitted_frames}")


def scenario_congestion() -> None:
    # Tiny switch buffers + three senders blasting one receiver.
    cluster = make_cluster(
        "1L-1G", nodes=4,
        switch=SwitchParams(ports=4, output_queue_frames=24),
    )
    conns = [cluster.connect(i, 3)[0] for i in range(3)]
    size = 150_000
    payload = bytes(i % 249 for i in range(size))
    dsts = []
    procs = []
    for i, conn in enumerate(conns):
        src = conn.node.memory.alloc(size)
        dst = cluster.stacks[3].node.memory.alloc(size)
        conn.node.memory.write(src, payload)
        dsts.append(dst)

        def app(conn=conn, src=src, dst=dst):
            handle = yield from conn.rdma_write(src, dst, size)
            yield from handle.wait()

        procs.append(cluster.sim.process(app()))
    for p in procs:
        cluster.sim.run_until_done(p, limit=10_000_000_000)
    ok = all(
        cluster.stacks[3].node.memory.read(dst, size) == payload
        for dst in dsts
    )
    dropped = summarize_cluster(cluster).switch_drops
    retrans = sum(c.stats.retransmitted_frames for c in conns)
    print(f"incast storm : data intact={ok}  switch drops={dropped}  "
          f"retransmits={retrans}")


def scenario_failover() -> None:
    # Two-rail cluster, control plane on: kill rail 0 at 10 ms, repair at
    # 60 ms.  The detector notices, migrates the stranded frames, keeps the
    # stream flowing on rail 1, and re-stripes when the rail returns.
    result = run_failover(
        config="2Lu-1G", kill_ns=10 * MS, repair_ns=60 * MS, run_ns=100 * MS
    )
    detect_ms = (result.detect_latency_ns or 0) / MS
    print(f"rail failover: data intact={result.data_intact}  "
          f"detected in {detect_ms:.1f}ms  "
          f"degraded={result.degraded_fraction:.0%} of baseline  "
          f"recovered={result.recovered_goodput_bps / 1e6:.0f}Mb/s")
    for t in result.transitions:
        print(f"    {t.time_ns / MS:7.2f}ms  rail {t.rail}: "
              f"{t.old} -> {t.new}  ({t.reason})")


def main() -> None:
    scenario_bit_errors()
    scenario_outage()
    scenario_flapping()
    scenario_congestion()
    scenario_failover()


if __name__ == "__main__":
    main()
