"""The declarative fault-schedule driver."""

import pytest

from repro.bench import make_cluster
from repro.control import (
    BitErrorRamp,
    Crash,
    DegradedLink,
    FaultSchedule,
    Flap,
    Outage,
    PermanentFailure,
    Repair,
    SlowNode,
    TrunkDrain,
    TrunkOutage,
)
from repro.fabric import LeafSpineSpec

MS = 1_000_000


def transfer(cluster, size=200_000):
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from a.rdma_write(src, dst, size)
        yield from handle.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=5_000 * MS)
    return b.node.memory.read(dst, size) == payload, a.stats


def test_event_validation():
    with pytest.raises(ValueError):
        Flap(at_ns=0, node=0, rail=0, period_ns=1 * MS, down_ns=2 * MS, count=3)
    with pytest.raises(ValueError):
        Flap(at_ns=0, node=0, rail=0, period_ns=1 * MS, down_ns=1 * MS, count=0)
    with pytest.raises(ValueError):
        BitErrorRamp(at_ns=0, node=0, rail=0, bit_error_rate=1.0)


def test_apply_is_single_shot():
    cluster = make_cluster("1L-1G", nodes=2)
    sched = FaultSchedule([Outage(at_ns=MS, node=0, rail=0, duration_ns=MS)])
    sched.apply(cluster)
    with pytest.raises(RuntimeError):
        sched.apply(cluster)
    with pytest.raises(RuntimeError):
        sched.add(Outage(at_ns=MS, node=0, rail=0, duration_ns=MS))


def test_unknown_edge_rejected():
    cluster = make_cluster("1L-1G", nodes=2)
    sched = FaultSchedule([Outage(at_ns=MS, node=9, rail=0, duration_ns=MS)])
    with pytest.raises(ValueError):
        sched.apply(cluster)


@pytest.mark.parametrize(
    "missing",
    [
        Outage(at_ns=MS, node=9, rail=0, duration_ns=MS),
        Outage(at_ns=MS, node=1, rail=3, duration_ns=MS),
        SlowNode(at_ns=MS, node=9, duration_ns=MS),
        Crash(at_ns=MS, node=9),
        TrunkOutage(at_ns=MS, rail=1, a="leaf0.0", b="spine0.0", duration_ns=MS),
        TrunkDrain(at_ns=MS, rail=0, a="leaf0.0", b="spine0.7", duration_ns=MS),
    ],
    ids=lambda ev: f"{type(ev).__name__}-{ev.target[1:]}",
)
def test_missing_target_raises_before_anything_is_installed(missing):
    # The first event is fine; at the parent its timer was installed and the
    # schedule left applied before the second one raised.
    cluster = make_cluster(
        "1L-1G", nodes=4, fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2)
    )
    sched = FaultSchedule(
        [Outage(at_ns=MS, node=0, rail=0, duration_ns=MS), missing]
    )
    before = cluster.sim.pending_events
    with pytest.raises(ValueError, match=f"fault #1 {type(missing).__name__}"):
        sched.apply(cluster)
    assert cluster.sim.pending_events == before
    assert cluster.recovery is None
    # Still un-applied: it can be corrected and applied.
    sched.events.pop()
    sched.add(TrunkOutage(at_ns=MS, rail=0, a="spine0.1", b="leaf0.1", duration_ns=MS))
    sched.apply(cluster)
    assert cluster.sim.pending_events == before + 2


def test_trunk_faults_are_schedule_events():
    cluster = make_cluster(
        "1L-1G", nodes=4, fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2)
    )
    fabric = cluster.fabrics[0]
    leaf = fabric.by_name["leaf0.0"]
    to_spine0, _ = fabric._trunk_ports("leaf0.0", "spine0.0")
    to_spine1, _ = fabric._trunk_ports("leaf0.0", "spine0.1")
    sched = FaultSchedule([
        TrunkDrain(at_ns=1 * MS, rail=0, a="leaf0.0", b="spine0.0", duration_ns=2 * MS),
        TrunkOutage(at_ns=2 * MS, rail=0, a="spine0.1", b="leaf0.0", duration_ns=2 * MS),
    ])
    sched.apply(cluster)
    cluster.sim.run(until=2_500_000)
    assert to_spine0 in leaf._disabled  # drained, but the cable is up
    assert not fabric.trunk("leaf0.0", "spine0.0").ab.failed
    assert fabric.trunk("leaf0.0", "spine0.1").ab.failed  # hard outage
    cluster.sim.run(until=5 * MS)
    assert leaf._port_alive(to_spine0) and leaf._port_alive(to_spine1)


def test_outage_drops_frames_then_recovers():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule([
        Outage(at_ns=2 * MS, node=0, rail=0, duration_ns=5 * MS),
    ]).apply(cluster)
    ok, stats = transfer(cluster)
    assert ok
    link = cluster.nodes[0].nics[0].tx_link
    assert link.frames_lost_outage > 0
    assert stats.retransmitted_frames > 0


def test_flap_produces_repeated_outages():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule([
        Flap(at_ns=1 * MS, node=0, rail=0, period_ns=4 * MS,
             down_ns=1 * MS, count=4),
    ]).apply(cluster)
    ok, stats = transfer(cluster, size=400_000)
    assert ok
    assert cluster.nodes[0].nics[0].tx_link.frames_lost_outage > 0


def test_bit_error_ramp_is_scoped_to_one_edge():
    # All links share one LinkParams instance; the ramp must copy before
    # mutating or the whole cluster goes noisy.
    cluster = make_cluster("1L-1G", nodes=3)
    FaultSchedule([
        BitErrorRamp(at_ns=0, node=0, rail=0, bit_error_rate=1e-5),
    ]).apply(cluster)
    cluster.sim.run(until=1 * MS)
    assert cluster.cable(0, 0).ab.params.bit_error_rate == 1e-5
    assert cluster.cable(1, 0).ab.params.bit_error_rate == 0.0
    assert cluster.config.link.bit_error_rate == 0.0


def test_bit_error_ramp_causes_crc_drops_and_repair_clears():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule([
        BitErrorRamp(at_ns=0, node=0, rail=0, bit_error_rate=1e-6),
        Repair(at_ns=8 * MS, node=0, rail=0),
    ]).apply(cluster)
    ok, stats = transfer(cluster, size=500_000)
    assert ok
    crc = sum(
        n.counters.rx_dropped_crc for node in cluster.nodes for n in node.nics
    )
    assert crc > 0
    cluster.sim.run(until=10 * MS)  # let the scheduled repair fire
    assert cluster.cable(0, 0).ab.params.bit_error_rate == 0.0


def test_ramp_and_degradation_are_separate_bit_error_sources():
    # At the parent the degradation's end restored the shared pristine
    # params: the rate read 1e-6 lowered, then 0 at 3.5 ms, 7 ms early.
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule([
        BitErrorRamp(at_ns=1 * MS, node=0, rail=0, bit_error_rate=1e-5),
        DegradedLink(at_ns=2 * MS, node=0, rail=0, duration_ns=1 * MS,
                     bit_error_rate=1e-6),
        Repair(at_ns=10 * MS, node=0, rail=0),
    ]).apply(cluster)
    cable = cluster.cable(0, 0)
    read = []
    for at_ns in (1_500_000, 2_500_000, 3_500_000, 10_500_000):
        cluster.sim.run(until=at_ns)
        assert cable.ab.params == cable.ba.params
        read.append(cable.ab.params.bit_error_rate)
    assert read == [1e-5, 1e-6, 1e-5, 0.0]
    assert cable.ab.params is cluster.config.link  # nothing private is left


def test_permanent_failure_until_repair():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule([
        PermanentFailure(at_ns=2 * MS, node=0, rail=0),
        Repair(at_ns=30 * MS, node=0, rail=0),
    ]).apply(cluster)
    ok, stats = transfer(cluster)
    assert ok  # single rail: the transfer stalls until the repair, then completes
    assert cluster.sim.now > 30 * MS
