"""Gray (degraded-mode) fault injection: the five new event kinds.

Each test drives the real stack and asserts the *observable* symptom of
the fault — stretched service times, a backed-up TX ring, CRC drops,
burst loss, a half-open link — plus the restore: after the window every
impaired knob must be back at its pristine value, because gray faults
degrade live hardware, they don't replace it.
"""

import pytest

from repro.bench import make_cluster
from repro.bench.serve import run_serve
from repro.control import (
    AsymmetricPartition,
    Crash,
    DegradedLink,
    FaultSchedule,
    IntermittentDrop,
    Restart,
    SlowNic,
    SlowNode,
)
from repro.recovery import ClusterRecovery
from repro.serve import ArrivalSpec, ServerSpec

MS = 1_000_000


def transfer(cluster, size=200_000, limit=5_000 * MS):
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    payload = bytes(i % 251 for i in range(size))
    a.node.memory.write(src, payload)

    def app():
        handle = yield from a.rdma_write(src, dst, size)
        yield from handle.wait()

    proc = cluster.sim.process(app())
    cluster.sim.run_until_done(proc, limit=limit)
    return b.node.memory.read(dst, size) == payload, a.stats


def test_event_validation():
    with pytest.raises(ValueError):
        SlowNode(at_ns=0, node=0, duration_ns=MS, factor=0.5)
    with pytest.raises(ValueError):
        SlowNode(at_ns=0, node=0, duration_ns=0)
    with pytest.raises(ValueError):
        SlowNic(at_ns=0, node=0, rail=0, duration_ns=MS, factor=0.9)
    with pytest.raises(ValueError):
        DegradedLink(at_ns=0, node=0, rail=0, duration_ns=MS,
                     bit_error_rate=1.0)
    with pytest.raises(ValueError):
        IntermittentDrop(at_ns=0, node=0, rail=0, duration_ns=MS, drop_p=0.0)
    with pytest.raises(ValueError):
        IntermittentDrop(at_ns=0, node=0, rail=0, duration_ns=MS,
                         burst_len=0.5)
    with pytest.raises(ValueError):
        AsymmetricPartition(at_ns=0, node=0, rail=0, duration_ns=MS,
                            direction="both")


def test_slow_node_stretches_service_and_restores():
    fault = [SlowNode(at_ns=1 * MS, node=1, duration_ns=4 * MS, factor=8.0)]
    slow = run_serve(
        config="1L-1G", n_clients=1, n_servers=2, policy="round-robin",
        arrival=ArrivalSpec(kind="poisson", rate_rps=10_000, batch=64),
        server=ServerSpec(queue_cap=64, workers=2, service=("fixed", 30_000)),
        duration_ns=8 * MS, seed=4, faults=fault,
    )
    assert not slow.violations, slow.violations
    # The slow server (rank 1) shows the stretch in its own tail; the
    # clean server (rank 2) does not.
    assert slow.p99_by_server[1] >= 8 * 30_000
    assert slow.p99_by_server[2] < slow.p99_by_server[1]


def test_slow_node_factor_resets_after_window():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule(
        [SlowNode(at_ns=1 * MS, node=1, duration_ns=2 * MS, factor=4.0)]
    ).apply(cluster)
    cluster.sim.run_until_time(2 * MS)
    assert cluster.nodes[1].gray_slow_factor == 4.0
    assert cluster.nodes[1].gray_pump_extra_ns > 0
    cluster.sim.run_until_time(4 * MS)
    assert cluster.nodes[1].gray_slow_factor == 1.0
    assert cluster.nodes[1].gray_pump_extra_ns == 0


def test_slow_nic_throttles_and_restores():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule(
        [SlowNic(at_ns=0, node=0, rail=0, duration_ns=10 * MS, factor=4.0)]
    ).apply(cluster)
    ok, _ = transfer(cluster, size=400_000)
    assert ok
    nic = cluster.nodes[0].nics[0]
    assert nic.gray_tx_throttle == 1.0  # window over, throttle reset
    # A throttled-for-the-whole-transfer run takes ~4x the wire time.
    fast = make_cluster("1L-1G", nodes=2)
    ok2, _ = transfer(fast, size=400_000)
    assert ok2
    assert cluster.sim.now > 2 * fast.sim.now


def test_degraded_link_raises_ber_then_restores():
    cluster = make_cluster("1L-1G", nodes=2)
    cable = cluster.cable(0, 0)
    pristine = cable.ab.params
    FaultSchedule(
        [DegradedLink(at_ns=0, node=0, rail=0, duration_ns=50 * MS,
                      bit_error_rate=2e-6, jitter_ns=5_000)]
    ).apply(cluster)
    ok, stats = transfer(cluster, size=400_000)
    assert ok  # retransmission rides over the bit errors
    assert stats.retransmitted_frames > 0
    cluster.sim.run_until_time(51 * MS)  # let the window expire
    assert cable.ab.params is pristine  # pristine params restored
    assert cable.ba.params.bit_error_rate == pristine.bit_error_rate


def test_intermittent_drop_loses_frames_in_bursts():
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule(
        [IntermittentDrop(at_ns=0, node=0, rail=0, duration_ns=50 * MS,
                          drop_p=0.05, burst_len=4.0)]
    ).apply(cluster)
    ok, stats = transfer(cluster, size=400_000)
    assert ok
    cable = cluster.cable(0, 0)
    lost = cable.ab.frames_lost_gray + cable.ba.frames_lost_gray
    assert lost > 0
    assert stats.retransmitted_frames > 0


def test_asymmetric_partition_is_one_directional():
    # Blackhole node 0's TX leg: requests vanish, the reverse leg lives.
    cluster = make_cluster("1L-1G", nodes=2)
    FaultSchedule(
        [AsymmetricPartition(at_ns=0, node=0, rail=0, duration_ns=2 * MS,
                             direction="tx")]
    ).apply(cluster)
    ok, stats = transfer(cluster, size=100_000)
    assert ok  # recovery after the window completes the transfer
    assert stats.retransmitted_frames > 0
    assert cluster.sim.now > 2 * MS  # nothing got through before repair


def test_crash_events_auto_enable_recovery():
    cluster = make_cluster("1L-1G", nodes=2)
    assert cluster.layers == []
    FaultSchedule(
        [Crash(at_ns=2 * MS, node=1),
         Restart(at_ns=2 * MS, node=1, delay_ns=1 * MS)]
    ).apply(cluster)
    [recovery] = cluster.layers
    assert isinstance(recovery, ClusterRecovery)
    cluster.sim.run_until_time(5 * MS)
    assert recovery.crashes == 1
    assert recovery.restarts == 1
