"""Fast path x injected faults: a fault in effect is never jumped over.

The harness is the one behind EXPERIMENTS.md's "fast path x fault" table,
shortened: a one-way stream of 1 MiB writes over 1 GbE with one fault on
edge (0, 0), frame level against ``fastpath=True``.  The guard marks the
instant a fault starts; what keeps a flow from re-arming while the fault
lasts is the level question the detector asks the devices of the path.
"""

import pytest

from repro.bench import make_cluster
from repro.bench.micro import run_micro
from repro.control import (
    BitErrorRamp,
    DegradedLink,
    FaultSchedule,
    IntermittentDrop,
    Repair,
    SlowNic,
    SlowNode,
)

MS = 1_000_000
ITERATIONS = 12  # ~107 ms of stream after ~18 ms of warm-up


def _one_way(fastpath, faults):
    cluster = make_cluster(
        "1L-1G", nodes=2, seed=0, synthetic_payloads=True, fastpath=fastpath
    )
    FaultSchedule(faults).apply(cluster)
    result = run_micro(
        "one-way", cluster, 1 << 20, iterations=ITERATIONS, warmup=2
    )
    return cluster, result


def _crc_drops(cluster):
    return sum(
        nic.counters.rx_dropped_crc for node in cluster.nodes for nic in node.nics
    )


def _assert_rearms(cluster, after_ns):
    """Once the fault is over, the next stream on the same cluster jumps."""
    cluster.sim.run_until_time(after_ns)
    run_micro("one-way", cluster, 1 << 20, iterations=2, warmup=1)
    stats = cluster.fastpath.stats
    assert stats.jumps >= 1 and stats.ff_frames > 0, stats.to_dict()


def test_bit_error_ramp_happens_on_the_fast_path():
    # The ramp starts in the warm-up and lasts until its Repair.
    faults = [BitErrorRamp(5 * MS, 0, 0, 1e-6), Repair(400 * MS, 0, 0)]
    _, frame = _one_way(False, faults)
    cluster, fast = _one_way(True, faults)
    sent = cluster.stacks[0].protocol.total_stats()
    assert _crc_drops(cluster) > 0
    assert sent.retransmitted_frames > 0
    stats = cluster.fastpath.stats
    assert stats.ff_frames == 0, stats.to_dict()
    assert stats.denials.get("lossy-link", 0) >= 1, stats.denials
    assert fast.throughput_mbps == pytest.approx(frame.throughput_mbps, rel=0.02)
    _assert_rearms(cluster, 401 * MS)


@pytest.mark.parametrize(
    "fault, reason, tolerance",
    [
        (DegradedLink(5 * MS, 0, 0, 295 * MS, 1e-6, 2_000), "link-degraded", 0.02),
        # Loss bursts are drawn, so goodput is not a parity target here.
        (IntermittentDrop(5 * MS, 0, 0, 295 * MS, 0.01), "link-degraded", None),
        (SlowNic(5 * MS, 0, 0, 595 * MS, 4.0), "nic-throttled", 0.10),
        (SlowNode(5 * MS, 0, 295 * MS, 4.0), "node-slowed", 0.10),
    ],
    ids=["degraded-link", "intermittent-drop", "slow-nic", "slow-node"],
)
def test_nothing_is_synthesised_inside_a_gray_window(fault, reason, tolerance):
    # The window opens in the warm-up and outlasts the measured stream.
    cluster, fast = _one_way(True, [fault])
    window_end = fault.at_ns + fault.duration_ns
    assert cluster.sim.now < window_end
    stats = cluster.fastpath.stats
    assert stats.jumps == 0 and stats.ff_frames == 0, stats.to_dict()
    assert stats.denials.get(reason, 0) >= 1, stats.denials
    if tolerance is not None:
        _, frame = _one_way(False, [fault])
        assert fast.throughput_mbps == pytest.approx(
            frame.throughput_mbps, rel=tolerance
        )
    _assert_rearms(cluster, window_end + MS)
