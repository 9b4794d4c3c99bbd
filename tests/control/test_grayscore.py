"""Differential gray detection: population-median scoring, DEGRADED state.

The scorer's contract has three parts, each pinned here:

* **detection** — an edge whose EWMAs deviate from the population
  median (a throttled NIC) is marked DEGRADED after the hysteresis
  streak, and cleared after the fault lifts;
* **gentleness** — DEGRADED never masks the rail: probes keep flowing,
  no DOWN/SUSPECT transition fires, and only the striping score is
  capped;
* **caution** — below ``MIN_POPULATION`` comparable edges no median is
  trusted and nothing is ever flagged.
"""

from repro.analysis import summarize_cluster
from repro.bench import make_cluster
from repro.control import FaultSchedule, SlowNic
from repro.control.detector import EdgeFailureDetector, EdgeState
from repro.control.grayscore import DEGRADED_SCORE

MS = 1_000_000


def _gray_cluster(rails_config="2L-1G", rails=4, traffic_until_ns=40 * MS):
    """Cluster with gray detection + open-loop bulk load on the edge.

    A throttled NIC is only *visible* when something queues behind it:
    the probe path alone (tiny frames, big fixed processing cost) hides
    an 8x serialisation slowdown, which is exactly what makes the fault
    gray.  The pump keeps the TX rings busy so the backlog/RTT EWMAs
    carry signal.
    """
    cluster = make_cluster(rails_config, nodes=2, seed=7, rails=rails)
    a, b = cluster.connect(0, 1)
    cluster.enable_edge_control(0, 1)
    cluster.enable_gray_detection()
    size = 64_000
    src = b.node.memory.alloc(size)
    dst = a.node.memory.alloc(size)

    def pump():
        while cluster.sim.now < traffic_until_ns:
            handle = yield from b.rdma_write(src, dst, size)
            yield from handle.wait()

    cluster.sim.process(pump(), name="gray.pump")
    return cluster


def test_throttled_nic_marked_then_cleared():
    cluster = _gray_cluster()
    FaultSchedule(
        [SlowNic(at_ns=2 * MS, node=1, rail=1, duration_ns=30 * MS,
                 factor=8.0)]
    ).apply(cluster)
    cluster.sim.run_until_time(45 * MS)
    scorer = cluster.gray_scorer
    assert scorer.degrade_marks >= 1
    assert scorer.degrade_clears >= 1
    assert not scorer.flagged  # everything recovered by the end
    for mgr in cluster.control_planes.values():
        assert not mgr.gray_cap  # caps removed with the clears
        history = mgr.history
        # The gray path never escalates: DEGRADED happened, DOWN did not.
        assert not any(t.new is EdgeState.DOWN for t in history)
        assert not any(t.new is EdgeState.SUSPECT for t in history)
    degraded = [
        t
        for mgr in cluster.control_planes.values()
        for t in mgr.history
        if t.new is EdgeState.DEGRADED
    ]
    assert degraded, "the throttled rail was never flagged"
    assert all(t.rail == 1 for t in degraded), (
        "only the throttled rail may be flagged"
    )


def test_degraded_caps_score_but_keeps_probing():
    cluster = _gray_cluster()
    FaultSchedule(
        [SlowNic(at_ns=2 * MS, node=1, rail=1, duration_ns=30 * MS,
                 factor=8.0)]
    ).apply(cluster)
    cluster.sim.run_until_time(16 * MS)
    scorer = cluster.gray_scorer
    assert scorer.flagged, "mid-window the rail must be DEGRADED"
    flagged_mgr, rail = scorer.flagged[0]
    assert flagged_mgr.gray_cap[rail] == DEGRADED_SCORE
    acked_mid = flagged_mgr.monitors[rail].probes_acked
    assert acked_mid > 0
    # Residency accounting: the open DEGRADED interval is visible.
    assert summarize_cluster(cluster).edge_state_time_ns["degraded"] > 0
    cluster.sim.run_until_time(26 * MS)
    # DEGRADED is not DOWN: probes kept flowing the whole time.
    assert flagged_mgr.monitors[rail].probes_acked > acked_mid


def test_small_population_never_flags():
    # One rail -> two comparable edges (one per endpoint), below the
    # MIN_POPULATION=3 floor: no median is trustworthy, nothing flags.
    cluster = _gray_cluster(rails=1)
    FaultSchedule(
        [SlowNic(at_ns=2 * MS, node=1, rail=0, duration_ns=30 * MS,
                 factor=8.0)]
    ).apply(cluster)
    cluster.sim.run_until_time(40 * MS)
    scorer = cluster.gray_scorer
    assert scorer.checks > 0
    assert scorer.degrade_marks == 0
    assert not scorer.flagged


def test_clean_population_never_flags():
    cluster = _gray_cluster()
    cluster.sim.run_until_time(30 * MS)
    assert cluster.gray_scorer.checks > 0
    assert cluster.gray_scorer.degrade_marks == 0


def test_stop_halts_checks():
    cluster = _gray_cluster()
    cluster.sim.run_until_time(5 * MS)
    cluster.gray_scorer.stop()
    checks = cluster.gray_scorer.checks
    cluster.sim.run_until_time(15 * MS)
    assert cluster.gray_scorer.checks == checks


def test_mark_degraded_legal_only_from_up():
    det = EdgeFailureDetector(0)
    assert det.state is EdgeState.UP
    det.mark_degraded(now=1000)
    assert det.state is EdgeState.DEGRADED
    det.mark_degraded(now=2000)  # idempotent no-op
    assert det.state is EdgeState.DEGRADED
    det.clear_degraded(now=3000)
    assert det.state is EdgeState.UP
    det.clear_degraded(now=4000)  # no-op from UP
    assert det.state is EdgeState.UP
    det.force_down(now=5000)
    det.mark_degraded(now=6000)  # illegal from DOWN: ignored
    assert det.state is EdgeState.DOWN


def test_gray_scorer_is_idempotent_on_cluster():
    cluster = _gray_cluster()
    first = cluster.gray_scorer
    cluster.enable_gray_detection()
    assert cluster.gray_scorer is first
