"""``Cluster.quiesce()``: the one way a run ends — bounded and clock-neutral."""

import pytest

from repro.analysis import summarize_cluster
from repro.bench import make_cluster
from repro.bench.cluster import DRAIN_HORIZON_NS
from repro.control import FaultSchedule, Outage
from repro.core.connection import Operation
from repro.sim import SimulationError
from repro.verify.fuzz import ScenarioRun, scenario_from_seed

MS = 1_000_000


def _finished_workload(cluster):
    """Edge control on, one acked write done; returns the workload process."""
    a, _b = cluster.connect(0, 1)
    cluster.enable_edge_control(0, 1)

    def writer():
        handle = yield from a.rdma_write(0, 0, 32 * 1024)
        yield from handle.wait()

    proc = cluster.sim.process(writer(), name="writer")
    cluster.sim.run_until_done(proc, limit=100 * MS)
    return proc


def test_quiesce_stops_the_control_plane_and_drains():
    cluster = make_cluster("2Lu-1G", nodes=2, synthetic_payloads=True)
    _finished_workload(cluster)
    assert cluster.sim.next_event_time() is not None  # heartbeats pending
    cluster.quiesce()
    assert cluster.sim.next_event_time() is None
    assert cluster.sim.now < 100 * MS  # the clock was not pushed to a horizon


def test_quiesce_raises_on_a_source_that_keeps_ticking():
    cluster = make_cluster("2Lu-1G", nodes=2, synthetic_payloads=True)
    _finished_workload(cluster)

    # Re-armed behind quiesce()'s back: nobody stops it.  It gives up on its
    # own well past the horizon, so an unbounded drain (the parent's, which
    # never returned from a `while True`) fails this test instead of hanging it.
    limit = 100 * MS + 3 * DRAIN_HORIZON_NS

    def ticker():
        while cluster.sim.now < limit:
            yield 1 * MS

    cluster.sim.process(ticker(), name="forgotten-ticker")
    with pytest.raises(SimulationError, match="forgotten-ticker"):
        cluster.quiesce()
    assert cluster.sim.now <= 100 * MS + DRAIN_HORIZON_NS


def test_quiesce_raises_on_a_switch_that_lost_a_frame():
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    _finished_workload(cluster)
    cluster.quiesce()  # every ingress frame forwarded
    cluster.switches[0].ingress_frames += 1  # one that went nowhere
    with pytest.raises(SimulationError, match="switch0: .* ingress frames"):
        cluster.quiesce()


def test_quiesce_raises_on_an_op_that_never_completes():
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    _finished_workload(cluster)
    conn = next(iter(cluster.stacks[0].protocol.connections.values()))
    # A read the peer was never asked for: nothing is scheduled that could
    # answer it, so the drain itself ends cleanly.
    stranded = Operation(cluster.sim, 999, 0, Operation.READ, 0, 0, 0, 64)
    conn._pending_reads[stranded.op_id] = stranded
    with pytest.raises(
        SimulationError, match=r"op Op\(read id=999 len=64 pending\) incomplete after drain"
    ):
        cluster.quiesce()


def test_bounded_drain_leaves_the_clock_where_an_unbounded_one_does():
    """The fingerprint hashes ``sim.now``: ``quiesce()`` must end on the last
    executed event, as the parent's ``sim.run()`` did (fuzz seeds 0-19)."""
    for seed in range(20):
        sc = scenario_from_seed(seed)
        bounded = ScenarioRun(sc)
        unbounded = ScenarioRun(sc)
        for run in (bounded, unbounded):
            for proc in run.procs:
                run.cluster.sim.run_until_done(proc, limit=sc.limit_ns)
        bounded.cluster.quiesce()
        unbounded.cluster.stop_periodic()
        unbounded.cluster.sim.run()
        a, b = bounded.cluster.sim, unbounded.cluster.sim
        assert a.now == b.now, seed
        assert a.events_processed == b.events_processed, seed
        assert a.cancelled_popped == b.cancelled_popped, seed
        assert a.now < sc.limit_ns + DRAIN_HORIZON_NS


def test_total_frames_dropped_counts_outage_losses():
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    a, _b = cluster.connect(0, 1)
    FaultSchedule(
        [Outage(at_ns=100_000, node=0, rail=0, duration_ns=1 * MS)]
    ).apply(cluster)

    def writer():
        handle = yield from a.rdma_write(0, 0, 256 * 1024)
        yield from handle.wait()

    proc = cluster.sim.process(writer())
    cluster.sim.run_until_done(proc, limit=1_000 * MS)
    cluster.quiesce()
    cable = cluster.cable(0, 0)
    lost = cable.ab.frames_lost_outage + cable.ba.frames_lost_outage
    assert lost > 0, "the outage no longer catches a frame in flight"
    switch_and_nic = sum(sw.dropped_total for sw in cluster.switches) + sum(
        nic.counters.rx_dropped_ring_full + nic.counters.rx_dropped_crc
        for node in cluster.nodes
        for nic in node.nics
    )
    summary = summarize_cluster(cluster)
    assert summary.link_outage_losses == lost
    assert summary.frames_dropped == switch_and_nic + lost
