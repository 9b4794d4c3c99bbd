"""Opt-in subsystems compose in any build order.

Crash recovery finds the layers above the stack (message passing, DSM,
serving) and the edge control planes on the cluster when it acts, so a
layer built before ``cluster.layer(ClusterRecovery)`` -- or before a ``Crash``
schedule enables recovery lazily -- reacts to a crash, and to the
reconnect after a restart, exactly as one built after it.  The gray scorer likewise compares only the live
``cluster.control_planes``: a crashed node's dead managers never vote.
"""

import pytest

from repro.bench import make_cluster
from repro.bench.serve import ServeRun
from repro.control import Crash, FaultSchedule, Restart
from repro.control import grayscore
from repro.control.detector import EdgeState
from repro.control.grayscore import GrayScorer
from repro.core import PeerCrashed
from repro.dsm.region import PageState
from repro.dsm.runtime import DsmRuntime
from repro.mp.endpoint import MpWorld
from repro.recovery import ClusterRecovery
from repro.serve import ArrivalSpec, ServeConfig, ServerSpec, ServeRuntime

MS = 1_000_000

# When crash recovery comes into being, relative to the layer under test:
# explicitly before it, explicitly after it, or only when the Crash
# schedule is applied (after the layer).
ORDERS = ("recovery-first", "layer-first", "schedule-only")


def _build(order, cluster, build, crash_node, crash_ns, restart_ns=None):
    """``build(cluster)`` in ``order``, then schedule ``crash_node``'s crash
    (and its restart ``restart_ns`` later, if given)."""
    if order == "recovery-first":
        cluster.layer(ClusterRecovery)
    layer = build(cluster)
    if order == "layer-first":
        cluster.layer(ClusterRecovery)
    faults = [Crash(at_ns=crash_ns, node=crash_node)]
    if restart_ns is not None:
        faults.append(Restart(at_ns=crash_ns, node=crash_node, delay_ns=restart_ns))
    FaultSchedule(faults).apply(cluster)
    return layer


def _mp_outcome(order):
    """A receive posted for the crashed rank raises ``PeerCrashed``."""
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    world = _build(order, cluster, MpWorld, crash_node=1, crash_ns=1 * MS)
    caught = []

    def prog():
        try:
            yield from world.endpoints[0].recv(source=1)
        except PeerCrashed as exc:
            caught.append(exc.peer_node)

    proc = cluster.sim.process(prog(), name="prog")
    cluster.sim.run_until_done(proc, limit=50 * MS)
    return caught


def _dsm_outcome(order):
    """A survivor's clean copy of a page homed at the crashed node is dropped."""
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    runtime = _build(order, cluster, DsmRuntime, crash_node=1, crash_ns=1 * MS)
    region = runtime.alloc_region("r", 4 * 4096, home="fixed:1")
    pt = runtime.nodes[0].page_tables[region.region_id]
    pt.state[0] = PageState.VALID
    cluster.sim.run(until=2 * MS)
    return pt.state[0]


def _serve_outcome(order):
    """Requests held at the crashed server are replayed to the survivor,
    and every request is answered."""
    cluster = make_cluster("1L-1G", nodes=3, seed=4)
    config = ServeConfig(
        clients=(0,),
        servers=(1, 2),
        arrival=ArrivalSpec(rate_rps=40_000),
        server=ServerSpec(workers=1, service=("fixed", 40_000)),
        duration_ns=3 * MS,
    )

    def build(cluster):
        return ServeRuntime(cluster, MpWorld(cluster), config)

    runtime = _build(order, cluster, build, crash_node=1, crash_ns=3 * MS // 2)
    runtime.start()
    cluster.sim.run(until=40 * MS)
    return (
        runtime.replayed > 0,
        runtime.pending,
        runtime.completed == runtime.generated,
        runtime.check_invariants(),
    )


LAYERS = {
    "mp": (_mp_outcome, [1]),
    "dsm": (_dsm_outcome, PageState.INVALID),
    "serve": (_serve_outcome, (True, 0, True, [])),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_reacts_to_a_crash_in_any_build_order(layer, order):
    outcome, expected = LAYERS[layer]
    assert outcome(order) == expected


@pytest.mark.parametrize("order", ORDERS)
def test_message_passing_heals_across_a_restart_in_any_build_order(order):
    """Rank 1 crashes and restarts: sends during the outage raise
    ``PeerCrashed``, and every send after the reconnect is delivered."""
    cluster = make_cluster("1L-1G", nodes=2)

    def build(cluster):
        cluster.enable_edge_control(0, 1)
        return MpWorld(cluster)

    world = _build(order, cluster, build, crash_node=1, crash_ns=1 * MS,
                   restart_ns=2 * MS)
    sim = cluster.sim
    sent, failed, received = [], [], []

    def sender():
        for k in range(60):
            try:
                yield from world.endpoints[0].send(1, k.to_bytes(32, "big"))
                sent.append(k)
            except PeerCrashed:
                failed.append(k)
            yield MS // 2

    def receiver():
        while True:
            msg = yield from world.endpoints[1].recv(source=0)
            received.append(int.from_bytes(msg.data, "big"))

    sim.process(sender(), name="sender")
    sim.process(receiver(), name="receiver")
    sim.run(until=40 * MS)
    assert cluster.layer(ClusterRecovery).reconnects == 1
    assert failed and len(sent) + len(failed) == 60
    assert received == sent and sent[-1] == 59


@pytest.mark.parametrize("order", ORDERS)
def test_edge_control_escalates_peer_down_in_any_build_order(order):
    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    _build(
        order, cluster, lambda c: c.enable_edge_control(0, 1),
        crash_node=1, crash_ns=2 * MS,
    )
    cluster.sim.run(until=30 * MS)
    recovery = cluster.layer(ClusterRecovery)
    assert recovery.peer_down_events == 1
    # The survivor's plane was torn down with its endpoint, and the
    # reconnect loop is still dialling the dead peer.
    assert (0, 1) not in cluster.control_planes
    assert recovery.reconnects == 0


def test_crashed_nodes_managers_leave_the_gray_population(monkeypatch):
    """Node 3 crashes and restarts: its old control planes die with it,
    and from then on only the live planes are compared or flagged."""
    run = ServeRun(
        "1L-1G", n_clients=2, n_servers=3, gray_detection=True,
        duration_ns=30 * MS,
        faults=[Crash(at_ns=10 * MS, node=3),
                Restart(at_ns=10 * MS, node=3, delay_ns=1 * MS)],
    )
    cluster = run.cluster
    dead = [cluster.control_planes[(3, c)] for c in (0, 1)]
    sizes = []
    median = grayscore._median

    def checked_median(values):
        # Every median is taken over the comparable edges of the live
        # control planes, and nothing else.
        live = [
            rail
            for mgr in cluster.control_planes.values()
            for rail, det in enumerate(mgr.detectors)
            if det.state in (EdgeState.UP, EdgeState.DEGRADED)
            and mgr.monitors[rail].probes_acked
        ]
        sizes.append((cluster.sim.now, len(values), len(live)))
        return median(values)

    monkeypatch.setattr(grayscore, "_median", checked_median)
    result = run.finish()
    assert result.crashes == 1 and result.reconnects >= 1
    assert all(mgr not in cluster.control_planes.values() for mgr in dead)
    assert [s for s in sizes if s[1] != s[2]] == []
    live = list(cluster.control_planes.values())
    assert all(mgr in live for mgr, _ in cluster.layer(GrayScorer).flagged)
