"""Fabric x serve x gray x crash x congestion in one run, once.

Trunk churn used to be ``sim.at(...)`` calls beside a run, so a serving run
could not take it, it was not in the run's recipe, and a restore by replay
would have lacked it.  As fault events it is one more entry of
``ServeRun(faults=...)``.  This is one run, not a fuzz family (ROADMAP 4c).
"""

from repro.bench.serve import ServeRun
from repro.checkpoint import restore, take_checkpoint
from repro.control import (
    Crash,
    IntermittentDrop,
    Restart,
    SlowNode,
    TrunkDrain,
    TrunkOutage,
)
from repro.fabric import LeafSpineSpec
from repro.serve import ArrivalSpec, TailSpec
from repro.serve.arrivals import Request

MS = 1_000_000

RECIPE = dict(
    config="1L-1G",
    n_clients=3,
    n_servers=3,
    arrival=ArrivalSpec(kind="poisson", rate_rps=30_000, batch=64),
    duration_ns=10 * MS,
    fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=3),
    congestion="dctcp",
    ecn_threshold_frames=16,
    tail=TailSpec(),
    gray_detection=True,
    use_monitor=True,
    faults=[
        TrunkOutage(2 * MS, 0, "leaf0.0", "spine0.0", 2 * MS),
        TrunkDrain(3 * MS, 0, "leaf0.1", "spine0.1", 2 * MS),
        SlowNode(1 * MS, 4, 3 * MS, 4.0),
        IntermittentDrop(1 * MS, 1, 0, 3 * MS, 0.02),
        Crash(4 * MS, 5),
        Restart(4 * MS, 5, MS // 2),
    ],
)


def test_composed_run_is_ok_and_restores_inside_the_trunk_outage():
    run_a = ServeRun(**RECIPE)
    res_a = run_a.finish()
    assert res_a.ok, res_a.violations
    assert res_a.generated > 500
    assert res_a.generated == (
        res_a.completed + res_a.shed + res_a.shed_client + res_a.failed
        + res_a.pending
    )
    assert res_a.pending == 0
    assert (res_a.crashes, res_a.reconnects) == (1, 3)
    # Every axis left a mark: re-pins around the trunks, hedges past the
    # slow server, gray losses on the client's edge, a replay after the crash.
    cluster = run_a.cluster
    assert sum(sw.repins for sw in cluster.fabrics[0].switches) > 0
    assert res_a.hedges_sent > 0 and res_a.replayed > 0
    edge = cluster.cable(1, 0)
    assert edge.ab.frames_lost_gray + edge.ba.frames_lost_gray > 0

    # The faults are in the recipe: a checkpoint taken inside the trunk
    # outage restores by verified replay and finishes like the straight run.
    run_b = ServeRun(**RECIPE)
    run_b.run_to(3 * MS)
    assert run_b.cluster.fabrics[0].trunk("leaf0.0", "spine0.0").ab.failed
    ck = take_checkpoint(run_b)
    assert run_b.finish() == res_a
    assert restore(ck).finish() == res_a


def test_reconnect_strands_no_request():
    """Seed 2: server 5's ring to client 0 is full when 5 crashes, and its
    outbox drain waits on that ring for credit.  The rewire must retire
    the old ring so the drain moves on to the new one."""
    res = ServeRun(**dict(RECIPE, seed=2)).finish()
    assert res.pending == 0
    assert res.ok, res.violations


def test_stranded_request_is_a_violation():
    run = ServeRun(
        n_clients=1, n_servers=1, duration_ns=2 * MS,
        arrival=ArrivalSpec(kind="poisson", rate_rps=20_000),
    )
    assert run.finish().ok
    # One request held for dispatch that nothing will ever send, counted
    # as emitted so every accounting invariant still holds.
    rt = run.runtime
    rt.holding.append(Request(
        req_id=-1, client=0, t_arrival=0, req_bytes=64, resp_bytes=64
    ))
    rt.generated += 1
    rt.sources[0].generated += 1
    res = run._report()
    assert not res.ok
    assert [v.split(":")[0] for v in res.violations] == ["requests-stranded"]
