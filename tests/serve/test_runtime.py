"""The serving runtime end to end: conservation, overload, crashes.

Every scenario runs over the real mp/RDMA stack (no shortcuts), asserts
the request-conservation invariant, and the fault scenarios exercise
the client-side journal replay across server crash + reconnect.
"""

from collections import Counter

import pytest

from repro.analysis import SloSpec
from repro.bench.cluster import make_cluster
from repro.bench.serve import ServeRun, run_serve
from repro.control import Crash, Restart
from repro.serve import ArrivalSpec, ServeConfig, ServerSpec
from repro.serve.runtime import ServeRuntime
from repro.serve.tail import QuantileTracker

_MS = 1_000_000


def test_config_validation():
    with pytest.raises(ValueError):
        ServeConfig(clients=(), servers=(1,))
    with pytest.raises(ValueError):
        ServeConfig(clients=(0,), servers=(0, 1))  # overlapping ranks
    with pytest.raises(ValueError):
        ServeConfig(clients=(0,), servers=(1,), duration_ns=0)


def test_synthetic_payload_cluster_rejected():
    from repro.mp import MpWorld
    from repro.serve import enable_serving

    cluster = make_cluster("1L-1G", nodes=2, synthetic_payloads=True)
    world = MpWorld(cluster)
    with pytest.raises(ValueError, match="synthetic_payloads"):
        enable_serving(
            cluster, world, ServeConfig(clients=(0,), servers=(1,))
        )


def test_steady_state_conservation_and_decomposition():
    r = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=40_000, batch=64),
        server=ServerSpec(queue_cap=64, workers=4, service=("fixed", 10_000)),
        duration_ns=5 * _MS,
        seed=2,
    )
    assert r.ok, r.violations
    assert r.generated > 100
    assert r.generated == r.completed  # nothing shed, failed, or pending
    # Phase decomposition: every completion contributed one sample per
    # phase, and service time can never undercut the fixed service model.
    assert r.service_p99_ns >= 10_000
    assert r.p99_ns >= r.service_p99_ns
    # Both servers took traffic.
    assert all(v > 0 for v in r.server_served.values())


def test_runs_are_deterministic():
    import dataclasses

    kw = dict(
        n_clients=2,
        n_servers=2,
        arrival=ArrivalSpec(rate_rps=30_000),
        duration_ns=4 * _MS,
        seed=6,
    )
    assert dataclasses.asdict(run_serve(**kw)) == dataclasses.asdict(
        run_serve(**kw)
    )


def test_overload_sheds_explicitly():
    """Queue at capacity -> shed response + counter, never silent growth."""
    r = run_serve(
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(kind="poisson", rate_rps=50_000, batch=64),
        server=ServerSpec(queue_cap=2, workers=1, service=("fixed", 100_000)),
        duration_ns=5 * _MS,
        seed=4,
    )
    assert r.ok, r.violations
    assert r.shed > 0
    assert r.generated == r.completed + r.shed
    assert max(r.server_peak_queue.values()) <= 2
    assert r.shed_fraction > 0.3  # rate is ~5x service capacity


def test_client_outbox_cap_sheds_at_the_client():
    r = run_serve(
        config="1L-1G",
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(
            kind="poisson", rate_rps=80_000,
            request_bytes=("fixed", 4096), batch=64,
        ),
        server=ServerSpec(queue_cap=256, workers=4, service=("fixed", 1_000)),
        duration_ns=5 * _MS,
        outbox_cap=4,
        seed=8,
    )
    assert r.ok, r.violations
    assert r.shed_client > 0


def test_slo_report_and_windows():
    slo = SloSpec(p99_ms=5.0, max_shed_fraction=0.5)
    r = run_serve(
        n_clients=2,
        n_servers=2,
        arrival=ArrivalSpec(rate_rps=20_000),
        duration_ns=10 * _MS,
        window_ns=2 * _MS,
        slo=slo,
        seed=12,
    )
    assert r.ok, r.violations
    assert r.slo_attained is True
    assert "p99" in r.slo_clauses and "shed" in r.slo_clauses
    assert len(r.windows) >= 4
    assert sum(w["generated"] for w in r.windows) == r.generated
    assert sum(w["completed"] for w in r.windows) == r.completed
    assert all("attained" in w for w in r.windows)


def test_crash_replays_journal_and_recovers():
    r = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=40_000, batch=64),
        server=ServerSpec(queue_cap=64, workers=4, service=("fixed", 15_000)),
        duration_ns=30 * _MS,
        seed=14,
        faults=[
            Crash(at_ns=8 * _MS, node=3),
            Restart(at_ns=8 * _MS, node=3, delay_ns=4 * _MS),
        ],
    )
    assert r.ok, r.violations
    assert r.crashes == 1
    assert r.reconnects >= 1
    assert r.replayed > 0
    # The journal replay means the crash loses nothing.
    assert r.generated == r.completed
    # The crashed server served again after reconnect: its share of the
    # completions exceeds what it served before dying.
    assert r.server_served[3] > 0


def test_crash_with_backed_up_outbox_replays_each_request_once(monkeypatch):
    """A request that is both journaled and still queued in the outbox
    toward the dead server is one abandoned attempt, not two."""
    dispatched = Counter()
    real_dispatch = ServeRuntime._dispatch

    def counting_dispatch(self, req):
        dispatched[req.req_id] += 1
        real_dispatch(self, req)

    monkeypatch.setattr(ServeRuntime, "_dispatch", counting_dispatch)
    crash_ns = 2_054_649
    run = ServeRun(
        config="1L-10G",
        n_clients=1,
        n_servers=3,
        arrival=ArrivalSpec(
            kind="bursty",
            rate_rps=60_000,
            request_bytes=("uniform", 32, 1_024),
            response_bytes=("uniform", 64, 2_048),
            batch=64,
        ),
        server=ServerSpec(queue_cap=4, workers=4, service=("fixed", 20_000)),
        duration_ns=7_252_214,
        seed=91,
        outbox_cap=64,
        faults=[
            Crash(at_ns=crash_ns, node=2),
            Restart(at_ns=crash_ns, node=2, delay_ns=1_745_427),
        ],
    )
    backlog = []
    run.cluster.sim.at(
        crash_ns - 1,
        lambda: backlog.append(len(run.runtime.outboxes[(0, 2)].entries)),
    )
    r = run.finish()
    assert backlog[0] > 0, "the outbox toward the crashed server was empty"
    assert r.ok, r.violations
    # Two servers survive, so nothing parks: a request is dispatched once
    # on arrival and once more if its only attempt died with server 2.
    abandoned = [req_id for req_id, n in dispatched.items() if n > 1]
    assert max(dispatched.values()) == 2
    assert r.replayed == len(abandoned) > 0
    assert r.duplicate_responses <= r.replayed


def test_tail_none_does_no_tail_work(monkeypatch):
    """``tail=None`` on the serve_poisson_10g benchmark parameters: no
    hedge timer is ever armed and the hedge quantile is never fed."""
    calls = Counter()
    monkeypatch.setattr(
        ServeRuntime, "_maybe_hedge",
        lambda self, *args: calls.update(["hedge-timer"]),
    )
    monkeypatch.setattr(
        QuantileTracker, "record",
        lambda self, latency_ns: calls.update(["quantile-record"]),
    )
    run = ServeRun(
        "1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=110_000.0,
            request_bytes=("fixed", 96),
            response_bytes=("fixed", 128),
            batch=1024,
        ),
        server=ServerSpec(queue_cap=512, workers=8, service=("fixed", 2000)),
        duration_ns=6 * _MS,
        seed=0,
    )
    r = run.finish()
    assert r.ok and r.completed > 500
    assert not calls
    tail = run.runtime.tail
    assert tail.budget.earned == tail.budget.spent == 0
    assert not any(b.transitions for b in tail.breakers.values())
    assert not any(tail.ejector.samples.values())


def test_single_server_crash_parks_then_drains():
    """With no surviving server, requests park in the holding queue and
    drain when the crashed server reconnects."""
    r = run_serve(
        config="1L-10G",
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(kind="poisson", rate_rps=20_000, batch=64),
        server=ServerSpec(queue_cap=256, workers=4, service=("fixed", 5_000)),
        duration_ns=40 * _MS,
        seed=16,
        faults=[
            Crash(at_ns=10 * _MS, node=1),
            Restart(at_ns=10 * _MS, node=1, delay_ns=5 * _MS),
        ],
    )
    assert r.ok, r.violations
    assert r.crashes == 1 and r.reconnects >= 1
    assert r.generated == r.completed
    assert r.pending == 0


def test_monitor_reports_serve_invariant_breakage():
    """A cooked conservation violation surfaces through final_check."""
    run = ServeRun(
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(rate_rps=20_000),
        duration_ns=2 * _MS,
        seed=20,
        use_monitor=True,
    )
    horizon = run.recipe["duration_ns"]
    run.cluster.sim.run_until_time(horizon)
    run.cluster.sim.run(until=horizon + 100 * _MS)
    run.runtime.generated += 5  # cook the books
    monitor = run.monitor
    monitor.final_check()
    assert any("serve-invariant" in str(v) for v in monitor.violations)


@pytest.mark.parametrize("use_monitor", [False, True])
def test_a_serving_problem_is_reported_once(use_monitor):
    """With a monitor, its final check files the serve invariants itself;
    ``ServeResult.violations`` must not list them a second time."""
    run = ServeRun(
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(rate_rps=20_000),
        duration_ns=2 * _MS,
        seed=20,
        use_monitor=use_monitor,
    )
    run.runtime.generated += 1  # cook the books
    res = run.finish()
    assert not res.ok and len(res.violations) == 2, res.violations
    for clause in ("request-conservation", "arrival-accounting"):
        assert sum(clause in v for v in res.violations) == 1, res.violations


def test_reconnected_endpoints_run_the_configured_congestion_controller():
    """The cluster is built from the finished config, so the passive side
    of a post-crash reconnect (created by the listener from the stack's own
    parameters) runs the same controller as the dialing side."""
    run = ServeRun(
        config="1L-10G",
        n_clients=1,
        n_servers=1,
        arrival=ArrivalSpec(kind="poisson", rate_rps=20_000, batch=64),
        server=ServerSpec(queue_cap=256, workers=4, service=("fixed", 5_000)),
        duration_ns=40 * _MS,
        seed=16,
        congestion="dctcp",
        faults=[
            Crash(at_ns=10 * _MS, node=1),
            Restart(at_ns=10 * _MS, node=1, delay_ns=5 * _MS),
        ],
    )
    cluster = run.cluster
    assert {s.protocol.params.congestion for s in cluster.stacks} == {"dctcp"}
    before = {id(c) for s in cluster.stacks for c in s.protocol.connections.values()}
    r = run.finish()
    assert r.ok, r.violations
    assert r.crashes == 1 and r.reconnects >= 1
    fresh = [
        c
        for s in cluster.stacks
        for c in s.protocol.connections.values()
        if id(c) not in before
    ]
    assert {c.node.node_id for c in fresh} == {0, 1}  # both ends are new
    assert [c.congestion.name for c in fresh] == ["dctcp", "dctcp"]
