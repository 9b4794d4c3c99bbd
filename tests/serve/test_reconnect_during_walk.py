"""A reconnect that lands while a TX-completion walk is pumping.

The kernel thread's walk over the connections with send work used to
iterate ``MultiEdgeProtocol.connections`` itself; a reconnect that created
a connection while an earlier connection's pump held the CPU raised
``dictionary changed size during iteration`` in ``node1.kernel.kthread``.
The walk now visits the connections with queued work in creation order and
never iterates the dict across a yield.
"""

from repro.bench.serve import ServeRun
from repro.control import Crash, Restart
from repro.serve import ArrivalSpec

MS = 1_000_000


def test_reconnect_during_completion_walk_finishes_ok():
    run = ServeRun(
        "1L-1G",
        n_clients=3,
        n_servers=3,
        arrival=ArrivalSpec(kind="poisson", rate_rps=60_000, batch=64),
        duration_ns=10 * MS,
        congestion="dctcp",
        ecn_threshold_frames=16,
        use_monitor=True,
        faults=[Crash(4 * MS, 5), Restart(4 * MS, 5, MS)],
        seed=0,
    )
    res = run.finish()
    assert res.ok, res.violations
    assert (res.generated, res.completed, res.pending) == (1824, 1824, 0)
    assert (res.crashes, res.reconnects) == (1, 3)
