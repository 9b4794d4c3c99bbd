"""The post-run drain is bounded even when a crash beats detection.

A server that dies just before the run ends leaves the failure detector
mid-escalation: PEER_DOWN never fires, survivor-side connections keep
retransmitting into the void, and without a bound the drain would spin
forever.  ``ServeRun.finish()`` caps the drain at ``drain_grace_ns``
past the nominal duration; request accounting must still close because
crash replay is driven by the recovery manager, not by detection.
"""

from repro.bench.serve import ServeRun
from repro.control import Crash, Restart
from repro.serve import ArrivalSpec, ServerSpec

MS = 1_000_000

_ARRIVAL = ArrivalSpec(kind="poisson", rate_rps=20_000, batch=64)
_SERVER = ServerSpec(queue_cap=32, workers=2, service=("fixed", 50_000))


def _conserved(res):
    return res.generated == (
        res.completed + res.shed + res.shed_client + res.failed
    )


def test_late_crash_drain_is_bounded():
    # Crash 2ms before the end: inside the detector's escalation window,
    # so PEER_DOWN never fires before traffic stops.
    run = ServeRun(
        config="1L-1G",
        n_clients=2,
        n_servers=2,
        policy="round-robin",
        arrival=_ARRIVAL,
        server=_SERVER,
        duration_ns=10 * MS,
        seed=6,
        faults=[
            Crash(at_ns=8 * MS, node=3),
            Restart(at_ns=8 * MS, node=3, delay_ns=1 * MS),
        ],
        use_monitor=True,
        drain_grace_ns=50 * MS,
    )
    res = run.finish()
    assert res.elapsed_ns <= 10 * MS + 50 * MS
    assert not res.violations, res.violations
    assert _conserved(res), (
        res.generated, res.completed, res.shed, res.shed_client, res.failed
    )
    assert res.generated > 0 and res.completed > 0


def test_late_crash_without_restart_drain_is_bounded():
    # No restart at all: the dead server stays dead through the drain.
    run = ServeRun(
        config="1L-1G",
        n_clients=2,
        n_servers=2,
        policy="round-robin",
        arrival=_ARRIVAL,
        server=_SERVER,
        duration_ns=10 * MS,
        seed=6,
        faults=[Crash(at_ns=8 * MS, node=3)],
        use_monitor=True,
        drain_grace_ns=50 * MS,
    )
    res = run.finish()
    assert res.elapsed_ns <= 10 * MS + 50 * MS
    assert not res.violations, res.violations
    assert _conserved(res)
    # Work aimed at the corpse was failed or replayed, never leaked.
    assert res.pending == 0


def test_clean_run_needs_only_inflight_grace():
    # Without a late crash the drain only has to cover the last requests
    # still in flight at the cutoff — a couple of milliseconds, not the
    # 50ms escalation-sized window the crash cases lean on.
    run = ServeRun(
        config="1L-1G",
        n_clients=2,
        n_servers=2,
        policy="round-robin",
        arrival=_ARRIVAL,
        server=_SERVER,
        duration_ns=10 * MS,
        seed=6,
        use_monitor=True,
        drain_grace_ns=2 * MS,
    )
    res = run.finish()
    assert res.elapsed_ns <= 12 * MS
    assert not res.violations, res.violations
    assert _conserved(res)
