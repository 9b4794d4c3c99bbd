"""Gray-failure benchmarks: degraded replicas, tail tolerance, budgets.

Fail-stop faults are the easy case — the detector fires, the balancer
routes around the corpse.  Gray failures (a replica that is merely
*slow*) are where tails are made: nothing crashes, every health check
passes, and the p99 quietly triples.  This suite measures what
``repro.serve.tail`` buys back, recorded to ``BENCH_gray.json`` at the
repo root:

* **mitigation** — 16 servers under Poisson open-loop load with one
  replica running 10x slow (a ``SlowNode`` gray fault).  Three runs:
  clean baseline, degraded with no tail machinery, degraded with
  hedging + outlier ejection.  Acceptance floor: the mitigated run
  recovers >= 80% of the p99 regression the slow replica caused;
* **amplification** — 2x overload against bounded queues with
  shed-retries enabled.  The token-bucket retry budget must cap total
  attempts at <= 1.1x the fresh load (the classic retry-storm bound);
* **detection** — the differential gray scorer marks a throttled NIC's
  edge DEGRADED while the fault is active and clears it after, without
  a single DOWN transition (the rail is degraded, not dead);
* **gray fuzz grid** — randomized gray scenarios (five fault kinds x
  tail on/off x detection on/off x optional clean-node crash) under
  the invariant monitor: request conservation and the tail-accounting
  invariants must hold in every one.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_gray.py -k smoke``
  (tens of seconds; asserts every acceptance floor);
* full grid —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_gray.py -m slow``.
"""

import pytest
from conftest import record

from repro.bench.serve import ServeRun, run_serve
from repro.control import Crash, Restart, SlowNic, SlowNode
from repro.serve import ArrivalSpec, ServerSpec, TailSpec
from repro.verify.fuzz import run_family


_MS = 1_000_000

# Acceptance floors (ISSUE acceptance criteria).
MIN_P99_RECOVERY = 0.80  # hedging+ejection vs one 10x-slow replica
MAX_RETRY_AMPLIFICATION = 1.10  # attempts / fresh load at 2x overload
FUZZ_SMOKE_SEEDS = 200


# ---------------------------------------------------------------------------
# Mitigation: one slow replica out of 16
# ---------------------------------------------------------------------------

_N_CLIENTS = 4
_N_SERVERS = 16
_SLOW_SERVER = _N_CLIENTS  # first server rank
_DURATION_NS = 30 * _MS
_ARRIVAL = ArrivalSpec(
    kind="poisson",
    rate_rps=60_000,
    request_bytes=("fixed", 128),
    response_bytes=("fixed", 512),
    batch=256,
)
_SERVER = ServerSpec(queue_cap=64, workers=4, service=("exp", 40_000))
_SLOW_FAULT = [
    SlowNode(at_ns=2 * _MS, node=_SLOW_SERVER, duration_ns=26 * _MS,
             factor=10.0)
]


def _mitigation_run(faults, tail):
    return run_serve(
        config="1L-10G",
        n_clients=_N_CLIENTS,
        n_servers=_N_SERVERS,
        policy="least-outstanding",
        arrival=_ARRIVAL,
        server=_SERVER,
        duration_ns=_DURATION_NS,
        seed=42,
        faults=faults,
        tail=tail,
    )


def _point(r) -> dict:
    return {
        "generated": r.generated,
        "completed": r.completed,
        "shed": r.shed + r.shed_client,
        "p50_ms": round(r.p50_ns / 1e6, 4),
        "p99_ms": round(r.p99_ns / 1e6, 4),
        "p999_ms": round(r.p999_ns / 1e6, 4),
        "hedges_sent": r.hedges_sent,
        "hedges_won": r.hedges_won,
        "retries_sent": r.retries_sent,
        "ejections": r.ejections,
        "violations": len(r.violations),
    }


def test_gray_mitigation_smoke():
    """Hedging + ejection recover >= 80% of the slow-replica p99 hit."""
    base = _mitigation_run([], None)
    unmit = _mitigation_run(_SLOW_FAULT, None)
    mit = _mitigation_run(_SLOW_FAULT, TailSpec())
    for r in (base, unmit, mit):
        assert not r.violations, r.violations
        assert r.generated == r.completed + r.shed + r.shed_client + r.failed
    regression = unmit.p99_ns - base.p99_ns
    assert regression > 0, "the slow replica must actually hurt the p99"
    recovery = (unmit.p99_ns - mit.p99_ns) / regression
    record(
        "gray",
        {
            "mitigation": {
                "servers": _N_SERVERS,
                "slow_factor": 10.0,
                "baseline": _point(base),
                "unmitigated": _point(unmit),
                "mitigated": _point(mit),
                "p99_recovery": round(recovery, 4),
            }
        }
    )
    assert recovery >= MIN_P99_RECOVERY, (
        f"hedging+ejection recovered only {recovery:.1%} of the p99 "
        f"regression (floor {MIN_P99_RECOVERY:.0%}): "
        f"base {base.p99_ns} unmit {unmit.p99_ns} mit {mit.p99_ns}"
    )
    assert mit.hedges_sent > 0 and mit.hedges_won > 0
    assert mit.ejections >= 1, "the slow replica should be ejected"


# ---------------------------------------------------------------------------
# Amplification: the retry budget bounds the storm
# ---------------------------------------------------------------------------


def test_gray_retry_amplification_smoke():
    """At 2x overload, total attempts stay <= 1.1x the fresh load."""
    run = ServeRun(
        config="1L-10G",
        n_clients=2,
        n_servers=4,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=160_000,  # capacity is 4 servers x 2 workers / 100us
            request_bytes=("fixed", 128),
            response_bytes=("fixed", 256),
            batch=256,
        ),
        server=ServerSpec(queue_cap=4, workers=2, service=("fixed", 100_000)),
        duration_ns=20 * _MS,
        seed=7,
        tail=TailSpec(retry_budget=0.08, retry_burst=10),
    )
    res = run.finish()
    assert not res.violations, res.violations
    budget = run.runtime.tail.budget
    amplification = 1 + budget.spent / res.generated
    record(
        "gray",
        {
            "amplification": {
                "generated": res.generated,
                "completed": res.completed,
                "shed": res.shed + res.shed_client,
                "extra_attempts": budget.spent,
                "denied": budget.denied,
                "amplification": round(amplification, 4),
            }
        }
    )
    assert amplification <= MAX_RETRY_AMPLIFICATION, (
        f"retry amplification {amplification:.3f} exceeds the "
        f"{MAX_RETRY_AMPLIFICATION} bound"
    )
    assert budget.denied > 0, "2x overload must actually hit the budget"


# ---------------------------------------------------------------------------
# Detection: the differential scorer flags the sick edge, not the rail
# ---------------------------------------------------------------------------


def test_gray_detection_smoke():
    """A throttled NIC's edge goes DEGRADED and comes back — never DOWN."""
    run = ServeRun(
        config="2L-1G",
        n_clients=2,
        n_servers=3,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=20_000, batch=128),
        duration_ns=40 * _MS,
        seed=9,
        faults=[
            SlowNic(at_ns=5 * _MS, node=2, rail=0, duration_ns=25 * _MS,
                    factor=16.0)
        ],
        gray_detection=True,
        use_monitor=True,
    )
    res = run.finish()
    assert not res.violations, res.violations
    scorer = run.cluster.gray_scorer
    assert scorer.degrade_marks >= 1, "the throttled edge was never flagged"
    assert scorer.degrade_clears >= 1, "the flag never cleared after repair"
    assert not scorer.flagged, "no edge should stay DEGRADED at the end"
    history = [
        t
        for mgr in run.cluster.control_planes.values()
        for t in mgr.history
    ]
    assert any(t.new.value == "degraded" for t in history)
    assert not any(t.new.value == "down" for t in history), (
        "a gray fault must not escalate to DOWN"
    )
    record(
        "gray",
        {
            "detection": {
                "checks": scorer.checks,
                "degrade_marks": scorer.degrade_marks,
                "degrade_clears": scorer.degrade_clears,
            }
        }
    )


# ---------------------------------------------------------------------------
# Gray fuzz grid
# ---------------------------------------------------------------------------


def test_gray_fuzz_smoke():
    """Randomized gray scenarios: zero invariant violations across the grid."""
    failures = []
    kinds: dict = {}
    for seed in range(FUZZ_SMOKE_SEEDS):
        res = run_family("gray", seed)
        gray = [type(ev).__name__ for ev in res.recipe["faults"]
                if not isinstance(ev, (Crash, Restart))]
        for k in gray:
            kinds[k] = kinds.get(k, 0) + 1
        if not res.ok:
            failures.append((seed, gray, res.violations[:2]))
    record(
        "gray",
        {
            "fuzz": {
                "seeds": FUZZ_SMOKE_SEEDS,
                "failures": len(failures),
                "kind_coverage": kinds,
            }
        }
    )
    assert not failures, f"gray fuzz failures: {failures[:5]}"
    assert len(kinds) == 5, f"grid must exercise all five kinds: {kinds}"


@pytest.mark.slow
def test_gray_fuzz_full():
    """The wide grid (1000 seeds)."""
    failures = [
        s for s in range(1000) if not run_family("gray", s).ok
    ]
    assert not failures, f"gray fuzz failures at seeds {failures[:10]}"
