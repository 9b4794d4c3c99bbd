"""Tail-tolerance machinery: budget, breakers, ejection, hedging.

Unit tests pin each mechanism's contract in isolation — the token
bucket's amplification bound, the breaker's legal state machine, the
ejector's differential judgement and fail-open cap — then an
integration test drives the full serving stack against a gray replica
and checks that hedging actually buys the p99 back without breaking
request conservation.
"""

import pytest

from repro.bench.serve import run_serve
from repro.control import SlowNode
from repro.serve import ArrivalSpec, ServerSpec, TailSpec
from repro.serve.tail import (
    BREAKER_CLOSED,
    BREAKER_FAILURES,
    BREAKER_HALF_OPEN,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_OPEN,
    BREAKER_OPEN_NS,
    EJECT_FACTOR,
    EJECT_MIN_SAMPLES,
    EJECT_NS,
    HEDGE_MAX_DELAY_NS,
    HEDGE_MIN_DELAY_NS,
    HEDGE_WARMUP,
    MAX_EJECT_FRACTION,
    CircuitBreaker,
    OutlierEjector,
    QuantileTracker,
    RetryBudget,
    TailController,
)

MS = 1_000_000


# ---------------------------------------------------------------------------
# TailSpec validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TailSpec(retry_budget=-0.1)


# ---------------------------------------------------------------------------
# RetryBudget
# ---------------------------------------------------------------------------


def test_budget_starts_with_burst_and_caps_there():
    b = RetryBudget(ratio=0.1, burst=3)
    assert [b.try_spend() for _ in range(3)] == [True, True, True]
    assert not b.try_spend()  # bucket dry
    assert b.spent == 3 and b.denied == 1
    b.on_fresh(1000)  # earnings cap at the burst depth
    assert b.tokens == 3.0
    assert b.earned == 1000


def test_budget_earn_ratio():
    b = RetryBudget(ratio=0.1, burst=100)
    b.tokens = 0.0
    b.on_fresh(9)
    assert not b.try_spend()  # 0.9 tokens: not yet a whole attempt
    b.on_fresh(1)
    assert b.try_spend()  # 1.0 tokens
    assert not b.try_spend()
    assert b.denied == 2


def test_budget_amplification_bound():
    # spent can never exceed burst + ratio * earned, however hard we try.
    b = RetryBudget(ratio=0.05, burst=5)
    for _ in range(1000):
        b.on_fresh()
        b.try_spend()
        b.try_spend()
    assert b.spent <= b.burst + b.ratio * b.earned


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


def _open(br):
    """Fail ``br`` BREAKER_FAILURES times in a row; returns the opening time."""
    for t in range(1, BREAKER_FAILURES + 1):
        br.on_failure(t)
    assert br.state == BREAKER_OPEN
    return BREAKER_FAILURES


def test_breaker_opens_after_consecutive_failures():
    br = CircuitBreaker()
    for t in range(1, BREAKER_FAILURES):
        br.on_failure(t)
    assert br.state == BREAKER_CLOSED
    br.on_success(BREAKER_FAILURES)  # success resets the streak
    for t in range(BREAKER_FAILURES):
        assert br.state == BREAKER_CLOSED
        br.on_failure(BREAKER_FAILURES + 1 + t)
    assert br.state == BREAKER_OPEN
    assert br.opens == 1
    assert not br.allow(br.opened_at + BREAKER_OPEN_NS - 1)  # still open


def test_breaker_half_open_probe_accounting():
    br = CircuitBreaker()
    t = _open(br) + BREAKER_OPEN_NS
    assert br.allow(t)  # open window elapsed -> HALF_OPEN
    assert br.state == BREAKER_HALF_OPEN
    assert BREAKER_HALF_OPEN_PROBES == 2
    br.note_dispatch(t)
    assert br.allow(t)  # one probe left
    br.note_dispatch(t)
    assert not br.allow(t)  # probes exhausted, no verdict yet
    br.on_success(t + 1)
    assert br.state == BREAKER_CLOSED
    assert br.allow(t + 1)


def test_breaker_half_open_failure_reopens():
    br = CircuitBreaker()
    t = _open(br) + BREAKER_OPEN_NS
    assert br.allow(t)
    br.note_dispatch(t)
    br.on_failure(t + 1)
    assert br.state == BREAKER_OPEN
    assert br.opens == 2
    assert br.opened_at == t + 1  # the open window restarts


def test_breaker_transitions_all_legal():
    br = CircuitBreaker()
    t = _open(br) + BREAKER_OPEN_NS
    br.allow(t)
    br.note_dispatch(t)
    br.on_failure(t + 1)
    br.allow(br.opened_at + BREAKER_OPEN_NS)
    br.on_success(br.opened_at + BREAKER_OPEN_NS + 1)
    from repro.serve.tail import LEGAL_BREAKER_TRANSITIONS

    assert len(br.transitions) == 5
    for _, old, new in br.transitions:
        assert (old, new) in LEGAL_BREAKER_TRANSITIONS


# ---------------------------------------------------------------------------
# OutlierEjector
# ---------------------------------------------------------------------------


def _feed(ej, server, latency, n, now):
    for _ in range(n):
        ej.on_sample(server, latency, now)


def test_ejector_flags_the_slow_server():
    assert EJECT_FACTOR == 2.0
    ej = OutlierEjector(servers=[1, 2, 3, 4])
    for s in (1, 2, 3):
        _feed(ej, s, 100_000, EJECT_MIN_SAMPLES, now=1 * MS)
    _feed(ej, 4, 500_000, EJECT_MIN_SAMPLES - 1, now=1 * MS)
    assert not ej.is_ejected(4, 1 * MS)  # too few samples to judge yet
    _feed(ej, 4, 500_000, 1, now=1 * MS)
    assert ej.is_ejected(4, 2 * MS)
    assert not any(ej.is_ejected(s, 2 * MS) for s in (1, 2, 3))
    assert ej.ejections == 1


def test_ejector_expiry_forgets_gray_history():
    ej = OutlierEjector(servers=[1, 2, 3, 4])
    for s in (1, 2, 3):
        _feed(ej, s, 100_000, EJECT_MIN_SAMPLES, now=0)
    _feed(ej, 4, 900_000, EJECT_MIN_SAMPLES, now=0)
    assert ej.is_ejected(4, EJECT_NS - 1)
    assert not ej.is_ejected(4, EJECT_NS)  # expired
    # Post-recovery the server is judged fresh, not on the gray EWMA.
    assert ej.samples[4] == 0 and ej.ewma[4] == 0.0


def test_ejector_fraction_cap():
    # MAX_EJECT_FRACTION=0.5 of a 4-pool allows at most 2 ejections.
    assert MAX_EJECT_FRACTION == 0.5
    ej = OutlierEjector(servers=[1, 2, 3, 4])
    _feed(ej, 1, 100_000, EJECT_MIN_SAMPLES, now=0)
    _feed(ej, 2, 100_000, EJECT_MIN_SAMPLES, now=0)
    _feed(ej, 3, 900_000, EJECT_MIN_SAMPLES, now=0)
    _feed(ej, 4, 900_000, EJECT_MIN_SAMPLES, now=0)
    ejected = [s for s in (1, 2, 3, 4) if ej.is_ejected(s, 1)]
    assert len(ejected) <= 2
    assert 1 not in ejected and 2 not in ejected


def test_ejector_needs_peers():
    ej = OutlierEjector(servers=[1, 2])
    _feed(ej, 1, 900_000, EJECT_MIN_SAMPLES + 5, now=0)  # one judged: no median
    assert not ej.is_ejected(1, 1)


# ---------------------------------------------------------------------------
# QuantileTracker
# ---------------------------------------------------------------------------


def test_quantile_tracker_tracks_p95():
    qt = QuantileTracker(95.0)
    for i in range(1, 101):
        qt.record(i * 1_000)
    assert qt.total == 100
    v = qt.value()
    assert 90_000 <= v <= 101_000


# ---------------------------------------------------------------------------
# TailController composition
# ---------------------------------------------------------------------------


def test_filter_candidates_fails_open():
    ctl = TailController(TailSpec(), servers=[1, 2])
    _open(ctl.breakers[1])
    _open(ctl.breakers[2])
    # Every breaker open: filtering must fall back to the full pool.
    out = ctl.filter_candidates({1, 2}, now=BREAKER_FAILURES + 1)
    assert out == {1, 2}
    assert ctl.fail_open == 1


def test_filter_candidates_drops_open_breaker():
    ctl = TailController(TailSpec(), servers=[1, 2])
    _open(ctl.breakers[2])
    assert ctl.filter_candidates({1, 2}, now=BREAKER_FAILURES + 1) == {1}


def test_hedge_delay_warmup_and_clamp():
    ctl = TailController(TailSpec(), servers=[1])
    for _ in range(HEDGE_WARMUP - 1):
        ctl.on_success(1, 50_000, now=0)
    assert ctl.hedge_delay_ns() is None  # not warmed up
    for _ in range(40 - HEDGE_WARMUP + 1):
        ctl.on_success(1, 50_000, now=0)
    assert ctl.hedge_delay_ns() == HEDGE_MIN_DELAY_NS  # clamped up to the floor
    for _ in range(40):
        ctl.on_success(1, 50 * HEDGE_MAX_DELAY_NS, now=0)
    assert ctl.hedge_delay_ns() == HEDGE_MAX_DELAY_NS  # clamped down to the ceiling


def test_hedge_disabled_returns_none():
    ctl = TailController(TailSpec(hedge=False), servers=[1])
    for _ in range(100):
        ctl.on_success(1, 500_000, now=0)
    assert ctl.hedge_delay_ns() is None


# ---------------------------------------------------------------------------
# Integration: hedging against a gray replica
# ---------------------------------------------------------------------------


def _gray_run(tail):
    return run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=8,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=30_000,
                            request_bytes=("fixed", 128),
                            response_bytes=("fixed", 512), batch=128),
        server=ServerSpec(queue_cap=64, workers=4, service=("exp", 40_000)),
        duration_ns=12 * MS,
        seed=11,
        faults=[SlowNode(at_ns=2 * MS, node=2, duration_ns=9 * MS,
                         factor=10.0)],
        tail=tail,
    )


def test_hedging_recovers_tail_and_conserves_requests():
    unmit = _gray_run(None)
    mit = _gray_run(TailSpec())
    for r in (unmit, mit):
        assert not r.violations, r.violations
        assert r.generated == (
            r.completed + r.shed + r.shed_client + r.failed
        )
    assert mit.hedges_sent > 0
    assert mit.hedges_won > 0
    # Duplicate (losing) responses were absorbed, not double-counted.
    assert mit.duplicate_responses > 0
    assert mit.p99_ns < unmit.p99_ns
