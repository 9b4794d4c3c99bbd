"""Open-loop arrival sources: batching, determinism, and rate fidelity."""

import numpy as np
import pytest

from repro.serve import ArrivalSpec, ArrivalSource
from repro.serve.arrivals import draw_size
from repro.sim import Simulator

_MS = 1_000_000


def _collect(spec, duration_ns, seed=0, **kw):
    sim = Simulator()
    out = []
    source = ArrivalSource(
        sim,
        np.random.default_rng(seed),
        spec,
        client=0,
        deliver=out.append,
        stop_at_ns=duration_ns,
        **kw,
    )
    source.start()
    sim.run(until=duration_ns)
    return source, out


def test_spec_validation():
    with pytest.raises(ValueError):
        ArrivalSpec(kind="constant")
    with pytest.raises(ValueError):
        ArrivalSpec(rate_rps=0)
    with pytest.raises(ValueError):
        ArrivalSpec(batch=0)


def test_draw_size_distributions():
    rng = np.random.default_rng(3)
    assert draw_size(rng, ("fixed", 777)) == 777
    for _ in range(200):
        assert 10 <= draw_size(rng, ("uniform", 10, 20)) <= 20
        assert draw_size(rng, ("exp", 100)) >= 1
    with pytest.raises(ValueError):
        draw_size(rng, ("zipf", 2))


def test_poisson_arrivals_are_deterministic():
    spec = ArrivalSpec(kind="poisson", rate_rps=50_000, batch=32)
    _, a = _collect(spec, 5 * _MS, seed=11)
    _, b = _collect(spec, 5 * _MS, seed=11)
    assert [r.t_arrival for r in a] == [r.t_arrival for r in b]
    assert [(r.req_bytes, r.resp_bytes) for r in a] == [
        (r.req_bytes, r.resp_bytes) for r in b
    ]
    _, c = _collect(spec, 5 * _MS, seed=12)
    assert [r.t_arrival for r in a] != [r.t_arrival for r in c]


def test_poisson_rate_is_honest():
    """Open-loop: the realized rate tracks the configured rate."""
    spec = ArrivalSpec(kind="poisson", rate_rps=100_000)
    _, reqs = _collect(spec, 50 * _MS, seed=5)
    expect = 100_000 * 50 * _MS / 1e9
    assert 0.9 * expect < len(reqs) < 1.1 * expect
    times = [r.t_arrival for r in reqs]
    assert times == sorted(times)
    assert all(0 <= t < 50 * _MS for t in times)


def test_single_armed_event_regardless_of_rate():
    """Batched generation: one pending scheduler event per source, with
    whole batches pre-drawn — never a timer per request."""
    spec = ArrivalSpec(kind="poisson", rate_rps=1_000_000, batch=64)
    sim = Simulator()
    out = []
    source = ArrivalSource(
        sim, np.random.default_rng(1), spec, client=0,
        deliver=out.append, stop_at_ns=10 * _MS,
    )
    source.start()
    assert source.armed
    assert source.pending_batch == 64
    sim.run(until=100_000)
    # ~100 arrivals in; still exactly one armed event, and the pending
    # batch shrinks monotonically until the next refill.
    assert source.armed
    assert len(out) > 50
    assert source.batches_generated >= 1
    assert 0 <= source.pending_batch <= 64


def test_stop_at_cuts_arrivals_exactly():
    spec = ArrivalSpec(kind="poisson", rate_rps=80_000)
    source, reqs = _collect(spec, 2 * _MS, seed=9)
    assert all(r.t_arrival < 2 * _MS for r in reqs)
    assert not source.armed
    assert source.pending_batch == 0  # stopped sources hold no batch


def test_max_requests_cap():
    spec = ArrivalSpec(kind="poisson", rate_rps=80_000)
    source, reqs = _collect(spec, 50 * _MS, max_requests=17)
    assert len(reqs) == 17
    assert source.generated == 17
    assert not source.armed


def test_req_ids_are_sequential_from_base():
    spec = ArrivalSpec(kind="poisson", rate_rps=50_000)
    _, reqs = _collect(spec, 2 * _MS, req_id_base=1 << 40)
    assert [r.req_id for r in reqs] == [
        (1 << 40) + i for i in range(len(reqs))
    ]


def test_bursty_modulates_rate():
    """MMPP(2): the on-phase rate shows up as bursts — more arrivals
    than the base rate alone, fewer than the burst rate sustained."""
    base = ArrivalSpec(kind="poisson", rate_rps=10_000)
    burst = ArrivalSpec(
        kind="bursty",
        rate_rps=10_000,
        burst_rate_rps=200_000,
    )
    _, base_reqs = _collect(base, 40 * _MS, seed=21)
    _, burst_reqs = _collect(burst, 40 * _MS, seed=21)
    assert len(burst_reqs) > 1.5 * len(base_reqs)
    assert len(burst_reqs) < 200_000 * 40 * _MS / 1e9


def test_bursty_is_deterministic_across_batches():
    """Phase state persists across batch refills without drift."""
    spec = ArrivalSpec(
        kind="bursty", rate_rps=50_000, burst_rate_rps=200_000, batch=16
    )
    src_a, a = _collect(spec, 20 * _MS, seed=2)
    src_b, b = _collect(spec, 20 * _MS, seed=2)
    assert [r.t_arrival for r in a] == [r.t_arrival for r in b]
    assert src_a.batches_generated == src_b.batches_generated
    assert src_a.batches_generated > 1  # the run crossed refills


def test_stop_disarms_pending_event():
    spec = ArrivalSpec(kind="poisson", rate_rps=10_000)
    sim = Simulator()
    out = []
    source = ArrivalSource(
        sim, np.random.default_rng(4), spec, client=0, deliver=out.append
    )
    source.start()
    source.stop()
    sim.run(until=10 * _MS)
    assert out == []
    assert not source.armed
