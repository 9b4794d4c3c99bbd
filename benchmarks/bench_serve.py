"""Serving-layer benchmarks: open-loop load, tail latency, SLO attainment.

Measures what ``repro.serve`` delivers on the request/response patterns
the ROADMAP's north star describes (heavy traffic from millions of
users), recorded to ``BENCH_serve.json`` at the repo root:

* **steady state** — Poisson open-loop load on a 2-client/2-server
  cluster per load-balancing policy, with a latency SLO attached.
  Acceptance floors: the SLO attains, nothing is shed, and request
  conservation holds;
* **overload** — arrivals far beyond service capacity with a tiny
  server queue.  The bounded queue must shed (not silently grow), and
  the shed fraction must be substantial;
* **incast** — 16 clients converging on one server, DCTCP+ECN versus
  the static window.  Acceptance floor: DCTCP's p99 is strictly better
  (composed scenario from the congestion subsystem);
* **crash under load** — a server crashes mid-load and restarts; the
  client journal replays its in-flight requests and per-window SLO
  attainment recovers after reconnect;
* **determinism** — the same configuration twice yields byte-identical
  results.

The slow tier adds the **volume** point (>= 100k open-loop requests in
bounded wall-clock, the ISSUE acceptance criterion) and a **failover
during a traffic spike** on a 3:1-oversubscribed leaf-spine fabric.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -k smoke``
  (tens of seconds; asserts the acceptance floors);
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -m slow``.
"""

import dataclasses
import json

import pytest
from conftest import record

from repro.analysis import SloSpec
from repro.bench.serve import run_serve
from repro.control import Crash, Restart
from repro.fabric import LeafSpineSpec
from repro.serve import POLICIES, ArrivalSpec, ServerSpec


_MS = 1_000_000

# Acceptance floors (ISSUE acceptance criteria).
MIN_OVERLOAD_SHED_FRACTION = 0.10  # bounded queues must actually shed
VOLUME_MIN_REQUESTS = 100_000  # open-loop volume point (slow tier)

STEADY_SLO = SloSpec(p50_ms=1.0, p99_ms=5.0, p999_ms=20.0)


def _point(r) -> dict:
    """Flatten a ServeResult into the JSON row the report stores."""
    return {
        "config": r.config,
        "policy": r.policy,
        "arrival": r.arrival_kind,
        "clients": r.clients,
        "servers": r.servers,
        "generated": r.generated,
        "completed": r.completed,
        "shed": r.shed + r.shed_client,
        "failed": r.failed,
        "replayed": r.replayed,
        "shed_fraction": round(r.shed_fraction, 4),
        "p50_ms": round(r.p50_ns / _MS, 3),
        "p99_ms": round(r.p99_ns / _MS, 3),
        "p999_ms": round(r.p999_ns / _MS, 3),
        "mean_ms": round(r.mean_ns / _MS, 3),
        "queueing_p99_ms": round(r.queueing_p99_ns / _MS, 3),
        "service_p99_ms": round(r.service_p99_ns / _MS, 3),
        "network_p99_ms": round(r.network_p99_ns / _MS, 3),
        "slo_attained": r.slo_attained,
        "crashes": r.crashes,
        "reconnects": r.reconnects,
        "violations": list(r.violations),
    }


def test_serve_smoke():
    """Policy sweep + overload + incast + crash recovery + determinism."""
    report = {}

    # Steady state, per policy, under an SLO.
    steady = []
    for policy in POLICIES:
        r = run_serve(
            config="1L-10G",
            n_clients=2,
            n_servers=2,
            policy=policy,
            arrival=ArrivalSpec(
                kind="poisson",
                rate_rps=50_000,
                request_bytes=("uniform", 64, 512),
                response_bytes=("uniform", 128, 1024),
                batch=256,
            ),
            server=ServerSpec(queue_cap=128, workers=4,
                              service=("exp", 10_000)),
            duration_ns=20 * _MS,
            slo=STEADY_SLO,
            seed=3,
        )
        assert r.ok, f"{policy}: {r.violations}"
        assert r.generated == r.completed, (
            f"{policy}: {r.generated} generated but only {r.completed} "
            f"completed in steady state"
        )
        assert r.slo_attained, (
            f"{policy}: steady-state SLO missed — clauses {r.slo_clauses}"
        )
        assert r.shed_fraction == 0.0
        steady.append(_point(r))
    report["steady_state_1L_10G"] = steady

    # Overload: arrivals far beyond capacity, tiny bounded queue.
    r = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=1,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=60_000, batch=256),
        server=ServerSpec(queue_cap=4, workers=1, service=("fixed", 40_000)),
        duration_ns=10 * _MS,
        seed=5,
    )
    assert r.ok, r.violations
    assert r.shed_fraction >= MIN_OVERLOAD_SHED_FRACTION, (
        f"overload shed only {r.shed_fraction:.1%}; the bounded queue is "
        f"not exercising load-shed at all"
    )
    report["overload_1L_10G"] = _point(r)

    # Incast 16:1 — DCTCP versus the static window (acceptance floor).
    def incast(congestion, ecn):
        return run_serve(
            config="1L-1G",
            n_clients=16,
            n_servers=1,
            policy="round-robin",
            arrival=ArrivalSpec(
                kind="bursty",
                rate_rps=9_000,
                request_bytes=("fixed", 8192),
                response_bytes=("fixed", 128),
                batch=128,
            ),
            server=ServerSpec(queue_cap=256, workers=4,
                              service=("fixed", 5_000)),
            duration_ns=12 * _MS,
            seed=7,
            congestion=congestion,
            ecn_threshold_frames=ecn,
        )

    static = incast("static", None)
    dctcp = incast("dctcp", 32)
    assert static.ok and dctcp.ok
    assert dctcp.p99_ns < static.p99_ns, (
        f"DCTCP p99 {dctcp.p99_ns / _MS:.2f} ms is not strictly better "
        f"than static {static.p99_ns / _MS:.2f} ms under 16:1 incast"
    )
    report["incast_16to1_1L_1G"] = {
        "static": _point(static),
        "dctcp_ecn32": _point(dctcp),
        "p99_improvement": round(1 - dctcp.p99_ns / static.p99_ns, 4),
    }

    # Crash mid-load: journal replay + windowed SLO recovery.
    crash = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=40_000, batch=256),
        server=ServerSpec(queue_cap=128, workers=4,
                          service=("fixed", 15_000)),
        duration_ns=40 * _MS,
        window_ns=5 * _MS,
        slo=SloSpec(p99_ms=1.0),
        seed=11,
        faults=[
            Crash(at_ns=12 * _MS, node=3),
            Restart(at_ns=12 * _MS, node=3, delay_ns=6 * _MS),
        ],
    )
    assert crash.ok, crash.violations
    assert crash.crashes == 1 and crash.reconnects >= 1
    assert crash.replayed > 0, "no in-flight request was ever replayed"
    assert crash.generated == crash.completed, (
        "crash-mid-load run lost requests despite journal replay"
    )
    # SLO attainment recovers after the reconnect: the final window is
    # as good as the pre-crash windows.
    windows = crash.windows
    assert windows, "windowed accounting produced no rows"
    pre_crash = [w for w in windows if w["t0_ms"] < 12.0 and w["completed"]]
    post = [w for w in windows if w["t0_ms"] >= 20.0 and w["completed"]]
    assert pre_crash and post
    assert all(w["attained"] for w in pre_crash)
    assert all(w["attained"] for w in post), (
        f"SLO did not recover after reconnect: {post}"
    )
    report["crash_mid_load_1L_10G"] = {
        **_point(crash),
        "windows": windows,
    }

    # Determinism witness: same parameters, same bytes.
    again = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=40_000, batch=256),
        server=ServerSpec(queue_cap=128, workers=4,
                          service=("fixed", 15_000)),
        duration_ns=40 * _MS,
        window_ns=5 * _MS,
        slo=SloSpec(p99_ms=1.0),
        seed=11,
        faults=[
            Crash(at_ns=12 * _MS, node=3),
            Restart(at_ns=12 * _MS, node=3, delay_ns=6 * _MS),
        ],
    )
    assert dataclasses.asdict(again) == dataclasses.asdict(crash), (
        "identical serving configurations diverged"
    )

    record("serve", report)
    print(json.dumps(report, indent=2))


@pytest.mark.slow
def test_serve_volume_full():
    """>= 100k open-loop requests complete in bounded wall-clock."""
    r = run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=110_000,
            request_bytes=("fixed", 96),
            response_bytes=("fixed", 128),
            batch=1024,
        ),
        server=ServerSpec(queue_cap=512, workers=8, service=("fixed", 2_000)),
        duration_ns=470 * _MS,
        seed=9,
    )
    assert r.ok, r.violations
    assert r.generated >= VOLUME_MIN_REQUESTS, (
        f"volume point generated only {r.generated} requests "
        f"(floor {VOLUME_MIN_REQUESTS})"
    )
    assert r.completed == r.generated
    record("serve", {"volume_1L_10G": _point(r)})


@pytest.mark.slow
def test_serve_spike_failover_full():
    """Server failover during a traffic spike on a 3:1 leaf-spine fabric."""
    r = run_serve(
        config="1L-1G",
        n_clients=3,
        n_servers=3,
        policy="leaf-affinity",
        arrival=ArrivalSpec(
            kind="bursty",
            rate_rps=8_000,
            burst_rate_rps=40_000,
            request_bytes=("uniform", 256, 2048),
            response_bytes=("uniform", 256, 2048),
            batch=128,
        ),
        server=ServerSpec(queue_cap=64, workers=2, service=("exp", 25_000)),
        duration_ns=40 * _MS,
        window_ns=5 * _MS,
        seed=13,
        # 3 hosts per leaf share 1 spine uplink: 3:1 oversubscription.
        fabric=LeafSpineSpec(leaves=2, spines=1, hosts_per_leaf=3),
        faults=[
            Crash(at_ns=15 * _MS, node=4),
            Restart(at_ns=15 * _MS, node=4, delay_ns=5 * _MS),
        ],
    )
    assert r.ok, r.violations
    assert r.crashes == 1 and r.reconnects >= 1
    assert r.failed == 0, "failover lost requests"
    assert r.generated == r.completed + r.shed + r.shed_client
    record("serve", {"spike_failover_leaf_spine_3to1": _point(r)})
