#!/usr/bin/env python
"""A gray replica drags the p99; tail tolerance buys it back.

Fail-stop crashes are the easy case — the detector fires and the
balancer routes around the corpse (see ``examples/serving.py``).  This
example shows the harder one: a replica that stays *alive* but runs 10x
slow.  Every heartbeat still answers, so no failure detector ever
fires; only the tail latency knows something is wrong.

The same open-loop load runs three times:

* **baseline** — every replica healthy;
* **gray, unmitigated** — one replica slowed 10x mid-run.  The p99
  explodes even though 7 of 8 replicas are perfectly fine, because an
  open-loop client keeps hitting the sick one;
* **gray, mitigated** — hedged requests, a token-bucket retry budget,
  circuit breakers and differential outlier ejection
  (``repro.serve.tail``).  Hedges race a second copy against the slow
  replica and the ejector kicks it out of the pool, recovering most of
  the p99 regression.

A final run turns on the *differential gray scorer* against a throttled
NIC: the sick edge is marked DEGRADED while the fault is active and
cleared after — without a single DOWN transition, because gray faults
degrade hardware, they don't kill it.

Run:  python examples/gray_failure.py
"""

from repro.bench.serve import ServeRun, run_serve
from repro.control import GrayScorer, SlowNic, SlowNode
from repro.serve import ArrivalSpec, ServerSpec, TailSpec

MS = 1_000_000

# Shrunk by the smoke test; the defaults here match the benchmark scale.
RATE_RPS = 30_000
DURATION_NS = 20 * MS
SLOW_FACTOR = 10.0
N_SERVERS = 8


def serve(faults, tail):
    return run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=N_SERVERS,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=RATE_RPS,
            request_bytes=("fixed", 128),
            response_bytes=("fixed", 512),
            batch=128,
        ),
        server=ServerSpec(queue_cap=64, workers=4, service=("exp", 40_000)),
        duration_ns=DURATION_NS,
        seed=11,
        faults=faults,
        tail=tail,
    )


def gray_fault():
    # The replica goes gray shortly after warmup and stays gray until
    # just before the end of the run.
    return [
        SlowNode(
            at_ns=2 * MS,
            node=2,  # first server rank
            duration_ns=DURATION_NS - 3 * MS,
            factor=SLOW_FACTOR,
        )
    ]


def report(label, result):
    conserved = result.generated == (
        result.completed + result.shed + result.shed_client + result.failed
    )
    print(f"--- {label} ---")
    print(
        f"latency : p50={result.p50_ns / MS:.3f}ms  "
        f"p99={result.p99_ns / MS:.3f}ms"
    )
    print(
        f"tail    : hedges sent={result.hedges_sent} "
        f"won={result.hedges_won}  ejected={result.ejections}  "
        f"retries denied={result.retries_denied}"
    )
    print(
        f"books   : generated={result.generated} "
        f"completed={result.completed}  conserved={conserved}  "
        f"invariant violations={len(result.violations)}"
    )


def detection():
    print("--- gray detection: a throttled NIC, scored against its peers ---")
    run = ServeRun(
        config="2L-1G",
        n_clients=2,
        n_servers=3,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=20_000, batch=128),
        duration_ns=40 * MS,
        seed=9,
        faults=[
            SlowNic(at_ns=5 * MS, node=2, rail=0, duration_ns=25 * MS,
                    factor=16.0)
        ],
        gray_detection=True,
        use_monitor=True,
    )
    res = run.finish()
    scorer = run.cluster.layer(GrayScorer)
    transitions = [
        t
        for mgr in run.cluster.control_planes.values()
        for t in mgr.history
    ]
    degraded = sum(1 for t in transitions if t.new.value == "degraded")
    down = sum(1 for t in transitions if t.new.value == "down")
    print(
        f"scorer  : checks={scorer.checks}  marks={scorer.degrade_marks}  "
        f"clears={scorer.degrade_clears}  still flagged={len(scorer.flagged)}"
    )
    print(
        f"edges   : DEGRADED transitions={degraded}  DOWN transitions={down}"
        f"  invariant violations={len(res.violations)}"
    )


def main():
    print(
        f"open-loop poisson load, {RATE_RPS} rps, {N_SERVERS} servers, "
        f"one replica {SLOW_FACTOR:.0f}x slow mid-run"
    )
    base = serve([], None)
    report("baseline: all replicas healthy", base)
    print()
    unmit = serve(gray_fault(), None)
    report("gray, unmitigated: the slow replica owns the p99", unmit)
    print()
    mit = serve(gray_fault(), TailSpec())
    report("gray, mitigated: hedging + ejection + retry budget", mit)
    print()
    regression = unmit.p99_ns - base.p99_ns
    recovery = (unmit.p99_ns - mit.p99_ns) / regression if regression else 0.0
    print(
        f"p99 regression {regression / MS:.3f}ms, "
        f"recovered {recovery:.0%} of it"
    )
    print()
    detection()


if __name__ == "__main__":
    main()
