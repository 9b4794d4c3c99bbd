#!/usr/bin/env python
"""An RPC serving cluster under open-loop load, with a crash mid-run.

Clients drive seeded Poisson arrivals (open-loop: the generators never
slow down because the servers are busy) at bounded-queue servers behind
a least-outstanding load balancer, and a server crashes mid-run.  The
example runs the same load twice:

* **replicated** — two servers.  The crash notification re-dispatches
  every in-flight request to the survivor synchronously, so every SLO
  window stays attained: failover hides the outage from the tail;
* **single replica** — nowhere to fail over.  Requests park in the
  client's holding queue until the server restarts and reconnects, with
  latency still measured from the *original* arrival, so the outage
  shows up as missed windows — and the windows after reconnect recover.

Both runs conserve every request (generated == completed + shed): the
client-side journal replays whatever the crash swallowed.

Run:  python examples/serving.py
"""

from repro.analysis import SloSpec
from repro.bench.serve import run_serve
from repro.control import Crash, Restart
from repro.serve import ArrivalSpec, ServerSpec

MS = 1_000_000

# Shrunk by the smoke test; the defaults here match the benchmark.
RATE_RPS = 30_000
DURATION_NS = 40 * MS
CRASH_NS = 12 * MS
RESTART_DELAY_NS = 8 * MS


def serve(n_servers: int):
    return run_serve(
        config="1L-10G",
        n_clients=2,
        n_servers=n_servers,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=RATE_RPS,
            request_bytes=("uniform", 64, 512),
            response_bytes=("uniform", 128, 1024),
            batch=256,
        ),
        server=ServerSpec(queue_cap=256, workers=4, service=("fixed", 15_000)),
        duration_ns=DURATION_NS,
        window_ns=5 * MS,
        slo=SloSpec(p99_ms=1.0),
        seed=11,
        # Node 2 is the first server rank in both configurations.
        faults=[
            Crash(at_ns=CRASH_NS, node=2),
            Restart(at_ns=CRASH_NS, node=2, delay_ns=RESTART_DELAY_NS),
        ],
    )


def report(label: str, result) -> None:
    print(f"--- {label} ---")
    print(
        f"latency      : p50={result.p50_ns / MS:.3f}ms  "
        f"p99={result.p99_ns / MS:.3f}ms  p999={result.p999_ns / MS:.3f}ms"
    )
    print(
        f"phases (p99) : queueing={result.queueing_p99_ns / MS:.3f}ms  "
        f"service={result.service_p99_ns / MS:.3f}ms  "
        f"network={result.network_p99_ns / MS:.3f}ms"
    )
    print("per-window SLO (p99 < 1ms):")
    for w in result.windows:
        mark = "ok " if w.get("attained") else "MISS"
        print(
            f"    {w['t0_ms']:6.1f}ms  {mark}  p99={w['p99_ms']:.3f}ms  "
            f"completed={w['completed']}"
        )
    print(
        f"fault        : crashes={result.crashes}  "
        f"reconnects={result.reconnects}  replayed={result.replayed}"
    )
    conserved = result.generated == (
        result.completed + result.shed + result.shed_client + result.failed
    )
    print(
        f"conservation : generated={result.generated}  "
        f"completed={result.completed}  shed={result.shed}  "
        f"conserved={conserved}"
    )
    print(f"invariant violations={len(result.violations)}")


def main() -> None:
    print(
        f"open-loop poisson load, {RATE_RPS} rps, crash at "
        f"{CRASH_NS / MS:.0f}ms, restart after {RESTART_DELAY_NS / MS:.0f}ms"
    )
    report("replicated (2 servers): failover hides the crash", serve(2))
    print()
    report("single replica: the outage reaches the tail", serve(1))


if __name__ == "__main__":
    main()
