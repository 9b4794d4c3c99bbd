"""The seven benchmark workloads and what is read from each after a run.

Every workload is built from the simulator's public entry points and is
split into a *build* phase (cluster, connections, runtime attach — timed
as ``setup_s``) and a *run* phase (the simulation itself — timed as
``wall_s``).  ``Workload.build(seed, scale)`` does the first and returns
a zero-argument callable that does the second and hands back an
:class:`Outcome`, which keeps the ``Cluster`` handle so counters can be
read from outside the program once the clock has stopped.

Sizes are the constants below (the benchmark contract gives
``BENCHMARK.json`` a fixed set of keys, so they cannot live there).
``scale`` shrinks a workload for the discarded warm-up (1/10) and the
unit tests (1/20); timed repeats always run at ``scale=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis import summarize_cluster
from repro.apps import APP_CLASSES
from repro.bench import leaf_spine_3to1, make_cluster, run_micro
from repro.bench.paper_data import FIG2_MAX_THROUGHPUT_MBPS, FIG2_MIN_LATENCY_US
from repro.bench.serve import ServeRun
from repro.core import merge_stats
from repro.dsm import DsmRuntime
from repro.serve import ArrivalSpec, ServerSpec
from repro.sim import SimulationError
from repro.verify.fuzz import fingerprint

__all__ = [
    "Outcome",
    "Workload",
    "WORKLOADS",
    "SIM_METRICS",
    "COUNTERS",
    "UNDEFINED",
    "serve_ops",
    "counters",
    "violations",
]

# Value reported for a simulated metric a workload does not define
# (``sim_latency_us`` off ping-pong, ``paper_err_pct`` without a paper
# reference): the result line must carry every declared metric, and 0
# would read as a measurement.
UNDEFINED = -1.0

# The paper's point may be missed by at most this much (acceptance bound).
PAPER_ERR_LIMIT_PCT = 10.0


@dataclass
class Outcome:
    """One finished run phase, with the handles counters are read from."""

    cluster: object
    sim_elapsed_ns: int  # virtual time of the measured phase
    attempted: int  # operations counted by fail_share
    failed: int
    units: int  # data frames (requests in the serving workload)
    sim: dict = field(default_factory=dict)  # workload-specific sim_* metrics
    problems: list = field(default_factory=list)  # workload-specific check failures
    serve: Optional[object] = None  # ServeResult
    dsm: Optional[object] = None  # DsmRunResult


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], Callable[[], Outcome]]
    micro: bool = False  # two nodes, one switch: nothing may be dropped
    striped: bool = False  # two rails: reordering may cost a spurious NACK
    fastpath: bool = False  # the one workload that fast-forwards frames
    note: str = ""  # printed with every result


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _paper_err_pct(simulated: float, paper: float) -> float:
    return abs(simulated - paper) / paper * 100.0


# -- micro-benchmarks (paper Fig. 2) ------------------------------------------


def _micro(
    config: str,
    bench: str,
    size: int,
    iterations: int,
    warmup: int,
    fastpath: bool = False,
    paper: Optional[float] = None,
):
    def build(seed: int, scale: float):
        iters = _scaled(iterations, scale)
        cluster = make_cluster(
            config, nodes=2, seed=seed, synthetic_payloads=True,
            fastpath=fastpath,
        )
        cluster.connect(0, 1)

        def run() -> Outcome:
            r = run_micro(bench, cluster, size, iterations=iters, warmup=warmup)
            # run_micro stops at the receiver's last notification; the
            # sender's last op completes when the trailing ack lands.
            cluster.sim.run()
            # run_micro resets the protocol counters after its own warm-up
            # rounds, but the engine's event count cannot be reset; every
            # round moves the same number of frames, so scaling restores
            # the warm-up's frames and both sides of events_per_unit cover
            # the whole run phase.
            units = r.data_frames + r.data_frames * warmup // iters
            ops = merge_stats([s.protocol.total_stats() for s in cluster.stacks])
            sim = {}
            if bench == "ping-pong":
                sim["sim_latency_us"] = r.latency_us
            if paper is not None:
                sim["paper_err_pct"] = _paper_err_pct(
                    r.latency_us if bench == "ping-pong" else r.throughput_mbps,
                    paper,
                )
            return Outcome(
                cluster=cluster,
                sim_elapsed_ns=r.elapsed_ns,
                attempted=ops.ops_submitted,
                # An op issued in run_micro's warm-up can complete after
                # its counter reset, so completions may lead by one.
                failed=max(0, ops.ops_submitted - ops.ops_completed),
                units=units,
                sim=sim,
            )

        return run

    return build


# -- open-loop serving ---------------------------------------------------------

SERVE_RATE_RPS = 110_000.0
SERVE_DURATION_NS = 60_000_000


def serve_ops(result) -> tuple[int, int]:
    """``(attempted, failed)`` of a serving run: a request that was shed
    (by a server or the client's outbox), failed, or never answered counts
    as failed, against every request the open-loop source generated."""
    failed = result.shed + result.shed_client + result.failed + result.pending
    return result.generated, failed


def _build_serve(seed: int, scale: float):
    run = ServeRun(
        "1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(
            kind="poisson",
            rate_rps=SERVE_RATE_RPS,
            request_bytes=("fixed", 96),
            response_bytes=("fixed", 128),
            batch=1024,
        ),
        server=ServerSpec(queue_cap=512, workers=8, service=("fixed", 2000)),
        duration_ns=_scaled(SERVE_DURATION_NS, scale),
        seed=seed,
    )

    def finish() -> Outcome:
        r = run.finish()
        attempted, failed = serve_ops(r)
        problems = [f"serve invariant: {v}" for v in r.violations]
        answered = r.completed + r.shed + r.shed_client + r.failed + r.pending
        if answered != r.generated:
            problems.append(
                f"request conservation: generated {r.generated} != "
                f"accounted {answered}"
            )
        return Outcome(
            cluster=run.cluster,
            sim_elapsed_ns=r.elapsed_ns,
            attempted=attempted,
            failed=failed,
            units=r.generated,
            sim={
                "sim_p50_us": r.p50_ns / 1e3,
                "sim_p999_us": r.p999_ns / 1e3,
            },
            problems=problems,
            serve=r,
        )

    return finish


# -- 16:1 incast across an oversubscribed leaf-spine ---------------------------

INCAST_SENDERS = 16
INCAST_CHUNK_BYTES = 64 * 1024
INCAST_CHUNKS = 32
INCAST_LIMIT_NS = 20_000_000_000


def _build_incast(seed: int, scale: float):
    chunks = _scaled(INCAST_CHUNKS, scale)
    receiver = INCAST_SENDERS
    cluster = make_cluster(
        "1L-1G",
        nodes=INCAST_SENDERS + 1,
        seed=seed,
        synthetic_payloads=True,
        fabric=leaf_spine_3to1(),
    )
    rx_memory = cluster.nodes[receiver].memory
    senders = []
    for s in range(INCAST_SENDERS):
        handle, _peer = cluster.connect(s, receiver)
        src = cluster.nodes[s].memory.alloc(INCAST_CHUNK_BYTES)
        dst = rx_memory.alloc(INCAST_CHUNK_BYTES)
        senders.append((handle, src, dst))

    def run() -> Outcome:
        sim = cluster.sim
        done = [0]

        def sender(handle, src, dst):
            for _ in range(chunks):
                op = yield from handle.rdma_write(src, dst, INCAST_CHUNK_BYTES)
                yield from op.wait()
                done[0] += 1

        procs = [sim.process(sender(*s)) for s in senders]
        try:
            for proc in procs:
                sim.run_until_done(proc, limit=INCAST_LIMIT_NS)
        except SimulationError:
            pass  # chunks still outstanding at the limit count as failed
        elapsed = sim.now
        sim.run()  # drain straggling acks and timers
        total = INCAST_SENDERS * chunks
        return Outcome(
            cluster=cluster,
            sim_elapsed_ns=elapsed,
            attempted=total,
            failed=total - done[0],
            units=cluster.total_data_frames(),
            problems=[
                f"routing invariant: {v}"
                for fab in cluster.fabrics
                for v in fab.routing_invariants()
            ],
        )

    return run


# -- SPLASH-2 FFT on the DSM ---------------------------------------------------

DSM_NODES = 16


def _build_dsm_fft(seed: int, scale: float):
    cluster = make_cluster("1L-1G", nodes=DSM_NODES, seed=seed)
    runtime = DsmRuntime(cluster)
    app = APP_CLASSES["fft"]()
    if scale < 1.0:
        # The matrix side must stay a power of two with a row per node.
        m = 2 ** int(math.log2(app.m * math.sqrt(scale)))
        app = APP_CLASSES["fft"](m=max(DSM_NODES, m))
    app.setup(runtime)

    def run() -> Outcome:
        result = runtime.run(app.program)
        verified = app.verify(runtime, result)
        return Outcome(
            cluster=cluster,
            sim_elapsed_ns=result.elapsed_ns,
            attempted=1,
            failed=0 if verified else 1,
            units=cluster.total_data_frames(),
            problems=[] if verified else ["fft result not verified"],
            dsm=result,
        )

    return run


MIB = 1 << 20

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oneway_1g_1mb",
            _micro("1L-1G", "one-way", MIB, iterations=160, warmup=4,
                   paper=FIG2_MAX_THROUGHPUT_MBPS[("1L-1G", "one-way")]),
            micro=True,
        ),
        Workload(
            "oneway_1g_1mb_fastpath",
            _micro("1L-1G", "one-way", MIB, iterations=1500, warmup=4,
                   fastpath=True),
            micro=True, fastpath=True,
        ),
        Workload(
            "twoway_2l_1mb",
            _micro("2L-1G", "two-way", MIB, iterations=50, warmup=4,
                   paper=FIG2_MAX_THROUGHPUT_MBPS[("2L-1G", "two-way")]),
            micro=True, striped=True,
        ),
        Workload(
            "pingpong_10g_64b",
            _micro("1L-10G", "ping-pong", 64, iterations=20_000, warmup=5,
                   paper=FIG2_MIN_LATENCY_US["1L-10G"]),
            micro=True,
        ),
        Workload(
            "serve_poisson_10g", _build_serve,
            note=f"open loop at a fixed {SERVE_RATE_RPS:.0f} requests/s; arrivals "
                 "are drawn in virtual time, so the generator is never late",
        ),
        Workload("incast_leafspine_static", _build_incast),
        Workload("dsm_fft_1g_16n", _build_dsm_fft),
    )
}

# Simulated end-to-end metrics: exact for a given seed, so any change is a
# model change and never noise.  name -> unit.
SIM_METRICS = {
    "fail_share": "ratio",
    "sim_elapsed_ms": "ms",
    "sim_latency_us": "us",
    "sim_p50_us": "us",
    "sim_p999_us": "us",
    "paper_err_pct": "%",
}

# Exact per-layer counters read after an untraced run.  name -> unit.
COUNTERS = {
    "sim.events": "count",
    "sim.heap_pushes": "count",
    "sim.fastlane_hits": "count",
    "sim.cancelled_popped": "count",
    "sim.events_per_unit": "1/unit",
    "ethernet.wire_frames": "count",
    "ethernet.irqs": "count",
    "ethernet.switch_drops": "count",
    "ethernet.nic_ring_drops": "count",
    "ethernet.peak_queue_depth": "frames",
    "core.data_frames": "count",
    "core.retransmissions": "count",
    "core.explicit_acks": "count",
    "core.nacks": "count",
    "core.out_of_order_fraction": "ratio",
    "core.extra_frame_fraction": "ratio",
    "core.goodput_mbps": "MB/s",
    "host.protocol_cpu_fraction": "ratio",
    "fastpath.jumps": "count",
    "fastpath.aborts": "count",
    "fastpath.ff_share": "ratio",
    "fabric.repins": "count",
    "fabric.trunk_drops": "count",
    "serve.generated": "count",
    "serve.completed": "count",
    "serve.shed": "count",
    "serve.queueing_p99_us": "us",
    "serve.service_p99_us": "us",
    "serve.network_p99_us": "us",
    "dsm.page_fetches": "count",
    "dsm.diffs_flushed": "count",
    "dsm.barriers": "count",
    "dsm.data_wait_share": "ratio",
}


def _trunk_drops(cluster) -> int:
    """Tail drops on switch-to-switch ports (all drops minus access ports)."""
    drops = 0
    for fab in cluster.fabrics:
        drops += sum(
            port.dropped_queue_full for sw in fab.switches for port in sw.ports
        )
        drops -= sum(
            fab.by_name[name].ports[index].dropped_queue_full
            for name, index in fab.access.values()
        )
    return drops


def counters(outcome: Outcome) -> dict:
    """Every :data:`SIM_METRICS` and :data:`COUNTERS` value of one run.

    Also carries ``fingerprint`` (the bit-determinism witness), which is
    compared across repeats but is not a metric.
    """
    cluster = outcome.cluster
    s = summarize_cluster(cluster, outcome.sim_elapsed_ns)
    out = {name: UNDEFINED for name in SIM_METRICS}
    out["fail_share"] = outcome.failed / outcome.attempted
    out["sim_elapsed_ms"] = outcome.sim_elapsed_ns / 1e6
    out.update(outcome.sim)
    out.update(
        {
            "sim.events": s.events_processed,
            "sim.heap_pushes": s.heap_pushes,
            "sim.fastlane_hits": s.fastlane_hits,
            "sim.cancelled_popped": s.cancelled_popped,
            "sim.events_per_unit": s.events_processed / outcome.units,
            "ethernet.wire_frames": s.wire_frames,
            "ethernet.irqs": s.irqs,
            "ethernet.switch_drops": s.switch_drops,
            "ethernet.nic_ring_drops": s.nic_ring_drops,
            "ethernet.peak_queue_depth": max(
                (sw.peak_queue_depth for sw in s.switches), default=0
            ),
            "core.data_frames": s.data_frames,
            "core.retransmissions": s.retransmissions,
            "core.explicit_acks": s.explicit_acks,
            "core.nacks": s.nacks,
            "core.out_of_order_fraction": s.out_of_order_fraction,
            "core.extra_frame_fraction": s.extra_frame_fraction,
            "core.goodput_mbps": s.goodput_mbps,
            "host.protocol_cpu_fraction": s.protocol_cpu_fraction_mean,
            "fastpath.jumps": s.ff_jumps,
            "fastpath.aborts": s.ff_aborts,
            "fastpath.ff_share": (
                s.ff_frames / s.data_frames if s.data_frames else 0.0
            ),
            "fabric.repins": sum(sw.repins for sw in s.switches),
            "fabric.trunk_drops": _trunk_drops(cluster),
        }
    )
    r = outcome.serve
    out.update(
        {
            "serve.generated": r.generated if r else 0,
            "serve.completed": r.completed if r else 0,
            "serve.shed": r.shed + r.shed_client if r else 0,
            "serve.queueing_p99_us": r.queueing_p99_ns / 1e3 if r else 0.0,
            "serve.service_p99_us": r.service_p99_ns / 1e3 if r else 0.0,
            "serve.network_p99_us": r.network_p99_ns / 1e3 if r else 0.0,
        }
    )
    d = outcome.dsm
    out.update(
        {
            "dsm.page_fetches": sum(n.page_fetches for n in d.per_node) if d else 0,
            "dsm.diffs_flushed": sum(n.diffs_flushed for n in d.per_node) if d else 0,
            "dsm.barriers": sum(n.barriers for n in d.per_node) if d else 0,
            "dsm.data_wait_share": (
                sum(b.data_wait for b in d.breakdowns) / len(d.breakdowns)
                if d else 0.0
            ),
        }
    )
    out["fingerprint"] = fingerprint(cluster)
    return out


def violations(workload: Workload, outcome: Outcome, values: dict) -> list[str]:
    """Correctness checks on one run; an empty list means it is correct."""
    problems = list(outcome.problems)
    if outcome.failed:
        problems.append(
            f"{outcome.failed} of {outcome.attempted} operations failed"
        )
    ff_share = values["fastpath.ff_share"]
    if workload.fastpath and ff_share <= 0.9:
        problems.append(f"fastpath.ff_share {ff_share:.3f} <= 0.9")
    if not workload.fastpath and ff_share != 0:
        problems.append(f"fastpath.ff_share {ff_share:.3f} off the fast path")
    if workload.micro:
        loss_free = ["ethernet.switch_drops", "ethernet.nic_ring_drops"]
        if not workload.striped:
            # On two rails a frame overtaken for longer than the NACK delay
            # is retransmitted although nothing was lost (seen on 1 seed in
            # 10), so only the single-rail workloads must show none.
            loss_free.append("core.retransmissions")
        for name in loss_free:
            if values[name]:
                problems.append(f"{name} = {values[name]} on a loss-free workload")
    err = values["paper_err_pct"]
    if err > PAPER_ERR_LIMIT_PCT:
        problems.append(f"paper_err_pct {err:.2f} > {PAPER_ERR_LIMIT_PCT}")
    return problems
