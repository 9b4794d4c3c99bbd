"""The paper's three micro-benchmarks (§3): ping-pong, one-way, two-way.

All three run between two nodes of a cluster:

* **ping-pong** — remote memory writes in request-reply fashion; requests
  and replies carry the same payload.  Reported latency is one-way
  memory-to-memory time (half the round trip, measured at notification
  delivery).
* **one-way** — back-to-back remote memory writes in one direction.
  Reported "latency" is the host overhead to initiate an operation
  (the paper measures ≈2 µs).
* **two-way** — both nodes run one-way simultaneously, exercising send and
  receive paths concurrently; reported throughput is the sum of both
  directions (as the paper specifies).

Each run returns a :class:`MicroResult` with throughput, latency, CPU
utilization (out of ``200 %`` for two CPUs, like the paper's Figure 2c),
and the network-level statistics analysed in §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import ConnectionHandle
from ..ethernet import OpFlags
from .cluster import Cluster, make_cluster

__all__ = [
    "MicroResult",
    "run_ping_pong",
    "run_one_way",
    "run_two_way",
    "run_micro",
    "micro_sweep",
    "MICRO_BENCHMARKS",
    "DEFAULT_SIZES",
]

MICRO_BENCHMARKS = ("ping-pong", "one-way", "two-way")

DEFAULT_SIZES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)


@dataclass
class MicroResult:
    """Outcome of one micro-benchmark run at one transfer size."""

    benchmark: str
    config: str
    size: int
    iterations: int
    elapsed_ns: int
    latency_us: float  # ping-pong: one-way mem-to-mem; one/two-way: host overhead
    throughput_mbps: float  # MBytes/s, summed over directions for two-way
    cpu_util_pct: float  # protocol CPU, out of 200 % (max over the two nodes)
    out_of_order_fraction: float
    extra_frame_fraction: float
    frames_dropped: int
    irqs: int
    data_frames: int

    @property
    def interrupt_fraction(self) -> float:
        """Fraction of frames that caused an interrupt (paper Fig 3d/5d)."""
        total = self.data_frames
        return self.irqs / total if total else 0.0


def _collect(
    cluster: Cluster,
    benchmark: str,
    size: int,
    iterations: int,
    elapsed: int,
    latency_us: float,
    total_payload_bytes: int,
) -> MicroResult:
    from ..analysis.summary import summarize_cluster

    summary = summarize_cluster(cluster, elapsed)
    base = cluster.reset_summary  # every runner resets after its warm-up
    util = max(
        stack.node.protocol_utilization(elapsed) for stack in cluster.stacks[:2]
    )
    throughput = (
        total_payload_bytes / (elapsed / 1e9) / 1e6 if elapsed > 0 else 0.0
    )
    return MicroResult(
        benchmark=benchmark,
        config=cluster.config.name,
        size=size,
        iterations=iterations,
        elapsed_ns=elapsed,
        latency_us=latency_us,
        throughput_mbps=throughput,
        cpu_util_pct=util * 100.0,
        out_of_order_fraction=summary.out_of_order_fraction,
        extra_frame_fraction=summary.extra_frame_fraction,
        frames_dropped=summary.frames_dropped - base.frames_dropped,
        irqs=summary.irqs - base.irqs,
        data_frames=summary.data_frames,
    )


def run_ping_pong(
    cluster: Cluster,
    size: int,
    iterations: Optional[int] = None,
    warmup: int = 5,
) -> MicroResult:
    """Request-reply remote writes between nodes 0 and 1."""
    if iterations is None:
        iterations = 30
    a, b = cluster.connect(0, 1)
    src_a = a.node.memory.alloc(size)
    dst_b = b.node.memory.alloc(size)
    src_b = b.node.memory.alloc(size)
    dst_a = a.node.memory.alloc(size)

    state = {"rounds": 0}

    def node_a():
        for i in range(warmup + iterations):
            if i == warmup:
                cluster.reset_measurement()
            yield from a.rdma_write(src_a, dst_b, size, flags=OpFlags.NOTIFY)
            yield from a.wait_notification()
            state["rounds"] += 1

    def node_b():
        for _ in range(warmup + iterations):
            yield from b.wait_notification()
            yield from b.rdma_write(src_b, dst_a, size, flags=OpFlags.NOTIFY)

    cluster.sim.process(node_b())
    proc = cluster.sim.process(node_a())
    cluster.sim.run_until_done(proc, limit=600_000_000_000)
    elapsed = cluster.sim.now - cluster.measured_since
    one_way_ns = elapsed / (2 * iterations)
    # Each direction moves `size` per round trip.
    payload = size * iterations * 2
    return _collect(
        cluster, "ping-pong", size, iterations, elapsed,
        latency_us=one_way_ns / 1000.0,
        total_payload_bytes=payload,
    )


def _stream_iterations(size: int) -> int:
    """Default measured writes of a one-/two-way run: about 4 MB worth,
    between 8 and 512 of them."""
    return max(8, min(512, 4_000_000 // size))


def _one_way_stream(
    handle: ConnectionHandle,
    size: int,
    count: int,
    src: int,
    dst: int,
    issue_times: Optional[list] = None,
):
    """Issue ``count`` back-to-back writes; last one carries NOTIFY."""
    sim = handle.node.sim
    handles = []
    for i in range(count):
        flags = OpFlags.NOTIFY if i == count - 1 else 0
        t0 = sim.now
        h = yield from handle.rdma_write(src, dst, size, flags=flags)
        if issue_times is not None:
            issue_times.append(sim.now - t0)
        handles.append(h)
    for h in handles:
        yield from h.wait()


def run_one_way(
    cluster: Cluster,
    size: int,
    iterations: Optional[int] = None,
    warmup: int = 4,
) -> MicroResult:
    """Back-to-back writes node 0 → node 1."""
    a, b = cluster.connect(0, 1)
    if iterations is None:
        iterations = _stream_iterations(size)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    issue_times: list[int] = []
    state = {"end": 0}

    def sender():
        # Warmup round.
        yield from _one_way_stream(a, size, warmup, src, dst)
        cluster.reset_measurement()
        yield from _one_way_stream(a, size, iterations, src, dst, issue_times)

    def receiver():
        yield from b.wait_notification()  # warmup notify
        yield from b.wait_notification()  # measured notify
        state["end"] = cluster.sim.now

    rproc = cluster.sim.process(receiver())
    cluster.sim.process(sender())
    cluster.sim.run_until_done(rproc, limit=600_000_000_000)
    elapsed = state["end"] - cluster.measured_since
    host_overhead_us = (sum(issue_times) / len(issue_times)) / 1000.0
    return _collect(
        cluster, "one-way", size, iterations, elapsed,
        latency_us=host_overhead_us,
        total_payload_bytes=size * iterations,
    )


def run_two_way(
    cluster: Cluster,
    size: int,
    iterations: Optional[int] = None,
    warmup: int = 4,
) -> MicroResult:
    """Simultaneous one-way streams in both directions."""
    a, b = cluster.connect(0, 1)
    if iterations is None:
        iterations = _stream_iterations(size)
    src_a, dst_a = a.node.memory.alloc(size), a.node.memory.alloc(size)
    src_b, dst_b = b.node.memory.alloc(size), b.node.memory.alloc(size)
    issue_times: list[int] = []
    state = {"end_a": 0, "end_b": 0, "warm": 0}
    warm_barrier = cluster.sim.event()

    def stream(handle, src, dst, who):
        yield from _one_way_stream(handle, size, warmup, src, dst)
        # Synchronise measurement start across both directions.
        state["warm"] += 1
        if state["warm"] == 2:
            cluster.reset_measurement()
            warm_barrier.trigger()
        else:
            yield warm_barrier
        yield from _one_way_stream(
            handle, size, iterations, src, dst, issue_times
        )

    def sink(handle, who):
        yield from handle.wait_notification()  # warmup
        yield from handle.wait_notification()  # measured
        state[who] = cluster.sim.now

    cluster.sim.process(stream(a, src_a, dst_b, "a"))
    cluster.sim.process(stream(b, src_b, dst_a, "b"))
    pa = cluster.sim.process(sink(b, "end_a"))  # a's data lands at b
    pb = cluster.sim.process(sink(a, "end_b"))
    cluster.sim.run_until_done(pa, limit=600_000_000_000)
    cluster.sim.run_until_done(pb, limit=600_000_000_000)
    elapsed = max(state["end_a"], state["end_b"]) - cluster.measured_since
    host_overhead_us = (sum(issue_times) / len(issue_times)) / 1000.0
    return _collect(
        cluster, "two-way", size, iterations, elapsed,
        latency_us=host_overhead_us,
        total_payload_bytes=2 * size * iterations,
    )


_RUNNERS = {
    "ping-pong": run_ping_pong,
    "one-way": run_one_way,
    "two-way": run_two_way,
}


def run_micro(benchmark: str, cluster: Cluster, size: int, **kw) -> MicroResult:
    """Dispatch by benchmark name."""
    try:
        runner = _RUNNERS[benchmark]
    except KeyError:
        raise ValueError(
            f"unknown micro-benchmark {benchmark!r}; choose from {sorted(_RUNNERS)}"
        ) from None
    return runner(cluster, size, **kw)


def micro_sweep(
    config: str,
    benchmark: str,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = 0,
) -> tuple[MicroResult, ...]:
    """One micro-benchmark across transfer sizes, on a fresh two-node
    cluster each.

    Payloads are length-only (identical results, no byte shuffling).  A
    point runs 10 iterations at 256 KiB and above, the benchmark's default
    below.
    """
    return tuple(
        run_micro(
            benchmark,
            make_cluster(config, nodes=2, seed=seed, synthetic_payloads=True),
            size,
            iterations=10 if size >= 262144 else None,
        )
        for size in sizes
    )
