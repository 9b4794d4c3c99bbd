"""Warm-started sweeps: simulate the shared prefix once, fork per point.

Every point of a one-way sweep shares the same prefix — cluster build,
connect, handshake, a fixed-size warmup stream.  :func:`warm_micro_sweep`
simulates that prefix once and runs each point's measured phase in a
forked child inheriting the exact state (:mod:`repro.checkpoint.fork`)::

    from repro.bench.parallel import warm_micro_sweep

    results = warm_micro_sweep("1L-1G", warmup=128, warmup_size=16384)
"""

from __future__ import annotations

from .cluster import make_cluster
from .micro import (
    DEFAULT_SIZES,
    MicroResult,
    _collect,
    _one_way_stream,
    _stream_iterations,
)

__all__ = ["warm_micro_sweep"]

_WARM_LIMIT_NS = 600_000_000_000


def _warm_iterations(size: int) -> int:
    """Measured iteration count shared by the warm and cold twins."""
    return 10 if size >= 262144 else _stream_iterations(size)


def _warm_prefix(config: str, seed: int, warmup: int, warmup_size: int):
    """The sweep-invariant prefix: cluster, connection, fixed-size warmup.

    Everything here is identical for every sweep point — handshakes,
    ring/window priming, pacing state — so it is simulated exactly once
    per warm sweep and inherited by each forked point.
    """
    cluster = make_cluster(config, nodes=2, seed=seed, synthetic_payloads=True)
    a, b = cluster.connect(0, 1)
    src = a.node.memory.alloc(warmup_size)
    dst = b.node.memory.alloc(warmup_size)

    def sender():
        yield from _one_way_stream(a, warmup_size, warmup, src, dst)

    def receiver():
        yield from b.wait_notification()

    rproc = cluster.sim.process(receiver())
    cluster.sim.process(sender())
    cluster.sim.run_until_done(rproc, limit=_WARM_LIMIT_NS)
    return cluster, a, b


def _measured_point(cluster, a, b, size: int) -> MicroResult:
    """The per-size measured phase, run on an already-warm cluster."""
    iterations = _warm_iterations(size)
    src = a.node.memory.alloc(size)
    dst = b.node.memory.alloc(size)
    issue_times: list[int] = []
    state = {"start": 0, "end": 0}

    def sender():
        cluster.reset_measurement()
        state["start"] = cluster.sim.now
        yield from _one_way_stream(a, size, iterations, src, dst, issue_times)

    def receiver():
        yield from b.wait_notification()
        state["end"] = cluster.sim.now

    rproc = cluster.sim.process(receiver())
    cluster.sim.process(sender())
    cluster.sim.run_until_done(rproc, limit=_WARM_LIMIT_NS)
    elapsed = state["end"] - state["start"]
    host_overhead_us = (sum(issue_times) / len(issue_times)) / 1000.0
    return _collect(
        cluster, "one-way", size, iterations, elapsed,
        latency_us=host_overhead_us,
        total_payload_bytes=size * iterations,
    )


def warm_micro_sweep(
    config: str,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = 0,
    warmup: int = 4,
    warmup_size: int = 4096,
    use_fork: bool = True,
) -> tuple[MicroResult, ...]:
    """One-way sweep that simulates the shared prefix once and forks per size.

    With ``use_fork`` (and ``os.fork`` available) the warm prefix —
    cluster construction, connect, handshake, a fixed-size warmup stream —
    runs once; each sweep point then runs its measured phase in a forked
    child inheriting that exact state.  Without fork the same two phases
    run in-process with the prefix rebuilt per size.  The two modes are
    bit-identical (a forked child's heap *is* the freshly built prefix),
    which ``tests/checkpoint/test_warm_sweep.py`` asserts; the fork path
    just stops paying for the prefix ``len(sizes)`` times.

    The warm protocol (fixed-size warmup) differs from ``run_one_way``'s
    per-size warmup, so the numbers are comparable within a warm sweep,
    not with cold :func:`~repro.bench.micro.micro_sweep` points.
    """
    from ..checkpoint.fork import HAVE_FORK, fork_map

    if use_fork and HAVE_FORK:
        cluster, a, b = _warm_prefix(config, seed, warmup, warmup_size)
        thunks = [
            (lambda s=size: _measured_point(cluster, a, b, s))
            for size in sizes
        ]
        return tuple(fork_map(thunks))
    results = []
    for size in sizes:
        cluster, a, b = _warm_prefix(config, seed, warmup, warmup_size)
        results.append(_measured_point(cluster, a, b, size))
    return tuple(results)
