"""Process-parallel fan-out of independent experiment points.

Every micro-benchmark point and application run is an isolated experiment:
it builds its own seeded :class:`~repro.sim.core.Simulator`, so results are
a pure function of the argument tuple and determinism across processes is
free.  This module fans those points out over a ``multiprocessing`` pool
and primes the per-process caches in :mod:`repro.bench.runner`, so the
figure benchmarks — which call :func:`~repro.bench.runner.micro_sweep` /
:func:`~repro.bench.runner.app_run` serially — assemble their tables from
cache without re-simulating.

Usage::

    from repro.bench.parallel import parallel_micro_sweep, run_points

    results = parallel_micro_sweep("1L-1G", "one-way")   # == micro_sweep(...)

    # Or fan out an arbitrary mixed work list:
    run_points(
        micro=[("1L-1G", "one-way", 65536, 0), ("2L-1G", "ping-pong", 64, 0)],
        apps=[("fft", "1L-1G", 4, 0)],
    )

Worker processes inherit nothing mutable: each point is recomputed from its
key in a fresh interpreter (``spawn``) or forked snapshot (``fork``), and
the parent merges the returned result objects into the caches.  Parallel
and serial runs are bit-identical (asserted in
``tests/bench/test_parallel_runner.py``).

On single-core machines the pool degrades to one worker; ``processes=0``
skips multiprocessing entirely and computes in-process (still priming the
caches), which is also the fallback when a pool cannot be created.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Iterable, Optional, Sequence

from .cluster import make_cluster
from .micro import MicroResult, _collect, _one_way_stream
from .runner import DEFAULT_SIZES, _app_cache, _micro_cache, app_run, micro_point

__all__ = [
    "MicroPoint",
    "AppPoint",
    "run_points",
    "parallel_micro_sweep",
    "parallel_app_runs",
    "warm_micro_sweep",
]

# Work-list entries: the argument tuples of runner.micro_point / runner.app_run.
MicroPoint = tuple  # (config, benchmark, size, seed)
AppPoint = tuple  # (app_name, config, nodes, seed)


def _compute_micro(point: MicroPoint) -> MicroResult:
    config, benchmark, size, seed = point
    return micro_point(config, benchmark, size, seed)


def _compute_app(point: AppPoint):
    app_name, config, nodes, seed = point
    return app_run(app_name, config, nodes, seed)


def _compute_batch(batch: tuple) -> tuple:
    """Worker entry point: compute one (kind, point) list, return results."""
    out = []
    for kind, point in batch:
        if kind == "micro":
            out.append(_compute_micro(point))
        else:
            out.append(_compute_app(point))
    return tuple(out)


def default_processes() -> int:
    """Worker count: one per CPU, capped by the work list at call time."""
    return os.cpu_count() or 1


def run_points(
    micro: Sequence[MicroPoint] = (),
    apps: Sequence[AppPoint] = (),
    processes: Optional[int] = None,
) -> None:
    """Compute every point (in parallel when possible) and prime the caches.

    ``micro`` entries are ``(config, benchmark, size, seed)`` tuples;
    ``apps`` entries are ``(app_name, config, nodes, seed)`` tuples.
    Points already cached are skipped.  After this returns, serial
    ``micro_sweep`` / ``app_run`` calls for these points are cache hits.
    """
    micro = [tuple(p) for p in micro]
    apps = [tuple(p) for p in apps]
    work: list[tuple[str, tuple]] = [
        ("micro", p) for p in micro if p not in _micro_cache
    ] + [("app", p) for p in apps if p not in _app_cache]
    if not work:
        return
    if processes is None:
        processes = default_processes()
    processes = min(processes, len(work))

    results: Iterable
    if processes <= 1:
        # In-process: micro_point/app_run fill the caches as they run.
        _compute_batch(tuple(work))
        return
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: fall back to default context
        ctx = multiprocessing.get_context()
    try:
        with ctx.Pool(processes=processes) as pool:
            # One point per task; chunksize 1 keeps the longest points (1 MB
            # sweeps, 16-node apps) from serialising behind short ones.
            batches = [((item,),) for item in work]
            results = pool.starmap(_compute_batch, batches, chunksize=1)
    except (OSError, ValueError):
        # Pool creation failed (resource limits, sandboxes): compute serially.
        _compute_batch(tuple(work))
        return
    for (kind, point), (result,) in zip(work, results):
        if kind == "micro":
            _micro_cache[point] = result
        else:
            _app_cache[point] = result


def parallel_micro_sweep(
    config: str,
    benchmark: str,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = 0,
    processes: Optional[int] = None,
) -> tuple[MicroResult, ...]:
    """Parallel drop-in for :func:`repro.bench.runner.micro_sweep`.

    Fans the per-size points over worker processes, then assembles the
    result tuple from the (now primed) cache — bit-identical to the serial
    sweep because every point is its own seeded simulator.
    """
    run_points(
        micro=[(config, benchmark, size, seed) for size in sizes],
        processes=processes,
    )
    return tuple(micro_point(config, benchmark, size, seed) for size in sizes)


# ---------------------------------------------------------------------------
# Warm-started sweeps: simulate the shared prefix once, fork per sweep point
# ---------------------------------------------------------------------------

_WARM_LIMIT_NS = 600_000_000_000


def _warm_iterations(size: int) -> int:
    """Measured iteration count shared by the warm and cold twins."""
    if size >= 262144:
        return 10
    return max(8, min(512, 4_000_000 // size))


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
        yield from _one_way_stream(a, b, warmup_size, warmup, src, dst)

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
        yield from _one_way_stream(a, b, size, iterations, src, dst, issue_times)

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
        directions=1,
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

    Results are deliberately *not* cached in the ``micro_point`` cache:
    the warm protocol (fixed-size warmup) differs from ``run_one_way``'s
    per-size warmup, so the numbers are comparable within a warm sweep,
    not with cold :func:`~repro.bench.runner.micro_sweep` points.
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


def parallel_app_runs(
    specs: Sequence[AppPoint],
    processes: Optional[int] = None,
) -> list:
    """Run ``(app_name, config, nodes, seed)`` specs in parallel; returns
    results in input order (and leaves them cached for ``app_run``)."""
    run_points(apps=specs, processes=processes)
    return [app_run(*spec) for spec in specs]
