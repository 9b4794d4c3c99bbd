"""Experiment runners shared by the benchmark files.

Each function runs a complete experiment (sweep or application set) and
returns structured results.  Results are cached per-process keyed on the
experiment parameters, so the three Figure-2 benchmarks (latency,
throughput, CPU) share one sweep, and pytest-benchmark's timing hooks can
re-enter without re-simulating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .cluster import make_cluster
from .micro import MicroResult, run_micro

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..apps import AppResult

__all__ = [
    "DEFAULT_SIZES",
    "micro_sweep",
    "micro_point",
    "app_run",
    "MICRO_BENCHMARKS",
]

MICRO_BENCHMARKS = ("ping-pong", "one-way", "two-way")

DEFAULT_SIZES = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)

# Per-point result caches, keyed on the argument tuples of
# micro_point / app_run.
_micro_cache: dict[tuple, MicroResult] = {}
_app_cache: dict[tuple, "AppResult"] = {}


def micro_iterations(size: int) -> Optional[int]:
    """Iteration count for one micro point (None = benchmark default)."""
    return 10 if size >= 262144 else None


def micro_point(
    config: str, benchmark: str, size: int, seed: int = 0
) -> MicroResult:
    """One micro-benchmark at one transfer size, on a fresh cluster."""
    key = (config, benchmark, size, seed)
    hit = _micro_cache.get(key)
    if hit is None:
        # Length-only payloads: identical results, no byte shuffling.
        cluster = make_cluster(
            config, nodes=2, seed=seed, synthetic_payloads=True
        )
        hit = run_micro(
            benchmark, cluster, size, iterations=micro_iterations(size)
        )
        _micro_cache[key] = hit
    return hit


def micro_sweep(
    config: str,
    benchmark: str,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    seed: int = 0,
) -> tuple[MicroResult, ...]:
    """One micro-benchmark across transfer sizes on a fresh cluster each."""
    return tuple(micro_point(config, benchmark, size, seed) for size in sizes)


def app_run(
    app_name: str,
    config: str = "1L-1G",
    nodes: int = 16,
    seed: int = 0,
) -> "AppResult":
    """One application run (cached: Figures 3/5/6 share 1-node baselines)."""
    key = (app_name, config, nodes, seed)
    hit = _app_cache.get(key)
    if hit is None:
        from ..apps import APP_CLASSES, run_app

        app = APP_CLASSES[app_name]()
        hit = run_app(app, config=config, nodes=nodes, seed=seed)
        _app_cache[key] = hit
    return hit

