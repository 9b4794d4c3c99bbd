"""Engine and hot-path speed tracking (the perf-regression harness).

Two measurements, recorded to ``BENCH_engine.json`` at the repo root so the
performance trajectory is tracked from PR to PR:

* **engine level** — events/sec of the optimised two-lane engine
  (:class:`repro.sim.core.Simulator`) against the frozen seed engine
  (:class:`repro.sim.reference.SeedSimulator`) on the protocol-shaped event
  mix of the one-way 1L-1G sweep: per simulated frame, four positive-delay
  wire events, two timer-driven CPU-charge resumes, three zero-delay
  wake-ups, and a retransmit-style timer that is armed and then cancelled
  (the census of a real 1 MB run: ~77.6 k heap events, ~71.8 k zero-delay
  events, ~4.2 k timer fires).
* **full stack** — wall time and effective events/sec of the one-way 1L-1G
  micro-benchmark (the 1 MB point the paper's Figure 2 peaks at, plus the
  full Fig-2 sweep in the slow variant), compared against the seed tree:
  the slow test materialises the seed commit in a temporary git worktree
  and times the identical sweep there.  "Effective events/sec" charges both
  trees with the *seed* run's event count, so eliminating events counts as
  speedup rather than hiding it.

Invocations (documented in README):

* ``bench-smoke`` —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_engine_speed.py -k smoke``
  (seconds; asserts sanity floors on events/sec), part of any perf change's
  checklist;
* full —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_engine_speed.py -m slow``
  (re-times the seed tree too and rewrites every ``BENCH_engine.json``
  field).
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from conftest import tree_commit

from repro.bench.cluster import make_cluster
from repro.bench.micro import run_micro
from repro.sim.core import Simulator
from repro.sim.reference import SeedSimulator

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

# Floors for the smoke test.  They are deliberately well under the measured
# values (engine ratio ~1.5-1.9x, absolute ~1M events/s on the dev box) so
# they only trip on real regressions, not machine noise.
SMOKE_MIN_ENGINE_RATIO = 1.2
SMOKE_MIN_EVENTS_PER_SEC = 150_000

# The stack must beat the seed tree by at least this factor on the 1 MB
# one-way point (measured ~1.5-1.7x; the ISSUE's stretch target is 3x).
MIN_STACK_SPEEDUP = 1.25


# ---------------------------------------------------------------------------
# Engine-level microbenchmark
# ---------------------------------------------------------------------------

def _drive_mix(sim, frames: int) -> tuple[int, float]:
    """Run the protocol-shaped event mix; returns (events, wall_seconds)."""
    start = time.perf_counter()

    def proc():
        for i in range(frames):
            # Zero-delay wake-ups (event trigger chains: IRQ gate, ring
            # hand-off, resource grant).
            ev = sim.event()
            sim.schedule(0, ev.trigger, None)
            yield ev
            # Wire path: DMA, serialisation, switch forward, delivery.
            yield 600
            yield 12336
            yield 1000
            yield 600
            # Retransmit-style timer: armed, then cancelled by the ack.
            t = sim.timer(400_000, _noop)
            t.cancel()
            ev2 = sim.event()
            sim.schedule(0, ev2.trigger, None)
            yield ev2
            # Receive-side CPU charges (per-frame recv + memcpy).
            yield 650
            yield 1200

    p = sim.process(proc())
    sim.run_until_done(p)
    return sim.events_processed, time.perf_counter() - start


def _noop() -> None:
    pass


def measure_engines(frames: int = 50_000, repeats: int = 3) -> dict:
    """Best-of-N events/sec for both engines on the same mix."""
    out = {}
    for name, cls in (("seed_engine", SeedSimulator), ("new_engine", Simulator)):
        best = None
        for _ in range(repeats):
            events, wall = _drive_mix(cls(), frames)
            rate = events / wall
            if best is None or rate > best["events_per_sec"]:
                best = {
                    "events": events,
                    "wall_s": round(wall, 4),
                    "events_per_sec": round(rate),
                }
        out[name] = best
    out["engine_ratio"] = round(
        out["new_engine"]["events_per_sec"] / out["seed_engine"]["events_per_sec"], 3
    )
    return out


# ---------------------------------------------------------------------------
# Full-stack measurements
# ---------------------------------------------------------------------------

def _time_stack_point(
    config: str,
    benchmark: str,
    size: int,
    repeats: int = 3,
    fastpath: bool = False,
) -> dict:
    """Best-of-N wall time for one uncached micro point on this tree.

    Phases are timed separately — ``setup`` (cluster construction and
    wiring) and ``run`` (the actual simulation, with its own events/s) —
    so a hot-path change shows up where it acts instead of being diluted
    by constant setup cost.
    """
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        cluster = make_cluster(
            config, nodes=2, seed=0, synthetic_payloads=True,
            fastpath=fastpath,
        )
        setup_s = time.perf_counter() - t0
        iterations = 10 if size >= 262144 else None
        start = time.perf_counter()
        run_micro(benchmark, cluster, size, iterations=iterations)
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_s"]:
            events = cluster.sim.events_processed
            best = {
                "wall_s": round(wall, 4),  # run phase only (setup excluded)
                "setup_s": round(setup_s, 4),
                "events": events,
                "events_per_sec": round(events / wall) if wall > 0 else 0,
                "heap_pushes": cluster.sim.heap_pushes,
                "fastlane_hits": cluster.sim.fastlane_hits,
                "cancelled_popped": cluster.sim.cancelled_popped,
            }
            if fastpath and cluster.fastpath is not None:
                best["fastpath"] = cluster.fastpath.stats.to_dict()
    best["commit"] = tree_commit()
    return best


_SEED_POINT_SCRIPT = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.bench.cluster import make_cluster
from repro.bench.micro import run_micro
best = None
for _ in range(3):
    cluster = make_cluster("{config}", nodes=2, seed=0)
    start = time.perf_counter()
    run_micro("{benchmark}", cluster, {size}, iterations={iterations})
    wall = time.perf_counter() - start
    if best is None or wall < best["wall_s"]:
        best = {{"wall_s": round(wall, 4),
                 "events": cluster.sim.events_processed}}
print(json.dumps(best))
"""


def _time_seed_tree_point(config: str, benchmark: str, size: int) -> dict | None:
    """Time the same point on the seed commit, in a temporary worktree.

    Returns None when the baseline cannot be materialised (no git history,
    shallow clone) — callers then skip the comparison rather than fail.
    """
    try:
        seed_commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-list", "--max-parents=0", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    tmp = tempfile.mkdtemp(prefix="seedtree-")
    worktree = str(Path(tmp) / "seed")
    try:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "add", "--detach",
             worktree, seed_commit],
            capture_output=True, check=True,
        )
        script = _SEED_POINT_SCRIPT.format(
            config=config, benchmark=benchmark, size=size,
            iterations=10 if size >= 262144 else None,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(Path(worktree) / "src")],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(proc.stdout)
        result["commit"] = seed_commit[:12]
        return result
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            json.JSONDecodeError):
        return None
    finally:
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "remove", "--force",
             worktree],
            capture_output=True,
        )


def _merge_bench_json(update: dict) -> dict:
    """Merge ``update`` into BENCH_engine.json (smoke and full both write)."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            data = {}
    data.update(update)
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")
    return data


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_engine_speed_smoke():
    """Sanity floors on engine throughput (the ``bench-smoke`` invocation)."""
    engines = measure_engines()
    point = _time_stack_point("1L-1G", "one-way", 1_048_576, repeats=2)
    point_ff = _time_stack_point(
        "1L-1G", "one-way", 1_048_576, repeats=2, fastpath=True
    )
    report = {
        "engine_mix": engines,
        "stack_one-way_1L_1G_1MB": point,
        "stack_one-way_1L_1G_1MB_fastpath": point_ff,
        "fastpath_speedup_one-way_1MB": round(
            point["wall_s"] / point_ff["wall_s"], 3
        ) if point_ff["wall_s"] > 0 else None,
    }
    _merge_bench_json(report)
    print(json.dumps(report, indent=2))
    assert (
        engines["new_engine"]["events_per_sec"] >= SMOKE_MIN_EVENTS_PER_SEC
    ), "engine throughput collapsed below the sanity floor"
    assert engines["engine_ratio"] >= SMOKE_MIN_ENGINE_RATIO, (
        "two-lane engine no longer meaningfully faster than the seed engine"
    )


@pytest.mark.slow
def test_engine_speed_full():
    """Full harness: seed-tree baseline, Fig-2 sweep walls, speedup ratios."""
    engines = measure_engines(frames=100_000)
    report = {"engine_mix": engines}

    # Per-figure wall times: the three micro benchmarks at their 1 MB peak
    # (the points every Figure-2 panel is bottlenecked on), each with a
    # fastpath-enabled twin so the comparison shows where fast-forward
    # helps (one-way arms; ping-pong and two-way stay frame-level).
    for benchmark in ("one-way", "ping-pong", "two-way"):
        report[f"stack_{benchmark}_1L_1G_1MB"] = _time_stack_point(
            "1L-1G", benchmark, 1_048_576
        )
        report[f"stack_{benchmark}_1L_1G_1MB_fastpath"] = _time_stack_point(
            "1L-1G", benchmark, 1_048_576, fastpath=True
        )

    # Seed-tree comparison on the headline point.
    current = report["stack_one-way_1L_1G_1MB"]
    seed = _time_seed_tree_point("1L-1G", "one-way", 1_048_576)
    if seed is not None:
        speedup = seed["wall_s"] / current["wall_s"]
        report["seed_tree_one-way_1L_1G_1MB"] = seed
        report["stack_speedup_vs_seed"] = round(speedup, 3)
        # Effective events/sec: both trees charged with the seed event count.
        report["effective_events_per_sec"] = {
            "seed_tree": round(seed["events"] / seed["wall_s"]),
            "current": round(seed["events"] / current["wall_s"]),
        }
    _merge_bench_json(report)
    print(json.dumps(report, indent=2))

    if seed is None:
        pytest.skip("seed tree unavailable (no git history); recorded current only")
    assert report["stack_speedup_vs_seed"] >= MIN_STACK_SPEEDUP, (
        f"hot-path speedup regressed: {report['stack_speedup_vs_seed']}x "
        f"< {MIN_STACK_SPEEDUP}x vs the seed tree"
    )
