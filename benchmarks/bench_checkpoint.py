"""Checkpoint benchmarks: snapshot cost, warm sweeps, fast shrinking.

Measures what the checkpoint/restore subsystem (``repro.checkpoint``)
costs and what its fork-based payoffs save, recorded to
``BENCH_checkpoint.json`` at the repo root:

* **snapshot/restore cost** — wall-clock to capture the full simulator
  state (flattened paths + SHA-256 fingerprint) mid-run, and to restore
  (verified replay) the same checkpoint;
* **warm-start speedup** — a one-way sweep up to 1 MB where the shared
  prefix (cluster build, connect, warmup stream) is simulated once and
  each size forks from it, vs the cold twin that rebuilds the prefix per
  size.  The two must be bit-identical; the fork path is just faster;
* **shrinker savings** — minimizing a prefix-heavy failing scenario with
  fork-from-checkpoint probes vs cold re-execution from t=0.  Both must
  reach the same minimal scenario.

Invocations:

* smoke —
  ``PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py -k smoke``
  (seconds; asserts bit-identity and the speedup floors).
"""

import json
import time
from dataclasses import replace

import pytest
from conftest import record

from repro.bench.parallel import warm_micro_sweep
from repro.checkpoint import restore, take_checkpoint
from repro.checkpoint.fork import HAVE_FORK
from repro.checkpoint.shrink import CheckpointedShrinker
from repro.control import Outage, PermanentFailure
from repro.verify.fuzz import OpSpec, ScenarioRun, run_scenario, scenario_from_seed, shrink


MS = 1_000_000

# Acceptance floors.  Bit-identity is the hard requirement; the speedup
# floors are deliberately modest (CI machines are noisy) — the recorded
# numbers carry the real magnitude.
MIN_WARM_SPEEDUP = 1.05
MIN_SHRINK_SPEEDUP = 1.5

WARM_SIZES = (1024, 4096, 16384, 65536, 262144, 1048576)


def _prefix_heavy_failing_scenario():
    """A failing case whose healthy prefix dominates the run: a 1 MB
    write streams for 30 ms (of ~44 ms to complete) before a permanent
    single-rail failure kills it, trailed by sixteen red-herring outages
    the shrinker probes (and drops) one by one.  Cold, every fault probe
    re-simulates the 30 ms prefix; parked, it forks past it.  Halving
    the op passes (512 KB completes before the kill), so the park is
    built once and serves the whole session."""
    decoys = tuple(
        Outage(
            at_ns=(31 + k) * MS,
            node=k % 2,
            rail=0,
            duration_ns=MS // 2,
        )
        for k in range(16)
    )
    # Knobs pinned to their simplest values: the stream runs at full
    # line rate (an event-dense, expensive-to-resimulate prefix) and the
    # shrinker's knob pass has nothing left to simplify.
    return replace(
        scenario_from_seed(5, "small", "none"),
        config="1L-1G",
        nodes=2,
        striping=None,
        control_plane=False,
        congestion="static",
        pacing=False,
        tx_ring_frames=None,
        ecn_threshold=None,
        ops=(
            OpSpec(src=0, dst=1, kind="write", size=1_048_576, wait=True),
        ),
        faults=(PermanentFailure(at_ns=30 * MS, node=0, rail=0),) + decoys,
        limit_ns=200 * MS,
    )


def test_snapshot_restore_cost_smoke():
    """Capture + verified-restore cost on a mid-flight fuzz scenario."""
    sc = scenario_from_seed(9, "mixed", "outage")
    run = ScenarioRun(sc)
    run.run_to(1_500_000)

    t0 = time.perf_counter()
    ck = take_checkpoint(run)
    capture_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    restored = restore(ck)  # rebuild, replay, re-capture, verify
    restore_ms = (time.perf_counter() - t0) * 1e3

    # The checkpointed run and its restore finish bit-identically to an
    # uninterrupted run (the witness protocol).
    ref = run_scenario(sc)
    assert run.finish() == ref
    assert restored.finish() == ref

    report = {
        "snapshot_restore": {
            "scenario": "seed 9 mixed/outage @ 1.5 ms",
            "state_paths": len(ck.state),
            "capture_ms": round(capture_ms, 2),
            "verified_restore_ms": round(restore_ms, 2),
        }
    }
    record("checkpoint", report)
    print(json.dumps(report, indent=2))


@pytest.mark.skipif(not HAVE_FORK, reason="requires os.fork")
def test_warm_sweep_smoke():
    """Forked warm sweep == cold sweep, at a measured wall-clock saving."""
    # A substantial warmup stream (128 x 16 KiB) makes the shared prefix
    # worth sharing; the fork path pays it once, the cold path per size.
    t0 = time.perf_counter()
    warm = warm_micro_sweep(
        "1L-1G", sizes=WARM_SIZES, warmup=128, warmup_size=16384,
        use_fork=True,
    )
    warm_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = warm_micro_sweep(
        "1L-1G", sizes=WARM_SIZES, warmup=128, warmup_size=16384,
        use_fork=False,
    )
    cold_s = time.perf_counter() - t0

    assert warm == cold, "forked warm sweep diverged from cold rebuild"
    speedup = cold_s / warm_s
    report = {
        "warm_sweep": {
            "config": "1L-1G",
            "sizes": list(WARM_SIZES),
            "warm_s": round(warm_s, 3),
            "cold_s": round(cold_s, 3),
            "speedup": round(speedup, 2),
            "bit_identical": True,
        }
    }
    record("checkpoint", report)
    print(json.dumps(report, indent=2))
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep {warm_s:.3f}s vs cold {cold_s:.3f}s "
        f"({speedup:.2f}x, floor {MIN_WARM_SPEEDUP}x)"
    )


@pytest.mark.skipif(not HAVE_FORK, reason="requires os.fork")
def test_shrinker_savings_smoke():
    """Fork-from-checkpoint probes reach the cold shrinker's answer faster."""
    res = run_scenario(_prefix_heavy_failing_scenario())
    assert not res.ok, "scenario must fail for shrinking"

    t0 = time.perf_counter()
    cold_min = shrink(res)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with CheckpointedShrinker(res.recipe) as oracle:
        fast_min = shrink(res, fails=oracle.fails)
    fast_s = time.perf_counter() - t0
    stats = oracle.stats

    assert fast_min == cold_min, "checkpointed shrink found a different minimum"
    assert stats.fast_probes > 0, "fork point never answered a probe"
    speedup = cold_s / fast_s
    report = {
        "shrinker": {
            "scenario": "1 MB write, rail killed at 30 ms, 16 decoy outages",
            "minimal_faults": len(fast_min["sc"].faults),
            "fast_probes": stats.fast_probes,
            "cold_probes": stats.cold_probes,
            "reparks": stats.reparks,
            "fast_s": round(fast_s, 3),
            "cold_s": round(cold_s, 3),
            "speedup": round(speedup, 2),
        }
    }
    record("checkpoint", report)
    print(json.dumps(report, indent=2))
    assert speedup >= MIN_SHRINK_SPEEDUP, (
        f"checkpointed shrink {fast_s:.3f}s vs cold {cold_s:.3f}s "
        f"({speedup:.2f}x, floor {MIN_SHRINK_SPEEDUP}x)"
    )
