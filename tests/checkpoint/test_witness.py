"""Determinism witness: run-to-end == pause+checkpoint+finish == restore+finish.

For every cell the protocol is:

* **A** — run the scenario start to finish (the reference),
* **B** — same run paused at T (mid-fault-window when the cell has
  faults), checkpointed with a verified state capture, then finished,
* **C** — the checkpoint *restored* (rebuild + replay to T, fingerprint
  re-verified against the capture) and finished.

All three results must be equal, dataclass-field for dataclass-field —
including the run's own bit-determinism fingerprint.  Any state the
capture misses, any module-level mutable leaking between runs, any clock
snap in the pause path turns into a hard inequality here.

The representative diagonal (one cell per workload, every fault profile
covered) runs in tier-1; the full workload × fault grid is the same code
behind ``REPRO_FULL_WITNESS=1`` (exercised by the checkpoint-smoke CI
job).
"""

import itertools
import os

import pytest

from repro.bench.crash import CrashRun, run_crash
from repro.bench.serve import ServeRun
from repro.checkpoint import restore, take_checkpoint
from repro.control import Crash, Restart
from repro.serve import ArrivalSpec, ServerSpec
from repro.verify.fuzz import (
    FAMILIES,
    FAULT_PROFILES,
    WORKLOADS,
    FabricRun,
    ScenarioRun,
    run_scenario,
    scenario_from_seed,
)

FULL_GRID = os.environ.get("REPRO_FULL_WITNESS") == "1"


def _pause_time(sc) -> int:
    """Mid-fault-window for faulty cells, an early instant otherwise."""
    if sc.faults:
        return min(f.at_ns for f in sc.faults) + 1_000
    return 1_000_000


def _witness_fuzz(workload: str, profile: str, seed: int) -> None:
    sc = scenario_from_seed(seed, workload, profile)
    res_a = run_scenario(sc)

    run_b = ScenarioRun(sc)
    run_b.run_to(_pause_time(sc))
    ck = take_checkpoint(run_b)
    res_b = run_b.finish()
    assert res_b == res_a, (
        f"{workload}/{profile}: pausing changed the run\n{res_b}\n{res_a}"
    )

    run_c = restore(ck)  # raises CheckpointMismatch on any state drift
    res_c = run_c.finish()
    assert res_c == res_a, (
        f"{workload}/{profile}: restore changed the run\n{res_c}\n{res_a}"
    )


class TestFuzzGridWitness:
    @pytest.mark.parametrize(
        "workload,profile",
        [
            # One cell per workload; all five fault profiles covered.
            ("bulk", "none"),
            ("small", "outage"),
            ("scatter", "flap"),
            ("read", "ber"),
            ("mixed", "chaos"),
        ],
    )
    def test_representative_cells(self, workload, profile):
        _witness_fuzz(workload, profile, seed=31)

    @pytest.mark.skipif(
        not FULL_GRID, reason="full grid behind REPRO_FULL_WITNESS=1"
    )
    @pytest.mark.parametrize(
        "workload,profile", list(itertools.product(WORKLOADS, FAULT_PROFILES))
    )
    def test_full_grid(self, workload, profile):
        _witness_fuzz(workload, profile, seed=31)

    def test_checkpoint_inside_fault_window(self):
        """T lands between a chaos cell's first and last fault."""
        sc = scenario_from_seed(3, "mixed", "chaos")
        starts = sorted(f.at_ns for f in sc.faults)
        assert len(starts) >= 2, "seed 3 chaos no longer draws several faults"
        t = starts[0] + 1_000
        assert t < starts[-1], "pause no longer inside the fault window"
        res_a = run_scenario(sc)
        run_b = ScenarioRun(sc)
        run_b.run_to(t)
        ck = take_checkpoint(run_b)
        assert ck.time_ns <= t
        assert run_b.finish() == res_a
        assert restore(ck).finish() == res_a


class TestCrashWitness:
    def test_checkpoint_inside_crash_window(self):
        """T = 12 ms sits between the crash (10 ms) and restart (15 ms)."""
        res_a = run_crash()

        run_b = CrashRun()
        run_b.run_to(12_000_000)
        ck = take_checkpoint(run_b)
        assert run_b.finish() == res_a

        assert restore(ck).finish() == res_a


class TestFabricWitness:
    def test_trunk_churn_cell(self):
        """Seed 7: leaf-spine with trunk drain/fail events mid-run."""
        recipe = FAMILIES["fabric"].derive(7)
        assert recipe["faults"]
        res_a = FabricRun(**recipe).finish()

        run_b = FabricRun(**recipe)
        run_b.run_to(min(f.at_ns for f in recipe["faults"]) + 1_000)
        ck = take_checkpoint(run_b)
        assert run_b.finish() == res_a

        assert restore(ck).finish() == res_a


class TestServeWitness:
    """Checkpoint mid-spike == run-to-end for the serving layer.

    The pause instant sits inside the crash window with arrival batches
    pending at both clients, so the capture must carry the arrival
    sources' pre-drawn batch state, the balancer's liveness view, the
    journal, and every histogram bucket for the equality to hold.
    """

    RECIPE = dict(
        config="1L-10G",
        n_clients=2,
        n_servers=2,
        policy="least-outstanding",
        arrival=ArrivalSpec(kind="poisson", rate_rps=40_000, batch=64),
        server=ServerSpec(queue_cap=64, workers=4, service=("fixed", 15_000)),
        duration_ns=30_000_000,
        window_ns=5_000_000,
        seed=14,
        faults=[
            Crash(at_ns=8_000_000, node=3),
            Restart(at_ns=8_000_000, node=3, delay_ns=4_000_000),
        ],
    )

    def test_checkpoint_inside_crash_window(self):
        """T = 10 ms sits between the crash (8 ms) and restart (12 ms)."""
        res_a = ServeRun(**self.RECIPE).finish()

        run_b = ServeRun(**self.RECIPE)
        run_b.run_to(10_000_000)
        # The pause caught live open-loop state, not a quiesced lull.
        assert run_b.runtime.arrivals_armed
        assert any(
            s.pending_batch > 0 for s in run_b.runtime.sources.values()
        ), "no arrival batch pending at the pause instant"
        ck = take_checkpoint(run_b)
        assert ck.run_class is ServeRun
        res_b = run_b.finish()
        assert res_b == res_a, "pausing changed the serving run"

        res_c = restore(ck).finish()  # raises CheckpointMismatch on drift
        assert res_c == res_a, "restore changed the serving run"


class TestComposedWitness:
    """Fabric x serve x gray x crash in one run: nothing but ``ServeRun``
    arguments, so it pauses, checkpoints and restores like any other."""

    def test_leaf_spine_serving_with_a_crash_and_a_slow_node(self):
        from repro.bench import leaf_spine_3to1
        from repro.control import SlowNode

        recipe = dict(
            config="1L-1G",
            n_clients=2,
            n_servers=3,
            policy="least-outstanding",
            arrival=ArrivalSpec(kind="poisson", rate_rps=30_000, batch=64),
            server=ServerSpec(queue_cap=64, workers=4, service=("fixed", 20_000)),
            duration_ns=8_000_000,
            seed=18,
            fabric=leaf_spine_3to1(),
            faults=[
                Crash(at_ns=2_000_000, node=4),
                Restart(at_ns=2_000_000, node=4, delay_ns=1_500_000),
                SlowNode(at_ns=1_000_000, node=2, duration_ns=3_000_000, factor=4.0),
            ],
            use_monitor=True,
        )
        res_a = ServeRun(**recipe).finish()
        assert res_a.ok, res_a.violations
        assert res_a.crashes == 1 and res_a.completed > 100

        run_b = ServeRun(**recipe)
        run_b.run_to(2_500_000)  # node 4 is down, node 2 is slow
        ck = take_checkpoint(run_b)
        assert run_b.finish() == res_a
        assert restore(ck).finish() == res_a
