"""Checkpoint-accelerated shrinking: fast probes must equal cold runs."""

from dataclasses import replace

import pytest

from repro.checkpoint.fork import HAVE_FORK
from repro.checkpoint.shrink import CheckpointedShrinker, _dropped_fault_indices
from repro.control import Outage, PermanentFailure
from repro.verify.fuzz import (
    OpSpec,
    ScenarioRun,
    run_scenario,
    scenario_from_seed,
    shrink,
)


def failing_scenario():
    """A genuinely failing case: a single-rail write whose only path is
    permanently killed mid-transfer (no control plane, no failover), plus
    two red-herring outages the shrinker should drop."""
    return replace(
        scenario_from_seed(5, "small", "none"),
        config="1L-1G",
        nodes=2,
        striping=None,
        control_plane=False,
        ops=(OpSpec(src=0, dst=1, kind="write", size=262144, wait=True),),
        faults=(
            PermanentFailure(at_ns=200_000, node=0, rail=0),
            Outage(at_ns=400_000, node=1, rail=0, duration_ns=100_000),
            Outage(at_ns=600_000, node=0, rail=0, duration_ns=100_000),
        ),
        limit_ns=50_000_000,
    )


def recipe(sc, **kwargs):
    return ScenarioRun(sc, **kwargs).recipe


class TestCandidateMatching:
    def test_fault_subsets_recognised(self):
        sc = failing_scenario()

        def dropped(cand):
            return _dropped_fault_indices(recipe(sc), recipe(cand))

        assert dropped(sc) == ()
        assert dropped(replace(sc, faults=sc.faults[1:])) == (0,)
        assert dropped(replace(sc, faults=sc.faults[:1])) == (1, 2)

    def test_non_fault_changes_rejected(self):
        sc = failing_scenario()

        def dropped(cand, **kwargs):
            return _dropped_fault_indices(recipe(sc), recipe(cand, **kwargs))

        assert dropped(replace(sc, nodes=3)) is None
        assert dropped(replace(sc, ops=(replace(sc.ops[0], size=64),))) is None
        assert dropped(replace(sc, faults=(sc.faults[1], sc.faults[0]))) is None
        assert dropped(sc, fastpath=True) is None  # a change outside the scenario


class TestCancelledFaultEqualsAbsentFault:
    def test_cancel_pending_matches_cold_run(self):
        """Withdrawing a not-yet-fired fault from a paused run must finish
        bit-identically to a run built without that fault."""
        sc = failing_scenario()
        dropped = replace(sc, faults=sc.faults[:1])  # drop both outages
        cold = run_scenario(dropped)

        run = ScenarioRun(sc)
        run.run_to(100_000)  # before every fault
        run.faults.cancel_pending(1)
        run.faults.cancel_pending(2)
        res = run.finish()
        assert res.fingerprint == cold.fingerprint
        assert res.elapsed_ns == cold.elapsed_ns
        assert res.failure == cold.failure

    def test_cancel_after_start_time_rejected(self):
        sc = failing_scenario()
        run = ScenarioRun(sc)
        run.run_to(450_000)  # fault 1 (at 400 us) already fired
        with pytest.raises(ValueError, match="already have fired"):
            run.faults.cancel_pending(1)


@pytest.mark.skipif(not HAVE_FORK, reason="requires os.fork")
class TestCheckpointedShrink:
    def test_same_minimal_scenario_as_cold_shrinker(self):
        res = run_scenario(failing_scenario())
        cold = shrink(res)
        with CheckpointedShrinker(res.recipe) as oracle:
            fast = shrink(res, fails=oracle.fails)
        assert fast == cold
        assert len(fast["sc"].faults) == 1  # both outages shed, the killer kept
        assert oracle.stats.fast_probes > 0  # the fork point actually answered

    def test_oracle_verdicts_match_cold_execution(self):
        sc = failing_scenario()
        with CheckpointedShrinker(recipe(sc)) as oracle:
            for cand in (
                sc,
                replace(sc, faults=sc.faults[:1]),
                replace(sc, faults=sc.faults[1:]),  # drops the real killer
            ):
                assert oracle.fails(recipe(cand)) == (not run_scenario(cand).ok)
            assert oracle.stats.fast_probes >= 2
