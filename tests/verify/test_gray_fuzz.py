"""The randomized gray-failure grid: deterministic, conserved, covered.

The ``gray`` fuzz family derives a whole scenario — topology, load, tail
policy, detection, one or two gray faults, maybe a crash — from a seed,
runs it under the invariant monitor, and fingerprints the result.  The
grid only means something if (a) a seed is perfectly reproducible and
(b) a modest seed range actually exercises the space.
"""

from functools import cache

from repro.control import Crash, Restart
from repro.verify.fuzz import FuzzResult, run_family


@cache
def _gray(seed: int) -> FuzzResult:
    """One ``gray`` seed, run once for every test of this module."""
    return run_family("gray", seed)


def _gray_kinds(res: FuzzResult) -> list:
    """Class names of the gray events the seed drew (not its crash)."""
    return [
        type(ev).__name__ for ev in res.recipe["faults"]
        if not isinstance(ev, (Crash, Restart))
    ]


def test_gray_scenario_is_deterministic():
    first = run_family("gray", 3)
    second = run_family("gray", 3)
    assert isinstance(first, FuzzResult) and first.family == "gray"
    assert _gray_kinds(first)
    assert first == second  # every field, the whole ServeResult included


def test_gray_scenarios_hold_invariants():
    for seed in range(10):
        run = _gray(seed)
        res = run.result
        assert run.ok, (seed, run.violations[:3])
        assert res.generated > 0
        assert res.generated == (
            res.completed + res.shed + res.shed_client + res.failed
        ), seed


def test_gray_grid_covers_the_space():
    results = [_gray(seed) for seed in range(30)]
    drew = [r.recipe for r in results]
    kinds = {k for r in results for k in _gray_kinds(r)}
    assert len(kinds) >= 4, f"30 seeds should span most kinds: {kinds}"
    assert any(d["tail"] is not None for d in drew)
    assert any(d["tail"] is None for d in drew)
    assert any(d["gray_detection"] for d in drew)
    assert any(not d["gray_detection"] for d in drew)
    assert any(r.result.hedges_sent > 0 for r in results)
