"""The recipe is the constructor call, recorded by ``Run`` — for every kind."""

import inspect

import pytest

from repro.bench.crash import CrashRun
from repro.bench.run import Run
from repro.bench.serve import ServeRun
from repro.checkpoint import FORMAT_VERSION, Checkpoint, restore, take_checkpoint
from repro.serve import ArrivalSpec
from repro.verify.fuzz import FabricRun, ScenarioRun, scenario_from_seed

MS = 1_000_000

# (class, positional args, keyword args, pause instant)
CASES = {
    "scenario": (ScenarioRun, (scenario_from_seed(31, "small", "outage"),),
                 {"collect": True}, 1 * MS),
    "fabric": (FabricRun, (7,), {}, 1 * MS),
    "crash": (CrashRun, ("2L-1G", 1024), {"run_ns": 20 * MS, "seed": 3}, 12 * MS),
    "serve": (ServeRun, ("1L-10G", 1), {"n_servers": 2, "duration_ns": 4 * MS,
                                         "arrival": ArrivalSpec(rate_rps=30_000),
                                         "seed": 9}, 2 * MS),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_recipe_is_the_bound_constructor_call(case):
    cls, args, kwargs, _pause = case
    run = cls(*args, **kwargs)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert list(run.recipe) == [p.name for p in params]  # every parameter
    for p, value in zip(params, args):  # positional ...
        assert run.recipe[p.name] is value
    for name, value in kwargs.items():  # ... keyword ...
        assert run.recipe[name] is value
    untouched = [p for p in params[len(args):] if p.name not in kwargs]
    assert untouched or cls is FabricRun  # (its one parameter has no default)
    for p in untouched:  # ... and defaults
        assert run.recipe[p.name] == p.default


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_recipe_rebuilds_the_same_paused_state(case):
    cls, args, kwargs, pause = case
    run = cls(*args, **kwargs)
    run.run_to(pause)
    ck = take_checkpoint(run)
    assert ck.run_class is cls and ck.recipe == run.recipe
    again = cls(**run.recipe)
    again.run_to(pause)
    assert take_checkpoint(again).fingerprint == ck.fingerprint
    assert type(restore(ck)) is cls  # verified replay, by the stored class


def test_a_new_run_kind_is_checkpointable_by_subclassing():
    class TwoSeeds(FabricRun):
        def __init__(self, seed: int, other: int = 5) -> None:
            super().__init__(seed)
            self.other = other

    run = TwoSeeds(7, other=6)
    assert run.recipe == {"seed": 7, "other": 6}
    run.run_to(1 * MS)
    assert restore(take_checkpoint(run)).other == 6


def test_only_runs_can_be_checkpointed_or_restored():
    with pytest.raises(TypeError, match="not a Run"):
        take_checkpoint(object())
    assert not issubclass(dict, Run)
    ck = Checkpoint(
        format_version=FORMAT_VERSION, run_class=dict, recipe={},
        time_ns=0, fingerprint="", state={},
    )
    with pytest.raises(TypeError, match="not a Run"):
        restore(ck)
