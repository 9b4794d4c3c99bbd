"""Deterministic checkpoint/restore of complete simulator state.

The simulator's hot loops run suspended Python generators, which cannot
be deep-copied or pickled; a checkpoint therefore has two synchronized
halves:

* **capture** (:mod:`repro.checkpoint.state`): a reflective walk flattens
  every live object reachable from the run — event queue (both lanes,
  including lazily-deleted timers), RNG streams mid-sequence, windows,
  retransmit queues, NIC rings, switch and EcmpSwitch queues and flow
  pins, journals, incarnations, generator frames — into an ordered
  ``path -> token`` map with a SHA-256 fingerprint;
* **restore by verified replay**: the :class:`Checkpoint` carries the
  *recipe* that built the run; :func:`restore` rebuilds it from scratch,
  replays to the captured instant (``Simulator.run_until_time`` is
  scheduling-exact, never snapping the clock), re-captures, and raises
  :class:`CheckpointMismatch` with a path-level diff unless the replayed
  fingerprint is byte-identical.  Any state living *outside* the
  checkpoint — module-level mutables, aliased frames, recreated-from-seed
  RNG streams — turns into a reproducible mismatch instead of a latent
  heisenbug, which is the point.

A run is never continued any other way: to replay a failure with
tracing on, ``restore(ck, trace=True)`` and then ``run.run_to(t)``; to
reduce one, :func:`repro.verify.fuzz.shrink` rebuilds each candidate
from its recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.run import Run
from .state import capture_state, diff_states, state_fingerprint

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointMismatch",
    "take_checkpoint",
    "restore",
]

# Bump when the capture encoding or the Checkpoint layout changes:
# fingerprints are only comparable between identical format versions.
FORMAT_VERSION = 2


class CheckpointMismatch(AssertionError):
    """Replaying a checkpoint's recipe did not reproduce its state."""

    def __init__(self, expected: str, actual: str, diffs: list) -> None:
        self.expected = expected
        self.actual = actual
        self.diffs = diffs
        lines = [
            f"restore diverged: fingerprint {actual[:16]}… != "
            f"checkpointed {expected[:16]}…; first differing paths:"
        ]
        for path, a, b in diffs[:10]:
            lines.append(f"  {path}: checkpoint={a!r} replay={b!r}")
        super().__init__("\n".join(lines))


@dataclass
class Checkpoint:
    """A captured instant of one simulation run.

    ``run_class(**recipe)`` rebuilds the run from scratch; ``time_ns`` is
    the exact pause instant (the clock is never snapped past the last
    executed event, so replaying ``run_to(time_ns)`` stops at the same
    event); ``state``/``fingerprint`` witness the capture.
    """

    format_version: int
    run_class: type  # the Run subclass that was checkpointed
    recipe: dict  # its constructor arguments (Run records them)
    time_ns: int
    fingerprint: str
    state: dict = field(repr=False)


def _capture(run) -> tuple[dict, str]:
    st = capture_state(run.state())
    return st, state_fingerprint(st)


def take_checkpoint(run: Run) -> Checkpoint:
    """Snapshot a paused :class:`~repro.bench.run.Run` of any kind."""
    if not isinstance(run, Run):
        raise TypeError(f"cannot checkpoint {type(run).__name__}: not a Run")
    state, fp = _capture(run)
    return Checkpoint(
        format_version=FORMAT_VERSION,
        run_class=type(run),
        recipe=dict(run.recipe),
        time_ns=run.cluster.sim.now,
        fingerprint=fp,
        state=state,
    )


def restore(ck: Checkpoint, verify: bool = True, **overrides):
    """Rebuild a checkpoint's run and replay it to the captured instant.

    Returns the live, paused run object (same type that was
    checkpointed), ready for ``finish()`` or further ``run_to`` calls.
    With ``verify=True`` the replayed state is re-captured and compared
    byte for byte; a divergence raises :class:`CheckpointMismatch` listing
    the offending paths.  ``overrides`` tweak the recipe (e.g.
    ``trace=True`` for a traced replay of a failure — tracing is
    record-only but changes the capture, so it forces ``verify=False``).
    """
    if ck.format_version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format v{ck.format_version} != "
            f"supported v{FORMAT_VERSION}"
        )
    cls = ck.run_class
    if not (isinstance(cls, type) and issubclass(cls, Run)):
        raise TypeError(f"cannot restore {cls!r}: not a Run subclass")
    if overrides:
        verify = False
    run = cls(**{**ck.recipe, **overrides})
    run.run_to(ck.time_ns)
    if verify:
        state, fp = _capture(run)
        if fp != ck.fingerprint:
            raise CheckpointMismatch(
                ck.fingerprint, fp, diff_states(ck.state, state)
            )
    return run
