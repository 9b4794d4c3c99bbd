"""The shape every pausable run shares, and what rebuilds one.

:mod:`repro.checkpoint` restores a run by building it again and replaying
to the captured instant.  What builds it again is the constructor call
itself: :class:`Run` records the bound arguments, defaults applied, before
``__init__`` runs, so a parameter added to a subclass's signature is in the
recipe without being typed anywhere else.
"""

from __future__ import annotations

import inspect

__all__ = ["Run"]


class Run:
    """One experiment on one cluster: built, optionally paused, finished.

    A subclass's ``__init__`` wires ``self.cluster`` and the workload without
    advancing simulated time, keeping what is live in attributes; its
    ``finish()`` runs to completion and reports.  ``type(run)(**run.recipe)``
    is the same run again.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Resolved once per class, not per run; ``self`` is not an argument.
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        cls._signature = inspect.Signature(params)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        bound = cls._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.recipe = dict(bound.arguments)
        return self

    def state(self) -> dict:
        """Capture root for the checkpoint walker: all the run holds."""
        return {k: v for k, v in vars(self).items() if k != "recipe"}

    def run_to(self, time_ns: int) -> None:
        """Execute every event due at or before ``time_ns``, then pause
        (the clock stays at the last executed event)."""
        self.cluster.sim.run_until_time(time_ns)
