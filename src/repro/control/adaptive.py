"""Health-aware striping: byte-deficit round-robin weighted by edge score.

:class:`AdaptiveStriping` plugs into the core striping interface
(:func:`repro.core.register_striping_policy` under the name
``"adaptive"``).  It behaves exactly like the paper's byte-deficit
round-robin when every edge is healthy, but scales each rail's effective
capacity by the health score the lifecycle manager pushes via
:meth:`set_score`: a rail at score 0.5 is charged bytes at twice the
rate, so it receives roughly half the traffic; a rail at score 0 is
skipped outright even before the failure detector masks it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.striping import StripingPolicy, register_striping_policy
from ..ethernet import Nic

__all__ = ["AdaptiveStriping"]

# Below this score a rail gets no fresh traffic even if not yet masked.
_MIN_USABLE_SCORE = 0.05


class AdaptiveStriping(StripingPolicy):
    """Byte-deficit striping with per-rail health weighting."""

    def __init__(self, nics: Sequence[Nic]) -> None:
        super().__init__(nics)
        self._cursor = 0
        self._charged = [0.0] * len(nics)  # score-scaled assigned bytes
        self._scores = [1.0] * len(nics)

    def enable_rail(self, rail: int) -> None:
        super().enable_rail(rail)
        # Same catch-up hazard as round-robin: rejoin at the low-water
        # mark of the rails that stayed active.
        others = [
            c
            for r, c in enumerate(self._charged)
            if r != rail and r not in self.masked
        ]
        if others:
            self._charged[rail] = max(self._charged[rail], min(others))

    def set_score(self, rail: int, score: float) -> None:
        """Lifecycle manager pushes the latest health score for ``rail``."""
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        self._scores[rail] = max(0.0, min(1.0, score))

    def score_of(self, rail: int) -> float:
        return self._scores[rail]

    def snapshot(self):
        return self._cursor, list(self._charged)

    def restore(self, saved) -> None:
        self._cursor, self._charged = saved[0], list(saved[1])

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        nics = self.nics
        masked = self.masked
        n = len(nics)
        best: Optional[int] = None
        best_key: Optional[tuple[float, int]] = None
        for probe in range(n):
            rail = (self._cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0:
                continue
            if self._scores[rail] < _MIN_USABLE_SCORE:
                continue
            key = (self._charged[rail], probe)
            if best_key is None or key < best_key:
                best, best_key = rail, key
        if best is None:
            return None
        # Charge inversely to health: an ailing rail "fills up" faster and
        # therefore wins the deficit comparison less often.
        self._charged[best] += wire_bytes / max(self._scores[best], _MIN_USABLE_SCORE)
        self._cursor = (best + 1) % n
        low = min(self._charged)
        if low > float(1 << 30):
            self._charged = [b - low for b in self._charged]
        return best


register_striping_policy("adaptive", AdaptiveStriping)
