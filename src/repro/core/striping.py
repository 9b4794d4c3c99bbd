"""Multi-link striping policies (paper §2.5, "spatial parallelism").

When a connection spans multiple physical rails, every frame to transmit is
assigned to one rail by a load-balancing policy.  The paper uses round-robin;
we also provide alternatives used by the ablation benchmarks and the edge
lifecycle control plane (:mod:`repro.control`):

* :class:`RoundRobinStriping` — the paper's policy: cycle through rails,
  skipping any whose TX ring is full.
* :class:`AdaptiveStriping` (``"adaptive"``) — the same byte-deficit walk,
  with each rail's charge divided by the health score the lifecycle
  manager pushes through :meth:`StripingPolicy.set_score`.
* :class:`ShortestQueueStriping` — pick the rail with the most TX ring
  space (adaptive; trades reorder for balance under asymmetric load).
* :class:`SingleRailStriping` — pin everything to rail 0 (degenerate case,
  equals a single-link configuration even when hardware has two rails).

Every policy supports *rail masking*: the control plane disables an edge
that its failure detector has declared DOWN, and re-enables it once the
edge recovers.  Masked rails are never chosen; when every active rail's TX
ring is full, ``next_rail`` returns None exactly as before.
"""

from __future__ import annotations

from typing import Optional, Sequence, Type

from ..ethernet import Nic

__all__ = [
    "StripingPolicy",
    "RoundRobinStriping",
    "AdaptiveStriping",
    "ShortestQueueStriping",
    "SingleRailStriping",
    "make_striping_policy",
]


class StripingPolicy:
    """Chooses the rail for the next frame.

    With one unmasked rail every policy's ``next_rail`` reads only that
    rail's TX ring (and a score that cannot change while a caller plans)
    and mutates nothing, so a caller placing a run of frames may ask once
    for the whole run.
    """

    def __init__(self, nics: Sequence[Nic]) -> None:
        if not nics:
            raise ValueError("striping policy needs at least one rail")
        self.nics = list(nics)
        # Rails the control plane has taken out of service (edge DOWN).
        self.masked: set[int] = set()
        # Rotation point for control frames (ACK/NACK); separate from any
        # data-plane cursor so control traffic never skews data balance.
        self._control_cursor = 0

    # -- edge lifecycle hooks -------------------------------------------

    def disable_rail(self, rail: int) -> None:
        """Stop assigning frames to ``rail`` (edge declared DOWN)."""
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        self.masked.add(rail)

    def enable_rail(self, rail: int) -> None:
        """Resume assigning frames to ``rail`` (edge recovered)."""
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        self.masked.discard(rail)

    def set_score(self, rail: int, score: float) -> None:
        """The lifecycle manager pushes the latest health score of ``rail``.
        A policy that weighs rails by health overrides this."""

    def rail_active(self, rail: int) -> bool:
        return rail not in self.masked

    @property
    def active_rails(self) -> list[int]:
        return [r for r in range(len(self.nics)) if r not in self.masked]

    # -- selection -------------------------------------------------------

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        """Index of the rail to use, or None if every TX ring is full.

        ``wire_bytes`` is the size of the frame about to be sent; policies
        that balance load by bytes account for it.
        """
        raise NotImplementedError

    def snapshot(self):
        """What :meth:`next_rail` mutates, for :meth:`restore` to put back
        (the fast path plans ahead by asking, and rewinds on an abort).
        A policy whose ``next_rail`` keeps state overrides both."""
        return None

    def restore(self, saved) -> None:
        pass

    def control_rail(self) -> Optional[int]:
        """Rail for a control frame (explicit ACK / NACK), or None.

        Control frames must not perturb the data plane: this rotates its
        own cursor over active rails with TX ring space and never touches
        byte-deficit counters or the data-frame rotation point, so ACK/NACK
        traffic cannot skew data-frame balance on asymmetric rails.
        """
        nics = self.nics
        masked = self.masked
        n = len(nics)
        for probe in range(n):
            rail = (self._control_cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0:
                continue
            self._control_cursor = (rail + 1) % n
            return rail
        return None

    def control_rails(self, count: int) -> dict[int, int]:
        """``{rail: frames}`` for ``count`` back-to-back :meth:`control_rail`
        calls, leaving the same cursor behind.  Exact while no TX ring
        changes between those calls: the rails with space then take turns
        from the cursor on."""
        n = len(self.nics)
        cursor = self._control_cursor
        ready = [
            rail for rail in (*range(cursor, n), *range(cursor))
            if rail not in self.masked and self.nics[rail].tx_ring_free > 0
        ]
        if not count or not ready:
            return {}
        turns = len(ready)
        rounds, extra = count // turns, count % turns
        self._control_cursor = (ready[(count - 1) % turns] + 1) % n
        return {
            rail: rounds + (k < extra)
            for k, rail in enumerate(ready)
            if rounds or k < extra
        }


class RoundRobinStriping(StripingPolicy):
    """The paper's round-robin policy, with byte-deficit correction.

    Equal-size frames alternate rails exactly as plain round-robin would.
    When frame sizes differ (the sub-MTU tail frame of every operation), a
    naive per-frame rotation systematically assigns more *bytes* to one
    rail; the slower rail then accumulates backlog and its frames arrive
    ever later, which shows up as persistent sequence gaps and spurious
    NACKs.  Tracking cumulative charged bytes and picking the least-charged
    rail (round-robin order breaking ties) keeps the rails byte-balanced
    while preserving the paper's policy for the full-frame common case.

    A frame is charged ``wire_bytes / divisor`` to its rail and a rail at
    divisor 0 is skipped.  Every divisor stays 1.0 here, so each charge is
    an integer-valued float and the walk is exact integer arithmetic.
    """

    def __init__(self, nics: Sequence[Nic]) -> None:
        super().__init__(nics)
        self._cursor = 0
        self._charged = [0.0] * len(nics)
        self._divisor = [1.0] * len(nics)

    def enable_rail(self, rail: int) -> None:
        super().enable_rail(rail)
        # While masked, this rail's deficit counter froze as the others
        # kept accumulating.  Left alone, the huge gap would route *all*
        # traffic onto the returning rail until it caught up — turning
        # recovery into a bottleneck swap.  Rejoin at the low-water mark
        # of the rails that stayed active instead.
        others = [
            c
            for r, c in enumerate(self._charged)
            if r != rail and r not in self.masked
        ]
        if others:
            self._charged[rail] = max(self._charged[rail], min(others))

    def snapshot(self):
        return self._cursor, list(self._charged)

    def restore(self, saved) -> None:
        self._cursor, self._charged = saved[0], list(saved[1])

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        nics = self.nics
        masked = self.masked
        divisor = self._divisor
        if len(nics) == 1 and not masked:
            # Byte-deficit and cursor state are unobservable with one rail.
            return 0 if nics[0].tx_ring_free > 0 and divisor[0] else None
        n = len(nics)
        charged = self._charged
        best: Optional[int] = None
        best_charge = 0.0
        # Probes run in cursor order: a strict ``<`` breaks a tie toward it.
        for probe in range(n):
            rail = (self._cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0 or not divisor[rail]:
                continue
            if best is None or charged[rail] < best_charge:
                best, best_charge = rail, charged[rail]
        if best is None:
            return None
        charged[best] += wire_bytes / divisor[best]
        self._cursor = (best + 1) % n
        # Renormalise counters so they never grow without bound.
        low = min(charged)
        if low > 1 << 30:
            self._charged = [c - low for c in charged]
        return best


class AdaptiveStriping(RoundRobinStriping):
    """Byte-deficit striping weighted by edge health.

    A rail at score 0.5 is charged bytes at twice the rate, so it receives
    roughly half the traffic; a rail below score 0.05 gets no fresh traffic
    even before the failure detector masks it.
    """

    def set_score(self, rail: int, score: float) -> None:
        if not 0 <= rail < len(self.nics):
            raise ValueError(f"rail {rail} out of range")
        score = max(0.0, min(1.0, score))
        # The charge stays a division by the score: multiplying by a
        # stored reciprocal would round differently.
        self._divisor[rail] = score if score >= 0.05 else 0.0


class ShortestQueueStriping(StripingPolicy):
    """Adaptive: send on the rail with the most free TX descriptors."""

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        best, best_free = None, 0
        masked = self.masked
        for rail, nic in enumerate(self.nics):
            if rail in masked:
                continue
            free = nic.tx_ring_free
            if free > best_free:
                best, best_free = rail, free
        return best


class SingleRailStriping(StripingPolicy):
    """Always rail 0 (baseline).  Falls over to the lowest active rail if
    the control plane masks rail 0."""

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        masked = self.masked
        if not masked:
            return 0 if self.nics[0].tx_ring_free > 0 else None
        for rail, nic in enumerate(self.nics):
            if rail not in masked:
                return rail if nic.tx_ring_free > 0 else None
        return None

    def control_rail(self) -> Optional[int]:
        # Pin control frames to the same rail as the data path.
        return self.next_rail(0)

    def control_rails(self, count: int) -> dict[int, int]:
        rail = self.next_rail(0)
        return {rail: count} if count and rail is not None else {}


_POLICIES: dict[str, Type[StripingPolicy]] = {
    "round_robin": RoundRobinStriping,
    "adaptive": AdaptiveStriping,
    "shortest_queue": ShortestQueueStriping,
    "single_rail": SingleRailStriping,
}


def make_striping_policy(name: str, nics: Sequence[Nic]) -> StripingPolicy:
    """Factory by policy name (used by cluster configuration)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown striping policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(nics)
