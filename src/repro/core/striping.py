"""Multi-link striping policies (paper §2.5, "spatial parallelism").

When a connection spans multiple physical rails, every frame to transmit is
assigned to one rail by a load-balancing policy.  The paper uses round-robin;
we also provide two alternatives used by the ablation benchmarks:

* :class:`RoundRobinStriping` — the paper's policy: cycle through rails,
  skipping any whose TX ring is full.
* :class:`ShortestQueueStriping` — pick the rail with the most TX ring
  space (adaptive; trades reorder for balance under asymmetric load).
* :class:`SingleRailStriping` — pin everything to rail 0 (degenerate case,
  equals a single-link configuration even when hardware has two rails).

The edge lifecycle control plane (:mod:`repro.control`) adds a fourth,
health-weighted policy (``"adaptive"``) through
:func:`register_striping_policy`.

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
    "ShortestQueueStriping",
    "SingleRailStriping",
    "make_striping_policy",
    "register_striping_policy",
]


class StripingPolicy:
    """Chooses the rail for the next frame."""

    # True when, with one unmasked rail, next_rail() only reads that
    # rail's TX ring and mutates nothing, so a caller placing a run of
    # frames may ask once for the whole run.
    stateless_on_one_rail = False

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
    NACKs.  Tracking cumulative assigned bytes and picking the least-loaded
    rail (round-robin order breaking ties) keeps the rails byte-balanced
    while preserving the paper's policy for the full-frame common case.
    """

    stateless_on_one_rail = True

    def __init__(self, nics: Sequence[Nic]) -> None:
        super().__init__(nics)
        self._cursor = 0
        self._assigned_bytes = [0] * len(nics)

    def enable_rail(self, rail: int) -> None:
        super().enable_rail(rail)
        # While masked, this rail's deficit counter froze as the others
        # kept accumulating.  Left alone, the huge gap would route *all*
        # traffic onto the returning rail until it caught up — turning
        # recovery into a bottleneck swap.  Rejoin at the low-water mark
        # of the rails that stayed active instead.
        others = [
            b
            for r, b in enumerate(self._assigned_bytes)
            if r != rail and r not in self.masked
        ]
        if others:
            self._assigned_bytes[rail] = max(
                self._assigned_bytes[rail], min(others)
            )

    def snapshot(self):
        return self._cursor, list(self._assigned_bytes)

    def restore(self, saved) -> None:
        self._cursor, self._assigned_bytes = saved[0], list(saved[1])

    def next_rail(self, wire_bytes: int = 0) -> Optional[int]:
        nics = self.nics
        masked = self.masked
        if len(nics) == 1 and not masked:
            # Byte-deficit and cursor state are unobservable with one rail.
            return 0 if nics[0].tx_ring_free > 0 else None
        n = len(nics)
        best: Optional[int] = None
        best_key: Optional[tuple[int, int]] = None
        for probe in range(n):
            rail = (self._cursor + probe) % n
            if rail in masked or nics[rail].tx_ring_free <= 0:
                continue
            key = (self._assigned_bytes[rail], probe)
            if best_key is None or key < best_key:
                best, best_key = rail, key
        if best is None:
            return None
        self._assigned_bytes[best] += wire_bytes
        self._cursor = (best + 1) % n
        # Renormalise counters so they never grow without bound.
        low = min(self._assigned_bytes)
        if low > 1 << 30:
            self._assigned_bytes = [b - low for b in self._assigned_bytes]
        return best


class ShortestQueueStriping(StripingPolicy):
    """Adaptive: send on the rail with the most free TX descriptors."""

    stateless_on_one_rail = True

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

    stateless_on_one_rail = True

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
    "shortest_queue": ShortestQueueStriping,
    "single_rail": SingleRailStriping,
}


def register_striping_policy(name: str, cls: Type[StripingPolicy]) -> None:
    """Register an out-of-core policy (used by :mod:`repro.control`)."""
    existing = _POLICIES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"striping policy {name!r} already registered")
    _POLICIES[name] = cls


def make_striping_policy(name: str, nics: Sequence[Nic]) -> StripingPolicy:
    """Factory by policy name (used by cluster configuration)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown striping policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(nics)
