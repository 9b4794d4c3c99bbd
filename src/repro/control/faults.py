"""Declarative fault schedules for cluster experiments.

Instead of sprinkling ``sim.schedule(t, link.fail_for, d)`` calls through
every experiment script, a :class:`FaultSchedule` is a list of fault
*events* — frozen dataclasses naming a target and a start time — applied
to a :class:`~repro.bench.cluster.Cluster` before the run:

>>> schedule = FaultSchedule([
...     Outage(at_ns=2_000_000, node=0, rail=0, duration_ns=5_000_000),
...     PermanentFailure(at_ns=20_000_000, node=1, rail=1),
...     Repair(at_ns=60_000_000, node=1, rail=1),
... ])
>>> schedule.apply(cluster)

Fail-stop faults hit the full-duplex cable between the node's NIC and
its switch port, both directions, which is what a yanked cable or dead
port does in practice.  *Gray* faults degrade without killing: a node's
CPU slows (:class:`SlowNode`), a NIC drains its TX ring late
(:class:`SlowNic`), a link gets noisy and jittery (:class:`DegradedLink`),
drops frames in bursts (:class:`IntermittentDrop`), or blackholes one
direction only (:class:`AsymmetricPartition`).  *Trunk* faults hit a
switch-to-switch cable of a :mod:`repro.fabric` fabric.  A kind is one
class (:class:`FaultEvent` is the whole contract) and the impairment is
the hit device's own: the timers only call ``Cable``, ``Nic``, ``Node``
and ``Fabric`` methods.  Every event is deterministic: gray randomness
(burst loss, jitter) draws from dedicated per-link RNG streams that exist
only while the fault is active, so same seed + same schedule = same run
and a schedule without gray events is byte-identical to one built before
they existed.

Schedules are validated at :meth:`FaultSchedule.apply` time
(:meth:`FaultSchedule.validate` lists the conflicts): a contradictory one
raises a typed :class:`FaultScheduleError` instead of silently producing
a run whose fault timeline means something other than what was written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..recovery import ClusterRecovery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.cluster import Cluster

__all__ = [
    "Outage",
    "Flap",
    "BitErrorRamp",
    "PermanentFailure",
    "Repair",
    "Crash",
    "Restart",
    "SlowNode",
    "SlowNic",
    "DegradedLink",
    "IntermittentDrop",
    "AsymmetricPartition",
    "TrunkOutage",
    "TrunkDrain",
    "FaultEvent",
    "FaultSchedule",
    "FaultScheduleError",
]


class FaultScheduleError(ValueError):
    """A schedule contains overlapping or contradictory events.

    Raised at :meth:`FaultSchedule.apply` time, before any timer is
    installed; the message names the two conflicting events.
    """


@dataclass(frozen=True)
class FaultEvent:
    """What a fault states about itself; the schedule reads nothing else.

    * ``at_ns`` — when it starts.
    * ``target`` — what it hits: ``("node", n)``, ``("edge", n, rail)`` or
      ``("trunk", rail, a, b)``; ``node`` is the node whose crash it must
      not straddle (``None`` for a trunk), and ``locate(cluster)`` finds
      the target or raises ``ValueError``.
    * ``window`` — the ``[start, end)`` it stays active for, ``None`` if
      pointlike; ``exclusive`` when its end restores what its start
      changed, so a second such window on the target may not overlap it.
    * ``timers(cluster)`` — the ``(time, callback, *args)`` that carry it
      out, calling methods of the device it hits.
    """

    at_ns: int

    # Un-annotated, so constants of the kind and not dataclass fields.
    exclusive = False
    window = None


@dataclass(frozen=True)
class _Lasting:
    """Active for ``duration_ns`` (the field after the target's) from ``at_ns``."""

    duration_ns: int

    @property
    def window(self) -> tuple[int, int]:
        return (self.at_ns, self.at_ns + self.duration_ns)


class _Exclusive(_Lasting):
    """A gray window or a drain: its end restores, so it excludes another."""

    exclusive = True

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")

    def switch(self, on: tuple, off: tuple) -> list:
        """The timers of a change made at the start and undone at the end."""
        start, end = self.window
        return [(start, *on), (end, *off)]


@dataclass(frozen=True)
class _Slowdown(_Exclusive):
    """The device runs ``factor`` times slower for the window."""

    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("factor must be >= 1 (1 = no slowdown)")


@dataclass(frozen=True)
class _NodeFault(FaultEvent):
    node: int

    @property
    def target(self) -> tuple:
        return ("node", self.node)

    def locate(self, cluster: "Cluster"):
        if not 0 <= self.node < len(cluster.stacks):
            raise ValueError(f"no node {self.node} in the cluster")
        return cluster.stacks[self.node].node


@dataclass(frozen=True)
class _EdgeFault(FaultEvent):
    node: int
    rail: int

    @property
    def target(self) -> tuple:
        return ("edge", self.node, self.rail)

    def locate(self, cluster: "Cluster"):
        return cluster.cable(self.node, self.rail)

    def nic(self, cluster: "Cluster"):
        return cluster.stacks[self.node].node.nics[self.rail]


@dataclass(frozen=True)
class Outage(_Lasting, _EdgeFault):
    """Transient outage: the edge drops every frame for ``duration_ns``."""

    def timers(self, cluster):
        return [(self.at_ns, self.locate(cluster).fail_for, self.duration_ns)]


@dataclass(frozen=True)
class Flap(_EdgeFault):
    """A flapping edge: ``count`` outages of ``down_ns`` every ``period_ns``.

    The k-th outage starts at ``at_ns + k * period_ns``.  ``down_ns`` must
    not exceed ``period_ns`` (that would be a permanent failure in
    disguise — use :class:`PermanentFailure`).
    """

    period_ns: int
    down_ns: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 < self.down_ns <= self.period_ns:
            raise ValueError("need 0 < down_ns <= period_ns")

    @property
    def window(self) -> tuple[int, int]:
        last = self.at_ns + (self.count - 1) * self.period_ns
        return (self.at_ns, last + self.down_ns)

    def timers(self, cluster):
        cable = self.locate(cluster)
        return [
            (self.at_ns + k * self.period_ns, cable.fail_for, self.down_ns)
            for k in range(self.count)
        ]


@dataclass(frozen=True)
class BitErrorRamp(_EdgeFault):
    """Raise the edge's bit-error rate at ``at_ns`` (until a Repair).

    The override is the link's own, so the ramp affects only the
    targeted edge, never the cluster's shared
    :class:`~repro.ethernet.LinkParams`.  While a :class:`DegradedLink`
    lasts on the same edge, the degradation's rate applies instead.
    """

    bit_error_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")

    def timers(self, cluster):
        cable = self.locate(cluster)
        return [(self.at_ns, cable.set_bit_error_rate, self.bit_error_rate)]


@dataclass(frozen=True)
class PermanentFailure(_EdgeFault):
    """Kill the edge outright (until a Repair, if any)."""

    def timers(self, cluster):
        return [(self.at_ns, self.locate(cluster).fail_forever)]


@dataclass(frozen=True)
class Repair(_EdgeFault):
    """End any outage and any :class:`BitErrorRamp` on the edge (a gray
    window runs to its own end)."""

    def timers(self, cluster):
        return [(self.at_ns, self.locate(cluster).repair)]


@dataclass(frozen=True)
class Crash(_NodeFault):
    """Whole-node fail-stop crash at ``at_ns`` (all rails, all state).

    Handled by the cluster's :class:`repro.recovery.ClusterRecovery` layer
    (built when a schedule with crash events is applied): every
    connection endpoint at the node is destroyed, its NICs lose power and
    their rings, and pending operations fail with
    :class:`~repro.core.PeerCrashed`.
    """

    def timers(self, cluster):
        return [(self.at_ns, cluster.layer(ClusterRecovery).crash, self.node)]


@dataclass(frozen=True)
class Restart(_NodeFault):
    """Reboot a crashed node ``delay_ns`` after ``at_ns``.

    The node comes back as a *new incarnation*: its incarnation number is
    bumped, so surviving peers reject any frame still in flight from the
    dead incarnation.  ``delay_ns`` models boot time.
    """

    delay_ns: int = 0

    def __post_init__(self) -> None:
        if self.delay_ns < 0:
            raise ValueError("delay_ns must be >= 0")

    def timers(self, cluster):
        restart = cluster.layer(ClusterRecovery).restart
        return [(self.at_ns + self.delay_ns, restart, self.node)]


@dataclass(frozen=True)
class SlowNode(_Slowdown, _NodeFault):
    """Gray fault: the node's CPU runs slow for ``duration_ns``.

    Service times at the node's :class:`~repro.serve.ServerLoop` stretch
    by ``factor`` and every pump batch pays an extra per-frame CPU charge
    (billed under the ``gray.slow-node`` accounting tag so the pump-CPU
    conservation invariant stays exact).  The node never crashes and no
    failure detector fires — this is the canonical gray failure.
    """

    def timers(self, cluster):
        slow = self.locate(cluster).set_slowdown
        return self.switch((slow, self.factor), (slow, 1.0))


@dataclass(frozen=True)
class SlowNic(_Slowdown, _EdgeFault):
    """Gray fault: the NIC drains its TX ring ``factor``x slower.

    Every frame's serialisation time is stretched, so the ring backs up,
    the health monitor's backlog EWMA climbs, and probe RTTs inflate —
    without a single loss.
    """

    def timers(self, cluster):
        throttle = self.nic(cluster).set_tx_throttle
        return self.switch((throttle, self.factor), (throttle, 1.0))


@dataclass(frozen=True)
class DegradedLink(_Exclusive, _EdgeFault):
    """Gray fault: elevated bit errors + latency jitter, link stays up.

    Both directions of the edge run at ``bit_error_rate`` (when non-zero,
    and whatever a :class:`BitErrorRamp` says) with a uniform
    ``[0, jitter_ns)`` delay added per frame from the link's dedicated
    ``.grayjitter`` RNG stream.
    """

    bit_error_rate: float = 1e-6
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")
        if self.jitter_ns < 0:
            raise ValueError("jitter_ns must be >= 0")

    def timers(self, cluster):
        cable = self.locate(cluster)
        return self.switch(
            (cable.degrade, self.bit_error_rate, self.jitter_ns),
            (cable.clear_degraded,),
        )


@dataclass(frozen=True)
class IntermittentDrop(_Exclusive, _EdgeFault):
    """Gray fault: seeded burst loss (a two-state Gilbert model).

    While active the link flips between a good state and a loss burst;
    ``drop_p`` is the long-run loss fraction and ``burst_len`` the mean
    frames per burst.  Draws come from the link's dedicated
    ``.graydrop`` RNG stream, so runs without this fault never touch it.
    """

    drop_p: float = 0.05
    burst_len: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.drop_p < 1.0:
            raise ValueError("drop_p must be in (0, 1)")
        if self.burst_len < 1.0:
            raise ValueError("burst_len must be >= 1")

    def timers(self, cluster):
        cable = self.locate(cluster)
        return self.switch(
            (cable.degrade, 0.0, 0, self.drop_p, self.burst_len),
            (cable.clear_degraded,),
        )


@dataclass(frozen=True)
class AsymmetricPartition(_Exclusive, _EdgeFault):
    """Gray fault: blackhole one *direction* of an edge.

    ``direction="tx"`` kills frames leaving the node (requests vanish,
    responses still arrive); ``"rx"`` kills the switch-to-node leg.  The
    opposite direction is untouched — the classic half-open link that
    keeps ARP-style liveness alive while the data path is dead.
    """

    direction: str = "tx"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.direction not in ("tx", "rx"):
            raise ValueError('direction must be "tx" or "rx"')

    def timers(self, cluster):
        cable = self.locate(cluster)
        link = cable.link_from(self.nic(cluster))
        if self.direction == "rx":
            link = cable.ab if link is cable.ba else cable.ba
        return [(self.at_ns, link.fail_for, self.duration_ns)]


@dataclass(frozen=True)
class _TrunkFault(FaultEvent):
    """A fault on the trunk between switches ``a`` and ``b`` (either
    order) of rail ``rail``'s :class:`~repro.fabric.Fabric`."""

    rail: int
    a: str
    b: str

    node = None

    @property
    def target(self) -> tuple:
        return ("trunk", self.rail, *sorted((self.a, self.b)))

    def locate(self, cluster: "Cluster"):
        if not 0 <= self.rail < len(cluster.fabrics):
            raise ValueError(f"no fabric on rail {self.rail}")
        fabric = cluster.fabrics[self.rail]
        fabric.trunk(self.a, self.b)  # ValueError when there is none
        return fabric


@dataclass(frozen=True)
class TrunkOutage(_Lasting, _TrunkFault):
    """The trunk cable fails for ``duration_ns``: frames in flight die,
    ECMP re-pins around it (:meth:`~repro.fabric.Fabric.fail_trunk`)."""

    def timers(self, cluster):
        fail = self.locate(cluster).fail_trunk
        return [(self.at_ns, fail, self.a, self.b, self.duration_ns)]


@dataclass(frozen=True)
class TrunkDrain(_Exclusive, _TrunkFault):
    """The trunk is administratively drained on both ends for
    ``duration_ns``: frames in flight still arrive, new flows re-pin
    (:meth:`~repro.fabric.Fabric.set_trunk_enabled`)."""

    def timers(self, cluster):
        enable = self.locate(cluster).set_trunk_enabled
        return self.switch(
            (enable, self.a, self.b, False), (enable, self.a, self.b, True)
        )


class FaultSchedule:
    """An ordered set of fault events, applied once to a cluster.

    :meth:`apply` validates the whole schedule, checks that every target
    exists, and only then installs each fault's timers with
    :meth:`~repro.sim.core.Simulator.schedule`.  A run with one fault
    fewer is a run built from a schedule without it.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: list[FaultEvent] = list(events)
        self._sim = None  # the simulator applied to; None until then

    def add(self, event: FaultEvent) -> "FaultSchedule":
        if self._sim is not None:
            raise RuntimeError("schedule already applied; build a new one")
        self.events.append(event)
        return self

    def validate(self) -> None:
        """Reject overlapping/contradictory windows on the same target.

        Three classes of conflict, each previously accepted silently:

        * two :attr:`~FaultEvent.exclusive` windows on one target (two
          gray windows on an edge or a node, two drains of a trunk) that
          overlap in time — the first's end would restore the target
          under the second;
        * a :class:`Crash` inside any impairment window targeting the
          same node — the window's expiry timer would "repair" hardware
          that no longer exists (and the window meant to degrade a live
          node, not a corpse);
        * two :class:`Crash` events on one node with no :class:`Restart`
          taking effect between them, or a :class:`Restart` whose
          effective time lands after a *later* crash of the same node.
        """
        events = list(enumerate(self.events))

        def clash(i, a, j, b, why):
            raise FaultScheduleError(
                f"conflicting fault events: #{i} {a!r} and #{j} {b!r} ({why})"
            )

        # -- overlapping exclusive windows on one target -------------------
        windowed = [(i, ev) for i, ev in events if ev.exclusive]
        for k, (i, a) in enumerate(windowed):
            sa, ea = a.window
            for j, b in windowed[k + 1:]:
                sb, eb = b.window
                if b.target == a.target and sa < eb and sb < ea:
                    clash(
                        i, a, j, b,
                        "overlapping gray windows or drains on one target",
                    )

        # -- a crash inside an impairment window of the same node ----------
        for i, ev in events:
            if not isinstance(ev, Crash):
                continue
            for j, other in events:
                win = other.window
                if win is None or other.node != ev.node:
                    continue
                if win[0] <= ev.at_ns < win[1]:
                    clash(
                        j, other, i, ev,
                        "crash inside the event's active window",
                    )

        # -- crash/restart ordering per node -------------------------------
        # In effect order (a Restart at at_ns + delay_ns; a Crash first on
        # a tie), two crashes of one node may not be neighbours.
        timeline = sorted(
            (ev.node, ev.at_ns, 0, i, ev) if isinstance(ev, Crash)
            else (ev.node, ev.at_ns + ev.delay_ns, 1, i, ev)
            for i, ev in events
            if isinstance(ev, (Crash, Restart))
        )
        for (n1, _, r1, i, a), (n2, _, r2, j, b) in zip(timeline, timeline[1:]):
            if n1 == n2 and not r1 and not r2:
                clash(
                    i, a, j, b,
                    "second crash with no restart taking effect in between",
                )

    def apply(self, cluster: "Cluster") -> None:
        """Install every event as simulator timers on ``cluster``.

        Nothing is touched before the schedule is known to be consistent
        and every target to exist; a missing one raises ``ValueError``
        naming the event, and the schedule can still be corrected.
        """
        if self._sim is not None:
            raise RuntimeError("schedule already applied; build a new one")
        self.validate()
        for i, ev in enumerate(self.events):
            try:
                ev.locate(cluster)
            except ValueError as exc:
                raise ValueError(f"fault #{i} {ev!r}: {exc}") from None
        sim = self._sim = cluster.sim
        for ev in self.events:
            for timer in ev.timers(cluster):
                sim.schedule(*timer)
