"""Declarative traffic matrices driving :mod:`repro.mp` endpoints.

A traffic matrix is a small frozen spec (which classic datacenter pattern,
how many bytes) that :func:`expand_flows` turns into a concrete list of
:class:`Flow`\\ s for a given cluster size — using a named RNG stream, so
the same ``(spec, nodes, seed)`` always yields the same flows — and
:func:`run_traffic` executes over message passing: every rank sends its
flows from a spawned sender process while its main process sinks the
flows addressed to it, so no send/receive interleaving can deadlock.

The patterns are the standard fabric-evaluation set:

* :class:`Permutation` — a random cyclic permutation (no fixed points);
  every host sends to exactly one host and receives from exactly one.
  The canonical ECMP load-balance test: with even hashing every uplink
  should carry a similar byte count.
* :class:`AllToAll` — the shuffle: every ordered pair exchanges a flow.
* :class:`Hotspot` — incast (everyone sends to a few targets) or outcast
  (a few targets fan out to everyone).
* :class:`ElephantMice` — a heavy-tailed mix of a few large rendezvous
  transfers and many small eager messages between random pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..bench.cluster import Cluster
from ..bench.run import drive

__all__ = [
    "Flow",
    "Permutation",
    "AllToAll",
    "Hotspot",
    "ElephantMice",
    "TrafficResult",
    "TrafficRun",
    "expand_flows",
    "run_traffic",
]


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer; ``tag`` is unique per flow so MPI
    matching stays unambiguous when a pair carries several flows."""

    src: int
    dst: int
    size_bytes: int
    tag: int = 0


@dataclass(frozen=True)
class Permutation:
    """Random cyclic permutation: rank i sends to perm(i), perm has no
    fixed points (Sattolo's algorithm on the traffic RNG stream).

    ``rounds`` stacks several independent permutations into one matrix —
    the standard way to exercise ECMP spreading with enough flows that
    the per-uplink byte counts can average out."""

    bytes_per_flow: int = 64 * 1024
    rounds: int = 1

    name = "permutation"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("permutation needs at least one round")


@dataclass(frozen=True)
class AllToAll:
    """Full shuffle: every ordered pair (i, j), i != j, carries a flow."""

    bytes_per_flow: int = 16 * 1024

    name = "all-to-all"


@dataclass(frozen=True)
class Hotspot:
    """Incast onto (or outcast from) the last ``targets`` ranks."""

    targets: int = 1
    bytes_per_flow: int = 64 * 1024
    outcast: bool = False  # False: incast (all -> targets)

    name = "hotspot"

    def __post_init__(self) -> None:
        if self.targets < 1:
            raise ValueError("hotspot needs at least one target")


@dataclass(frozen=True)
class ElephantMice:
    """Heavy-tailed mix: a few rendezvous elephants, many eager mice,
    between random ordered pairs drawn from the traffic RNG stream."""

    elephants: int = 4
    elephant_bytes: int = 512 * 1024
    mice: int = 32
    mouse_bytes: int = 2 * 1024

    name = "elephant-mice"


TrafficSpec = Union[Permutation, AllToAll, Hotspot, ElephantMice]


def expand_flows(
    spec: TrafficSpec, nodes: int, rng: np.random.Generator
) -> list[Flow]:
    """Instantiate a spec into concrete flows for an ``nodes``-rank world.

    Deterministic: the same ``(spec, nodes)`` and the same RNG stream
    state always produce the same list.  Tags number flows 0..n-1.
    """
    if nodes < 2:
        raise ValueError("traffic matrices need at least 2 nodes")
    flows: list[Flow] = []
    if isinstance(spec, Permutation):
        for _ in range(spec.rounds):
            # Sattolo's algorithm: a uniformly random *cyclic*
            # permutation, so no rank ever draws itself.
            perm = list(range(nodes))
            for i in range(nodes - 1, 0, -1):
                j = int(rng.integers(0, i))
                perm[i], perm[j] = perm[j], perm[i]
            for i in range(nodes):
                flows.append(
                    Flow(i, perm[i], spec.bytes_per_flow, tag=len(flows))
                )
    elif isinstance(spec, AllToAll):
        for i in range(nodes):
            for j in range(nodes):
                if i != j:
                    flows.append(
                        Flow(i, j, spec.bytes_per_flow, tag=len(flows))
                    )
    elif isinstance(spec, Hotspot):
        if spec.targets >= nodes:
            raise ValueError("hotspot targets must leave at least one peer")
        targets = list(range(nodes - spec.targets, nodes))
        others = list(range(nodes - spec.targets))
        for t in targets:
            for o in others:
                src, dst = (t, o) if spec.outcast else (o, t)
                flows.append(Flow(src, dst, spec.bytes_per_flow, tag=len(flows)))
    elif isinstance(spec, ElephantMice):
        for size, count in (
            (spec.elephant_bytes, spec.elephants),
            (spec.mouse_bytes, spec.mice),
        ):
            for _ in range(count):
                src = int(rng.integers(0, nodes))
                dst = int(rng.integers(0, nodes - 1))
                if dst >= src:
                    dst += 1
                flows.append(Flow(src, dst, size, tag=len(flows)))
    else:
        raise TypeError(f"unknown traffic spec {spec!r}")
    return flows


@dataclass
class TrafficResult:
    """Outcome of one :func:`run_traffic` execution."""

    spec_name: str
    flows: int
    total_bytes: int
    elapsed_ns: int
    data_intact: bool
    messages_received: int
    switch_drops: int
    ce_marked: int
    retransmissions: int
    # ECMP load balance over fabric uplinks (empty without a fabric).
    uplink_bytes: dict = None  # (lower switch, upper switch) -> bytes
    repins: int = 0  # flows ECMP moved off a dead or drained uplink
    # Routing-invariant findings, then ``data-integrity`` / ``messages-received``.
    violations: tuple[str, ...] = ()

    @property
    def goodput_bps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_bytes * 8 / (self.elapsed_ns / 1e9)

    @staticmethod
    def _ratio(counts: list) -> float:
        if not counts:
            return 1.0
        lo, hi = min(counts), max(counts)
        if hi == 0:
            return 1.0
        return float("inf") if lo == 0 else hi / lo

    @property
    def ecmp_evenness(self) -> float:
        """Max/min byte ratio across *upper-tier switches* (1.0 = perfect
        balance): did the flow hash spread the offered load evenly over
        the spines/cores?  ``inf`` if a spine was bypassed entirely."""
        per_upper: dict = {}
        for (_lo, hi), b in (self.uplink_bytes or {}).items():
            per_upper[hi] = per_upper.get(hi, 0) + b
        return self._ratio(list(per_upper.values()))

    @property
    def trunk_evenness(self) -> float:
        """Max/min byte ratio across individual uplink trunks — noisier
        than :attr:`ecmp_evenness` (each trunk sees one leaf's flows, so
        small fabrics have few flow-hash draws per trunk)."""
        return self._ratio(list((self.uplink_bytes or {}).values()))


def _flow_payload(flow: Flow) -> bytes:
    # One deterministic byte per flow: cheap to build, and a wrong or
    # cross-wired delivery cannot match.
    return bytes([(flow.tag * 31 + 7) % 251]) * flow.size_bytes


class TrafficRun:
    """One traffic matrix as a workload on a cluster the caller built:
    construction expands the flows and spawns the per-rank programs,
    ``procs``; :meth:`report` reads the run once they were driven to their
    end (:func:`~repro.bench.run.drive`).  :class:`~repro.verify.fuzz.FabricRun`
    is this workload as a pausable :class:`~repro.bench.run.Run`."""

    def __init__(
        self,
        cluster: Cluster,
        spec: TrafficSpec,
        seed: int = 0,
        limit_ms: int = 600_000,
    ) -> None:
        from ..mp import MpWorld

        self.cluster = cluster
        self.spec = spec
        self.limit_ns = limit_ms * 1_000_000
        rng = cluster.rng.stream(f"fabric-traffic:{seed}")
        flows = self.flows = expand_flows(spec, cluster.config.nodes, rng)
        by_src: dict[int, list[Flow]] = {}
        by_dst: dict[int, list[Flow]] = {}
        for f in flows:
            by_src.setdefault(f.src, []).append(f)
            by_dst.setdefault(f.dst, []).append(f)

        self.world = MpWorld(cluster)
        self.mismatches: list[int] = []
        received = self.received = [0]
        mismatches = self.mismatches

        def program(ep):
            def sender():
                for f in by_src.get(ep.rank, []):
                    yield from ep.send(f.dst, _flow_payload(f), tag=f.tag)

            tx = cluster.sim.process(sender(), name=f"traffic.tx{ep.rank}")
            for f in by_dst.get(ep.rank, []):
                msg = yield from ep.recv(source=f.src, tag=f.tag)
                received[0] += 1
                if msg.data != _flow_payload(f):
                    mismatches.append(f.tag)
            yield tx

        self.start_ns = cluster.sim.now
        self.procs = self.world.start(program)

    def report(self, end_ns: int) -> TrafficResult:
        """The result of the drained run whose workload ended at ``end_ns``."""
        from ..analysis.summary import summarize_cluster

        cluster = self.cluster
        summary = summarize_cluster(cluster, end_ns)
        uplinks: dict = {}
        violations: list[str] = []
        for fabric in cluster.fabrics:
            uplinks.update(fabric.uplink_bytes())
            violations.extend(fabric.routing_invariants())
        if self.mismatches:
            violations.append(
                f"data-integrity: flows {self.mismatches} arrived with the "
                "wrong payload"
            )
        if self.received[0] != len(self.flows):
            violations.append(
                f"messages-received {self.received[0]} != flows {len(self.flows)}"
            )
        return TrafficResult(
            spec_name=self.spec.name,
            flows=len(self.flows),
            total_bytes=sum(f.size_bytes for f in self.flows),
            elapsed_ns=end_ns - self.start_ns,
            data_intact=not self.mismatches,
            messages_received=self.received[0],
            switch_drops=summary.switch_drops,
            ce_marked=summary.ce_marked,
            retransmissions=summary.retransmissions,
            uplink_bytes=uplinks,
            repins=summary.repins,
            violations=tuple(violations),
        )


def run_traffic(
    cluster: Cluster,
    spec: TrafficSpec,
    seed: int = 0,
    limit_ms: int = 600_000,
) -> TrafficResult:
    """Execute a traffic matrix over a cluster's message-passing world.

    Flow expansion draws from the dedicated ``fabric-traffic:<seed>``
    stream, so running traffic never perturbs any other subsystem's
    randomness.  Senders run as separate processes from receivers, so
    eager-ring credit stalls cannot deadlock against unposted receives;
    a rank's two processes may write one peer's ring at once (the
    receiver answers rendezvous), and ``SlotRing`` makes them take turns.
    """
    run = TrafficRun(cluster, spec, seed=seed, limit_ms=limit_ms)
    return run.report(drive(cluster, run.procs, run.limit_ns))
