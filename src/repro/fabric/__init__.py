"""Datacenter fabric subsystem: the switches of every cluster, ECMP, traffic.

Every cluster is wired as one :class:`Fabric` per rail: one switch — the
paper's testbed — when ``ClusterConfig.fabric`` is None, else the
multi-switch topology its spec names (the paper's §6 future work; the
SplitSim/SimBricks composition argument, see PAPERS.md):

* :mod:`~repro.fabric.ecmp` — an :class:`EcmpSwitch` resolves multi-port
  routes with a seeded deterministic flow hash, re-pins flows around
  failed uplinks, and witnesses ECMP determinism;
* :mod:`~repro.fabric.topology` — a graph-theoretic builder for
  leaf-spine and fat-tree fabrics with configurable radix,
  oversubscription, and per-tier link speeds, with BFS shortest-path
  route programming and the routing invariants (no forwarding loops,
  ECMP determinism, switch and trunk conservation);
* :mod:`~repro.fabric.traffic` — declarative traffic matrices
  (permutation, all-to-all shuffle, hotspot incast/outcast,
  elephant/mice mixes) that drive :mod:`repro.mp` endpoints.
"""

from .ecmp import EcmpSwitch, ecmp_hash
from .topology import Fabric, FatTreeSpec, LeafSpineSpec, build_fabric, leaf_spine_3to1
from .traffic import (
    AllToAll,
    ElephantMice,
    Flow,
    Hotspot,
    Permutation,
    TrafficResult,
    TrafficRun,
    expand_flows,
    run_traffic,
)

__all__ = [
    "EcmpSwitch",
    "ecmp_hash",
    "Fabric",
    "LeafSpineSpec",
    "leaf_spine_3to1",
    "FatTreeSpec",
    "build_fabric",
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
