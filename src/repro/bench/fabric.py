"""Fabric benchmark runners: oversubscribed incast and ECMP evenness.

Two reusable harnesses behind ``benchmarks/bench_fabric.py``:

* :func:`run_fabric_incast` — the PR 4 incast experiment pushed across a
  3:1-oversubscribed leaf-spine fabric: senders spread over several
  leaves converge on one receiver two switch hops away, so congestion
  now forms at trunk ports as well as the receiver's access port.  The
  congestion-controller comparison (static vs AIMD vs DCTCP) must
  reproduce across the extra hops.
* :func:`run_ecmp_evenness` — a permutation traffic matrix over the
  same fabric, reporting the max/min byte ratio across leaf-to-spine
  uplinks: the load-balance quality of the deterministic flow hash.
"""

from __future__ import annotations

from typing import Optional

from ..congestion import CongestionParams
from ..fabric import LeafSpineSpec, Permutation, TrafficResult, run_traffic
from .cluster import make_cluster
from .incast import IncastResult, run_incast

__all__ = ["leaf_spine_3to1", "run_fabric_incast", "run_ecmp_evenness"]


def leaf_spine_3to1(leaves: int = 3, spines: int = 2) -> LeafSpineSpec:
    """The benchmark's leaf-spine: 6 hosts/leaf over 2 spine uplinks at
    1 GbE = 3:1 oversubscribed for cross-leaf traffic."""
    return LeafSpineSpec(leaves=leaves, spines=spines, hosts_per_leaf=6)


def run_fabric_incast(
    senders: int = 16,
    chunk_bytes: int = 64 * 1024,
    chunks_per_sender: int = 8,
    congestion: str = "static",
    congestion_params: Optional[CongestionParams] = None,
    ecn_threshold_frames: Optional[int] = None,
    seed: int = 0,
    spec: Optional[LeafSpineSpec] = None,
) -> IncastResult:
    """16:1 incast across an oversubscribed leaf-spine fabric.

    With the default spec (18-host capacity), the 16 senders fill leaves
    0-2 and the receiver (node 16) sits on the last leaf — most senders'
    frames cross two trunk hops before they converge.
    """
    # ECMP hashes over the connection id, allocated per-simulator (a
    # fresh cluster always starts at 1), so the same parameters pick the
    # same paths no matter how many runs came before in this process.
    spec = spec or leaf_spine_3to1()
    return run_incast(
        config="1L-1G",
        senders=senders,
        chunk_bytes=chunk_bytes,
        chunks_per_sender=chunks_per_sender,
        congestion=congestion,
        congestion_params=congestion_params,
        ecn_threshold_frames=ecn_threshold_frames,
        seed=seed,
        fabric=spec,
    )


def run_ecmp_evenness(
    nodes: int = 18,
    bytes_per_flow: int = 16_000,
    rounds: int = 16,
    seed: int = 0,
    spec: Optional[LeafSpineSpec] = None,
) -> TrafficResult:
    """Permutation matrix over the leaf-spine; the result's
    ``ecmp_evenness`` is the max/min spine byte ratio (1.0 = perfect)."""
    spec = spec or leaf_spine_3to1()
    cluster = make_cluster(
        "1L-1G", nodes=nodes, seed=seed, synthetic_payloads=False, fabric=spec
    )
    result = run_traffic(
        cluster, Permutation(bytes_per_flow, rounds=rounds), seed=seed
    )
    if result.violations:
        raise AssertionError("; ".join(result.violations))
    return result
