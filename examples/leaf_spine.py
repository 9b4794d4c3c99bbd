#!/usr/bin/env python
"""A leaf-spine datacenter fabric: ECMP spreading and trunk failover.

Builds a 3:1-oversubscribed leaf-spine (3 leaves x 6 hosts, 2 spines,
1 GbE everywhere) with ``repro.fabric``, then:

1. runs a multi-round **permutation traffic matrix** — every host sends
   to exactly one other host — and reports how evenly the deterministic
   ECMP flow hash spread the bytes over the two spines;
2. **fails a leaf-to-spine trunk mid-run** and shows the flows re-pin
   onto the surviving uplink, with every byte still delivered intact.

Run:  python examples/leaf_spine.py
"""

from repro.bench.cluster import make_cluster
from repro.control import FaultSchedule, TrunkOutage
from repro.fabric import LeafSpineSpec, Permutation, run_traffic

LEAVES = 3
SPINES = 2
HOSTS_PER_LEAF = 6
ROUNDS = 8
BYTES_PER_FLOW = 16_000


def build():
    spec = LeafSpineSpec(
        leaves=LEAVES, spines=SPINES, hosts_per_leaf=HOSTS_PER_LEAF
    )
    cluster = make_cluster(
        "1L-1G",
        nodes=spec.capacity,
        seed=7,
        synthetic_payloads=False,
        fabric=spec,
    )
    return cluster, cluster.fabrics[0]


def main() -> None:
    cluster, fabric = build()
    tiers = {t: len(sw) for t, sw in fabric.tiers().items()}
    print(f"== leaf-spine fabric: {tiers['leaf']} leaves x "
          f"{HOSTS_PER_LEAF} hosts, {tiers['spine']} spines, "
          f"{fabric.spec.oversubscription(10**9):.0f}:1 oversubscribed ==")

    r = run_traffic(cluster, Permutation(BYTES_PER_FLOW, rounds=ROUNDS),
                    seed=7)
    print(f"permutation matrix: {r.flows} flows, "
          f"{r.total_bytes // 1024} KB total, "
          f"data intact={r.data_intact}")
    for (lo, hi), nbytes in sorted(r.uplink_bytes.items()):
        print(f"  {lo} -> {hi}: {nbytes:>8d} bytes")
    print(f"spine byte ratio (max/min, 1.0 = perfect): "
          f"{r.ecmp_evenness:.3f}")

    # Fail one trunk mid-run: ECMP re-pins around it, traffic survives.
    cluster2, fabric2 = build()
    FaultSchedule(
        [TrunkOutage(at_ns=200_000, rail=0, a="leaf0.0", b="spine0.0",
                     duration_ns=2_000_000)]
    ).apply(cluster2)
    r2 = run_traffic(cluster2, Permutation(BYTES_PER_FLOW, rounds=ROUNDS),
                     seed=7)
    repins = sum(sw.repins for sw in fabric2.switches)
    violations = fabric2.routing_invariants()
    print(f"\nwith leaf0.0->spine0.0 failed for 2 ms: "
          f"data intact={r2.data_intact}, {repins} flow re-pins, "
          f"{r2.retransmissions} retransmissions")
    print(f"routing invariants clean={not violations}")


if __name__ == "__main__":
    main()
