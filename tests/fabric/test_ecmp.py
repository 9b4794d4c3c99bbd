"""ECMP switch unit tests: hashing, pinning, re-pinning, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.cluster import make_cluster
from repro.ethernet.frame import Frame, MultiEdgeHeader
from repro.ethernet.switch import BROADCAST_MAC
from repro.fabric import LeafSpineSpec, ecmp_hash


class TestEcmpHash:
    def test_pure_function_of_key(self):
        a = ecmp_hash("0:leaf0.0", 1, 2, 0, 7)
        b = ecmp_hash("0:leaf0.0", 1, 2, 0, 7)
        assert a == b

    def test_salt_decorrelates(self):
        keys = [(s, 1, 2, 0, 7) for s in ("0:leaf0.0", "0:leaf0.1", "1:leaf0.0")]
        assert len({ecmp_hash(*k) for k in keys}) == 3

    def test_every_field_matters(self):
        base = ecmp_hash("s", 1, 2, 0, 7)
        assert ecmp_hash("s", 9, 2, 0, 7) != base
        assert ecmp_hash("s", 1, 9, 0, 7) != base
        assert ecmp_hash("s", 1, 2, 1, 7) != base
        assert ecmp_hash("s", 1, 2, 0, 8) != base

    def test_low_bits_spread_over_sequential_conn_ids(self):
        """The splitmix finalizer must break CRC32's GF(2) linearity:
        sequential connection ids (what real runs allocate) have to land
        on both members of a 2-way group reasonably often."""
        picks = [
            ecmp_hash("0:leaf0.0", 2, 3, 0, conn_id) % 2
            for conn_id in range(1, 65)
        ]
        ones = sum(picks)
        assert 16 <= ones <= 48, f"2-way hash badly skewed: {ones}/64"


def _fabric_cluster(seed=0):
    cluster = make_cluster(
        "1L-1G", nodes=4, seed=seed, synthetic_payloads=True,
        fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2),
    )
    return cluster, cluster.fabrics[0]


def _frame(src_mac, dst_mac, conn_id=1, seq=0):
    return Frame(
        src_mac, dst_mac,
        MultiEdgeHeader(connection_id=conn_id, seq=seq, payload_length=0),
    )


class TestSelection:
    def test_preview_matches_pick_and_is_stable(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        src, dst = fab.host_macs[0], fab.host_macs[2]
        first = leaf.preview(src, dst, conn_id=1)
        assert first is not None
        for _ in range(5):
            assert leaf.preview(src, dst, conn_id=1) == first

    def test_distinct_flows_spread_over_uplinks(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        src, dst = fab.host_macs[0], fab.host_macs[2]
        ports = {leaf.preview(src, dst, conn_id=c) for c in range(1, 40)}
        group = leaf.route(dst)
        assert ports == set(group), "40 flows never used every uplink"

    def test_repin_on_drain_and_back_on_restore(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        src, dst = fab.host_macs[0], fab.host_macs[2]
        frame = _frame(src, dst, conn_id=1)
        group = leaf.route(dst)
        original = leaf._pick(frame, group)
        # Drain the chosen uplink: the flow must re-pin to the survivor.
        spine_index = original - fab.spec.hosts_per_leaf
        leaf.set_port_enabled(original, False)
        rerouted = leaf._pick(frame, group)
        assert rerouted != original
        assert leaf._pick(frame, group) == rerouted  # served from the cache
        assert leaf.repins == 1
        # Restore: the deterministic hash re-pins straight back.
        leaf.set_port_enabled(original, True)
        assert leaf._pick(frame, group) == original
        assert leaf._pick(frame, group) == original
        assert leaf.repins == 2
        assert leaf.pin_violations == []
        assert spine_index in (0, 1)

    def test_no_alive_member_returns_none(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        src, dst = fab.host_macs[0], fab.host_macs[2]
        group = leaf.route(dst)
        for port in group:
            leaf.set_port_enabled(port, False)
        assert leaf._pick(_frame(src, dst), group) is None

    def test_add_route_rejects_empty_group(self):
        cluster, fab = _fabric_cluster()
        with pytest.raises(ValueError):
            fab.by_name["leaf0.0"].add_route(0x99, ())


class TestPickCache:
    """A flow's pick is cached until sim.link_epoch moves or an outage in
    force at the pick runs out; a hit leaves the pin record untouched."""

    def _flow(self, fab, conn_id=1):
        leaf = fab.by_name["leaf0.0"]
        src, dst = fab.host_macs[0], fab.host_macs[2]
        key = (src, dst, conn_id)
        return leaf, _frame(src, dst, conn_id), leaf.route(dst), key

    def test_unchanged_liveness_is_a_hit(self):
        cluster, fab = _fabric_cluster()
        leaf, frame, group, key = self._flow(fab)
        port = leaf._pick(frame, group)
        entry = leaf._pins[key]
        for _ in range(3):
            assert leaf._pick(frame, group) == port
        assert leaf._pins[key] is entry  # never recomputed
        assert leaf.ecmp_routed == 4  # still counted per frame

    def test_flow_moves_back_when_a_transient_outage_runs_out(self):
        cluster, fab = _fabric_cluster()
        sim = cluster.sim
        leaf, frame, group, key = self._flow(fab)
        original = leaf._pick(frame, group)
        link = leaf.port(original).tx_link
        link.fail_for(50_000)
        end = link._failed_until
        epoch = sim.link_epoch
        rerouted = leaf._pick(frame, group)
        assert rerouted != original
        sim.run(until=end - 1)
        assert leaf._pick(frame, group) == rerouted
        sim.run(until=end)  # no mutator runs: the outage just ends
        assert sim.link_epoch == epoch
        assert leaf._pick(frame, group) == original
        assert leaf.repins == 2

    def test_fail_forever_and_repair_invalidate(self):
        cluster, fab = _fabric_cluster()
        leaf, frame, group, key = self._flow(fab)
        original = leaf._pick(frame, group)
        link = leaf.port(original).tx_link
        link.fail_forever()
        rerouted = leaf._pick(frame, group)
        assert rerouted != original
        link.repair()
        assert leaf._pick(frame, group) == original
        assert leaf.repins == 2

    def test_corrupted_cache_entry_is_reported(self):
        cluster, fab = _fabric_cluster()
        leaf, frame, group, key = self._flow(fab)
        port = leaf._pick(frame, group)
        assert fab.routing_invariants() == []
        alive, _, *rest = leaf._pins[key]
        wrong = next(p for p in alive if p != port)
        leaf._pins[key] = (alive, wrong, *rest)
        assert leaf._pick(frame, group) == wrong  # a hit serves it
        (violation,) = fab.routing_invariants()
        assert "leaf0.0" in violation and f"cached on port {wrong}" in violation


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["drain", "undrain", "fail_for", "repair", "advance"]),
        st.integers(0, 5),  # leaf * 3 + uplink
        st.integers(1, 40_000),  # outage length or clock step, ns
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_cached_pick_equals_uncached_preview(ops):
    cluster = make_cluster(
        "1L-1G", nodes=4, seed=0, synthetic_payloads=True,
        fabric=LeafSpineSpec(leaves=2, spines=3, hosts_per_leaf=2),
    )
    fab, sim = cluster.fabrics[0], cluster.sim
    macs = fab.host_macs
    leaves = [fab.by_name["leaf0.0"], fab.by_name["leaf0.1"]]
    flows = [
        (leaves[0], macs[s], macs[d], c) for s in (0, 1) for d in (2, 3) for c in (1, 2)
    ] + [(leaves[1], macs[s], macs[d], c) for s in (2, 3) for d in (0, 1) for c in (1, 2)]

    def check():
        for leaf, src, dst, conn in flows:
            got = leaf._pick(_frame(src, dst, conn), leaf.route(dst))
            assert got == leaf.preview(src, dst, conn)

    check()
    for op, target, ns in ops:
        leaf = leaves[target // 3]
        port = leaf.route(macs[2 if leaf is leaves[0] else 0])[target % 3]
        if op == "drain":
            leaf.set_port_enabled(port, False)
        elif op == "undrain":
            leaf.set_port_enabled(port, True)
        elif op == "fail_for":
            leaf.port(port).tx_link.fail_for(ns)
        elif op == "repair":
            leaf.port(port).tx_link.repair()
        else:
            sim.run(until=sim.now + ns)
        check()
    assert fab.routing_invariants() == []


def _flat_cluster():
    cluster = make_cluster("1L-1G", nodes=4, seed=0, synthetic_payloads=True)
    return cluster, cluster.fabrics[0]


class TestForwarding:
    def test_unknown_destination_dropped_not_flooded(self):
        for build, name in ((_fabric_cluster, "leaf0.0"), (_flat_cluster, "switch0")):
            cluster, fab = build()
            sw = fab.by_name[name]
            before = [p.tx_frames for p in sw.ports]
            sw._forward(0, _frame(1, 0xDEAD))
            assert sw.dropped_no_route == 1, name
            assert [p.tx_frames for p in sw.ports] == before, name

    def test_broadcast_dropped_not_flooded(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        leaf._forward(0, _frame(1, BROADCAST_MAC))
        assert leaf.dropped_no_route == 1

    def test_hairpin_dropped(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        sw_name, port = fab.access[0]
        assert sw_name == "leaf0.0"
        frame = _frame(fab.host_macs[1], fab.host_macs[0])
        leaf._forward(port, frame)
        assert leaf.dropped_hairpin == 1

    def test_hop_budget_drops_storming_frame(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        frame = _frame(fab.host_macs[0], fab.host_macs[2])
        frame.hops = fab.spec.max_hops  # one more ingress goes over budget
        leaf.port(1).deliver_fold(frame, cluster.sim.now)
        assert leaf.dropped_loop == 1
        assert leaf.loop_violations
        assert leaf.conservation_violations() == []

    def test_conservation_accounts_every_ingress(self):
        cluster, fab = _fabric_cluster()
        leaf = fab.by_name["leaf0.0"]
        leaf._forward(0, _frame(1, 0xDEAD))  # no-route drop
        # _forward was reached without deliver_fold in this synthetic poke,
        # so bring the ingress counter in line before checking.
        leaf.ingress_frames = 1
        assert leaf.conservation_violations() == []
        leaf.ingress_frames = 2  # one unaccounted frame
        assert leaf.conservation_violations() != []
