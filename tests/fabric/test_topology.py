"""Fabric topology builder: shapes, routes, and structural invariants."""

import pytest

from repro.bench.cluster import make_cluster
from repro.fabric import FatTreeSpec, LeafSpineSpec, build_fabric
from repro.sim import Simulator


def leaf_spine(leaves=2, spines=2, hosts_per_leaf=2, **kw):
    sim = Simulator()
    spec = LeafSpineSpec(
        leaves=leaves, spines=spines, hosts_per_leaf=hosts_per_leaf, **kw
    )
    return build_fabric(sim, spec)


class TestLeafSpineShape:
    def test_switch_and_trunk_counts(self):
        fab = leaf_spine(leaves=3, spines=2)
        tiers = fab.tiers()
        assert len(tiers["leaf"]) == 3
        assert len(tiers["spine"]) == 2
        # Full mesh between tiers: one trunk per (leaf, spine) pair.
        assert len(fab.trunks) == 6

    def test_switch_names_follow_rail_and_index(self):
        fab = leaf_spine(leaves=2, spines=2)
        assert set(fab.by_name) == {
            "leaf0.0", "leaf0.1", "spine0.0", "spine0.1"
        }

    def test_leaf_radix_hosts_plus_uplinks(self):
        fab = leaf_spine(leaves=2, spines=3, hosts_per_leaf=4)
        assert fab.by_name["leaf0.0"].params.ports == 4 + 3
        # Spines need one port per leaf.
        assert fab.by_name["spine0.0"].params.ports >= 2

    def test_host_location_packs_leaves_in_order(self):
        fab = leaf_spine(leaves=2, spines=2, hosts_per_leaf=3)
        assert fab.host_location(0) == ("leaf0.0", 0)
        assert fab.host_location(2) == ("leaf0.0", 2)
        assert fab.host_location(3) == ("leaf0.1", 0)
        with pytest.raises(ValueError):
            fab.host_location(6)  # beyond capacity

    def test_oversubscription_math(self):
        spec = LeafSpineSpec(leaves=3, spines=2, hosts_per_leaf=6)
        assert spec.oversubscription(10**9) == pytest.approx(3.0)
        fast_trunks = LeafSpineSpec(
            leaves=3, spines=2, hosts_per_leaf=6, trunk_speed_bps=3e9
        )
        assert fast_trunks.oversubscription(10**9) == pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LeafSpineSpec(leaves=0)
        with pytest.raises(ValueError):
            LeafSpineSpec(hosts_per_leaf=0)


class TestFatTreeShape:
    def test_k4_is_the_classic_construction(self):
        sim = Simulator()
        fab = build_fabric(sim, FatTreeSpec(k=4))
        tiers = fab.tiers()
        assert len(tiers["core"]) == 4  # (k/2)^2
        assert len(tiers["agg"]) == 8  # k pods x k/2
        assert len(tiers["edge"]) == 8
        # k pods x (k/2)^2 edge-agg + k pods x (k/2)^2 agg-core trunks.
        assert len(fab.trunks) == 16 + 16
        assert fab.spec.capacity == 16

    def test_k_must_be_even(self):
        with pytest.raises(ValueError):
            FatTreeSpec(k=3)
        with pytest.raises(ValueError):
            FatTreeSpec(k=0)

    def test_host_location_walks_pods(self):
        sim = Simulator()
        fab = build_fabric(sim, FatTreeSpec(k=4))
        assert fab.host_location(0) == ("edge0.0.0", 0)
        assert fab.host_location(3) == ("edge0.0.1", 1)
        assert fab.host_location(4) == ("edge0.1.0", 0)


class TestRoutes:
    def _cluster(self, **kw):
        spec = LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2)
        return make_cluster(
            "1L-1G", nodes=4, seed=0, synthetic_payloads=True,
            fabric=spec, **kw
        )

    def test_every_switch_routes_every_host(self):
        cluster = self._cluster()
        fab = cluster.fabrics[0]
        for node_id, mac in fab.host_macs.items():
            for sw in fab.switches:
                assert sw.route(mac) is not None, (
                    f"{sw.name} has no route for node {node_id}"
                )

    def test_leaf_uplink_groups_are_multi_member(self):
        cluster = self._cluster()
        fab = cluster.fabrics[0]
        # leaf0.0 reaching a host behind leaf0.1 must see both spines.
        mac = fab.host_macs[2]
        group = fab.by_name["leaf0.0"].route(mac)
        assert len(group) == 2

    def test_access_route_is_the_single_host_port(self):
        cluster = self._cluster()
        fab = cluster.fabrics[0]
        sw_name, port = fab.access[1]
        assert fab.by_name[sw_name].route(fab.host_macs[1]) == (port,)

    def test_routes_are_structurally_acyclic(self):
        cluster = self._cluster()
        for fab in cluster.fabrics:
            assert fab.route_acyclicity_violations() == []

    def test_fat_tree_routes_are_structurally_acyclic(self):
        cluster = make_cluster(
            "1L-1G", nodes=8, seed=0, synthetic_payloads=True,
            fabric=FatTreeSpec(k=4),
        )
        for fab in cluster.fabrics:
            assert fab.route_acyclicity_violations() == []


class TestTrunkManagement:
    def test_trunk_lookup_either_order(self):
        fab = leaf_spine()
        assert fab.trunk("leaf0.0", "spine0.1") is fab.trunk(
            "spine0.1", "leaf0.0"
        )
        with pytest.raises(ValueError):
            fab.trunk("leaf0.0", "leaf0.1")  # no such trunk

    def test_drain_excludes_both_end_ports(self):
        fab = leaf_spine()
        leaf = fab.by_name["leaf0.0"]
        spine = fab.by_name["spine0.0"]
        port_l, port_s = fab._trunk_ports("leaf0.0", "spine0.0")
        assert leaf._port_alive(port_l) and spine._port_alive(port_s)
        fab.set_trunk_enabled("leaf0.0", "spine0.0", False)
        assert not leaf._port_alive(port_l)
        assert not spine._port_alive(port_s)
        fab.set_trunk_enabled("leaf0.0", "spine0.0", True)
        assert leaf._port_alive(port_l) and spine._port_alive(port_s)

    def test_fail_and_repair_trunk(self):
        fab = leaf_spine()
        leaf = fab.by_name["leaf0.0"]
        port_l, _ = fab._trunk_ports("leaf0.0", "spine0.0")
        fab.fail_trunk("leaf0.0", "spine0.0")
        assert not leaf._port_alive(port_l)
        fab.trunk("leaf0.0", "spine0.0").repair()
        assert leaf._port_alive(port_l)

    def test_uplink_bytes_keys_point_upward(self):
        fab = leaf_spine(leaves=2, spines=2)
        up = fab.uplink_bytes()
        assert set(up) == {
            ("leaf0.0", "spine0.0"),
            ("leaf0.0", "spine0.1"),
            ("leaf0.1", "spine0.0"),
            ("leaf0.1", "spine0.1"),
        }
        assert all(b == 0 for b in up.values())


class TestClusterIntegration:
    def test_fabric_capacity_enforced(self):
        with pytest.raises(ValueError):
            make_cluster(
                "1L-1G", nodes=5, seed=0,
                fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2),
            )

    def test_switches_are_every_fabric_switch(self):
        cluster = make_cluster(
            "1L-1G", nodes=4, seed=0, synthetic_payloads=True,
            fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2),
        )
        names = {sw.name for sw in cluster.switches}
        assert names == {"leaf0.0", "leaf0.1", "spine0.0", "spine0.1"}

    @pytest.mark.parametrize("config, rails", [("1L-1G", 1), ("2L-1G", 2)])
    def test_one_switch_wiring_names(self, config, rails):
        """The paper's testbed is a one-switch fabric per rail whose names
        are those of the old flat wiring: cable names are RNG stream
        names (``.ber``, ``.graydrop``, ``.grayjitter``)."""
        cluster = make_cluster(config, nodes=3, seed=0)
        assert [(sw.name, len(sw.ports), sw.tier) for sw in cluster.switches] == [
            (f"switch{rail}", 3, "") for rail in range(rails)
        ]
        for rail, fab in enumerate(cluster.fabrics):
            assert fab.switches == [cluster.switches[rail]]
            assert fab.trunks == {}
            for node in range(3):
                assert fab.access[node] == (f"switch{rail}", node)
                name = f"node{node}.nic{rail}<->switch{rail}.p{node}"
                cable = cluster.cable(node, rail)
                assert (cable.ab.name, cable.ba.name) == (f"{name}.ab", f"{name}.ba")

    def test_trunk_speed_override(self):
        cluster = make_cluster(
            "1L-1G", nodes=4, seed=0, synthetic_payloads=True,
            fabric=LeafSpineSpec(
                leaves=2, spines=2, hosts_per_leaf=2, trunk_speed_bps=10e9
            ),
        )
        fab = cluster.fabrics[0]
        assert fab.trunk_link.speed_bps == 10e9
        # Host access links keep the host speed.
        assert fab.host_link.speed_bps == 1e9
