"""Traffic matrices: expansion determinism and end-to-end execution."""

import pytest

from repro.bench.cluster import make_cluster
from repro.fabric import (
    AllToAll,
    ElephantMice,
    Hotspot,
    LeafSpineSpec,
    Permutation,
    TrafficResult,
    expand_flows,
    run_traffic,
)
from repro.sim import RngRegistry


def _rng(seed=0):
    return RngRegistry(seed).stream("test-traffic")


class TestExpansion:
    def test_permutation_is_cyclic_no_fixed_points(self):
        flows = expand_flows(Permutation(1024), 8, _rng())
        assert len(flows) == 8
        assert all(f.src != f.dst for f in flows)
        assert sorted(f.src for f in flows) == list(range(8))
        assert sorted(f.dst for f in flows) == list(range(8))

    def test_permutation_rounds_stack(self):
        flows = expand_flows(Permutation(1024, rounds=3), 6, _rng())
        assert len(flows) == 18
        assert len({f.tag for f in flows}) == 18  # tags stay unique

    def test_permutation_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            Permutation(1024, rounds=0)

    def test_all_to_all_covers_every_ordered_pair(self):
        flows = expand_flows(AllToAll(512), 4, _rng())
        assert {(f.src, f.dst) for f in flows} == {
            (i, j) for i in range(4) for j in range(4) if i != j
        }

    def test_hotspot_incast_targets_last_ranks(self):
        flows = expand_flows(Hotspot(targets=2, bytes_per_flow=512), 5, _rng())
        assert all(f.dst in (3, 4) for f in flows)
        assert all(f.src < 3 for f in flows)
        assert len(flows) == 6

    def test_hotspot_outcast_reverses_direction(self):
        flows = expand_flows(
            Hotspot(targets=1, bytes_per_flow=512, outcast=True), 4, _rng()
        )
        assert all(f.src == 3 for f in flows)
        assert {f.dst for f in flows} == {0, 1, 2}

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            Hotspot(targets=0)
        with pytest.raises(ValueError):
            expand_flows(Hotspot(targets=4), 4, _rng())

    def test_elephant_mice_mix_and_no_self_flows(self):
        spec = ElephantMice(
            elephants=3, elephant_bytes=65536, mice=10, mouse_bytes=512
        )
        flows = expand_flows(spec, 6, _rng())
        assert len(flows) == 13
        assert all(f.src != f.dst for f in flows)
        assert sum(1 for f in flows if f.size_bytes == 65536) == 3

    def test_same_stream_state_same_flows(self):
        a = expand_flows(Permutation(1024, rounds=2), 8, _rng(5))
        b = expand_flows(Permutation(1024, rounds=2), 8, _rng(5))
        assert a == b

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            expand_flows(AllToAll(), 1, _rng())


class TestEvennessMetrics:
    def _result(self, uplinks):
        return TrafficResult(
            spec_name="t", flows=0, total_bytes=0, elapsed_ns=1,
            data_intact=True, messages_received=0, switch_drops=0,
            ce_marked=0, retransmissions=0, uplink_bytes=uplinks,
        )

    def test_ecmp_evenness_aggregates_per_upper_switch(self):
        r = self._result({
            ("leaf0.0", "spine0.0"): 100,
            ("leaf0.1", "spine0.0"): 100,
            ("leaf0.0", "spine0.1"): 150,
            ("leaf0.1", "spine0.1"): 90,
        })
        assert r.ecmp_evenness == pytest.approx(240 / 200)
        assert r.trunk_evenness == pytest.approx(150 / 90)

    def test_bypassed_spine_is_infinite(self):
        r = self._result({
            ("leaf0.0", "spine0.0"): 100,
            ("leaf0.0", "spine0.1"): 0,
        })
        assert r.ecmp_evenness == float("inf")

    def test_no_fabric_is_perfect(self):
        assert self._result({}).ecmp_evenness == 1.0


class TestExecution:
    def _cluster(self, nodes=4, seed=0):
        return make_cluster(
            "1L-1G", nodes=nodes, seed=seed, synthetic_payloads=False,
            fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=2),
        )

    def test_permutation_delivers_intact(self):
        r = run_traffic(self._cluster(), Permutation(8192, rounds=2), seed=0)
        assert r.data_intact
        assert r.messages_received == r.flows == 8
        assert r.total_bytes == 8 * 8192
        assert r.goodput_bps > 0

    def test_uplinks_carry_cross_leaf_traffic(self):
        cluster = self._cluster(seed=2)
        r = run_traffic(cluster, AllToAll(4096), seed=2)
        assert r.data_intact
        assert sum(r.uplink_bytes.values()) > 0
        assert [
            v for f in cluster.fabrics for v in f.routing_invariants()
        ] == []

    def test_a_rank_sending_while_it_accepts_rendezvous(self):
        """A rank's sender process and its receiving process (answering
        clear-to-send) write the same peer's eager ring concurrently; the
        ring takes turns.  Before it did, seeds 4, 6, 9, 10, 13 and 18 of
        this matrix died in a listener."""
        spec = ElephantMice(
            elephants=12, elephant_bytes=200_000, mice=60, mouse_bytes=8000
        )
        for seed in range(20):
            r = run_traffic(make_cluster("1L-1G", nodes=6, seed=seed), spec, seed=seed)
            assert r.violations == (), (seed, r.violations)
            assert r.messages_received == r.flows == 72, seed

    def test_hotspot_runs_on_fabric(self):
        r = run_traffic(
            self._cluster(seed=1), Hotspot(targets=1, bytes_per_flow=16384),
            seed=1,
        )
        assert r.data_intact and r.messages_received == 3
