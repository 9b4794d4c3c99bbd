"""Tests for the benchmark harness: configs, micro-runners, reporting."""

import pytest

from repro.bench import (
    CONFIG_NAMES,
    Table,
    check_band,
    fmt,
    make_cluster,
    run_micro,
)
from repro.bench.cluster import ClusterConfig
from repro.bench.paper_data import (
    APP_ORDER,
    FIG2_MAX_THROUGHPUT_MBPS,
    FIG3_SPEEDUP_BANDS,
    LINK_NOMINAL_MBPS,
)


class TestClusterConfigs:
    def test_all_named_configs_build(self):
        for name in CONFIG_NAMES:
            cluster = make_cluster(name, nodes=2)
            assert cluster.config.name == name
            assert len(cluster.stacks) == 2

    def test_default_node_counts_match_paper(self):
        assert make_cluster("1L-1G").config.nodes == 16
        assert make_cluster("1L-10G").config.nodes == 4
        assert make_cluster("2L-1G").config.nodes == 16

    def test_rail_counts(self):
        assert len(make_cluster("1L-1G", nodes=2).nodes[0].nics) == 1
        assert len(make_cluster("2L-1G", nodes=2).nodes[0].nics) == 2
        assert len(make_cluster("2L-1G", nodes=2).switches) == 2

    def test_ordering_modes(self):
        assert make_cluster("2L-1G", nodes=2).config.protocol.in_order_delivery
        assert not make_cluster("2Lu-1G", nodes=2).config.protocol.in_order_delivery

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            make_cluster("3L-40G")

    def test_connect_caching_and_symmetry(self):
        cluster = make_cluster("1L-1G", nodes=3)
        a1, b1 = cluster.connect(0, 1)
        b2, a2 = cluster.connect(1, 0)
        assert a1 is a2 and b1 is b2

    def test_connect_self_rejected(self):
        cluster = make_cluster("1L-1G", nodes=2)
        with pytest.raises(ValueError):
            cluster.connect(1, 1)

    def test_config_validation(self):
        from repro.ethernet import LinkParams, SwitchParams
        from repro.host import tigon3_params

        with pytest.raises(ValueError):
            ClusterConfig(
                name="x", nodes=0, rails=1, nic_factory=tigon3_params,
                link=LinkParams(), switch=SwitchParams(),
            )
        with pytest.raises(ValueError):
            ClusterConfig(
                name="x", nodes=2, rails=0, nic_factory=tigon3_params,
                link=LinkParams(), switch=SwitchParams(),
            )


class TestMicroRunner:
    def test_unknown_benchmark_rejected(self):
        cluster = make_cluster("1L-1G", nodes=2)
        with pytest.raises(ValueError):
            run_micro("three-way", cluster, 1024)

    def test_result_fields_consistent(self):
        cluster = make_cluster("1L-1G", nodes=2)
        r = run_micro("one-way", cluster, 16384)
        assert r.benchmark == "one-way"
        assert r.config == "1L-1G"
        assert r.size == 16384
        assert r.elapsed_ns > 0
        assert r.data_frames > 0
        assert 0 <= r.out_of_order_fraction <= 1
        assert r.interrupt_fraction >= 0

    def test_ping_pong_symmetric_sizes(self):
        cluster = make_cluster("1L-1G", nodes=2)
        r = run_micro("ping-pong", cluster, 4096, iterations=5)
        # Both directions carried data frames.
        assert r.data_frames >= 2 * 5 * 3  # 3 frames per 4 KB per direction

    def test_two_way_counts_both_directions(self):
        c1 = make_cluster("1L-1G", nodes=2)
        one = run_micro("one-way", c1, 65536)
        c2 = make_cluster("1L-1G", nodes=2)
        two = run_micro("two-way", c2, 65536)
        assert two.throughput_mbps > 1.7 * one.throughput_mbps


class TestReporting:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(0.0) == "0"
        assert fmt(3.14159) == "3.14"
        assert fmt(12345.6) == "12,346"
        assert fmt("text") == "text"

    def test_table_rendering(self):
        t = Table("demo", ["a", "bb"])
        t.add(1, 2.5)
        t.add("x", None)
        text = t.render()
        assert "demo" in text and "bb" in text
        assert "2.50" in text and "-" in text

    def test_table_wrong_arity(self):
        t = Table("demo", ["a"])
        with pytest.raises(ValueError):
            t.add(1, 2)

    def test_check_band(self):
        assert check_band(5.0, (4.0, 6.0))
        assert not check_band(7.0, (4.0, 6.0))
        assert check_band(6.5, (4.0, 6.0), slack=0.3)


class TestPaperData:
    def test_app_order_covers_all_bands(self):
        assert set(APP_ORDER) == set(FIG3_SPEEDUP_BANDS)

    def test_nominal_rates(self):
        assert LINK_NOMINAL_MBPS["1L-1G"] == 125.0
        assert LINK_NOMINAL_MBPS["1L-10G"] == 1250.0

    def test_throughput_targets_sane(self):
        for (config, _), value in FIG2_MAX_THROUGHPUT_MBPS.items():
            assert value <= 2 * LINK_NOMINAL_MBPS[config]
