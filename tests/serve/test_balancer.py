"""Load-balancing policies: rotation, queue-awareness, leaf affinity."""

from types import SimpleNamespace

import pytest

from repro.bench.cluster import make_cluster
from repro.fabric import LeafSpineSpec
from repro.serve import (
    POLICIES,
    LeafAffinity,
    LeastOutstanding,
    RoundRobin,
    leaf_of,
    make_balancer,
)
from repro.serve.arrivals import Request


def _req(client=0):
    return Request(
        req_id=1, client=client, t_arrival=0, req_bytes=64, resp_bytes=64
    )


def test_round_robin_rotates_in_rank_order():
    lb = RoundRobin([4, 2, 3])
    picks = [lb.choose(_req()) for _ in range(6)]
    assert picks == [4, 2, 3, 4, 2, 3]


def test_round_robin_skips_dead_servers():
    lb = RoundRobin([1, 2, 3])
    lb.mark_down(2)
    assert [lb.choose(_req()) for _ in range(4)] == [1, 3, 1, 3]
    lb.mark_up(2)
    assert 2 in [lb.choose(_req()) for _ in range(3)]


def test_mark_up_ignores_strangers():
    lb = RoundRobin([1, 2])
    lb.mark_up(99)
    assert 99 not in lb.alive


def test_least_outstanding_tracks_load():
    lb = LeastOutstanding([5, 6])
    assert lb.choose(_req()) == 5  # tie -> lowest rank
    lb.note_dispatch(5)
    assert lb.choose(_req()) == 6
    lb.note_dispatch(6)
    lb.note_dispatch(6)
    assert lb.choose(_req()) == 5
    lb.note_done(6)
    lb.note_done(6)
    lb.note_done(6)  # extra done never goes negative
    assert lb.outstanding[6] == 0


def test_choose_respects_candidate_restriction():
    lb = LeastOutstanding([1, 2, 3])
    assert lb.choose(_req(), candidates={3}) == 3
    assert lb.choose(_req(), candidates=set()) is None
    lb.mark_down(3)
    assert lb.choose(_req(), candidates={3}) is None


def test_no_servers_rejected():
    with pytest.raises(ValueError):
        RoundRobin([])


def test_leaf_affinity_prefers_local_leaf():
    # leaves of size 2: nodes 0,1 on leaf 0; 2,3 on leaf 1.
    leaf = lambda n: n // 2
    lb = LeafAffinity([1, 2, 3], leaf_lookup=leaf)
    assert lb.choose(_req(client=0)) == 1  # same leaf as client 0
    assert lb.choose(_req(client=3)) == 2  # leaf 1: servers 2, 3
    # All local servers down -> falls back to the remote pool.
    lb.mark_down(1)
    assert lb.choose(_req(client=0)) in (2, 3)


def test_leaf_affinity_balances_within_leaf():
    leaf = lambda n: 0  # everything local -> pure least-outstanding
    lb = LeafAffinity([1, 2], leaf_lookup=leaf)
    lb.note_dispatch(1)
    assert lb.choose(_req()) == 2


def test_leaf_of_fabric_and_single_spine_and_single():
    fabric_cluster = SimpleNamespace(
        config=SimpleNamespace(
            fabric=LeafSpineSpec(leaves=2, spines=2, hosts_per_leaf=3),
            nodes=6,
        )
    )
    assert [leaf_of(fabric_cluster, n) for n in range(6)] == [0, 0, 0, 1, 1, 1]

    single_spine = SimpleNamespace(
        config=SimpleNamespace(
            fabric=LeafSpineSpec(leaves=2, spines=1, hosts_per_leaf=2),
            nodes=4,
        )
    )
    assert [leaf_of(single_spine, n) for n in range(4)] == [0, 0, 1, 1]

    single = SimpleNamespace(config=SimpleNamespace(fabric=None, nodes=4))
    assert [leaf_of(single, n) for n in range(4)] == [0, 0, 0, 0]


def test_make_balancer_by_name():
    assert make_balancer("round-robin", [1]).name == "round-robin"
    assert make_balancer("least-outstanding", [1]).name == "least-outstanding"
    cluster = make_cluster("1L-1G", nodes=2)
    assert make_balancer("leaf-affinity", [1], cluster).name == "leaf-affinity"
    with pytest.raises(ValueError):
        make_balancer("leaf-affinity", [1])  # needs topology
    with pytest.raises(ValueError):
        make_balancer("random", [1])
    assert set(POLICIES) == {
        "round-robin", "least-outstanding", "leaf-affinity"
    }
