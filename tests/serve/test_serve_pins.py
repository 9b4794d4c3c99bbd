"""Fingerprint pins for the serving layer, off and on.

* A cluster without :func:`enable_serving` must execute byte-for-byte
  the event sequence it did before ``repro.serve`` existed (pins
  captured at the HEAD immediately before the serving PR).
* A serving run that passes no ``faults=``, ``tail=`` or
  ``gray_detection=`` must execute the event sequence it did before the
  gray-failure PR (pins captured at the RPC serving PR's HEAD), through
  the one attempt-tracking request path — crash replay included.

A pin here moves only by the procedure in DESIGN.md, "Re-pinning
fingerprints".
"""

from repro.bench.cluster import make_cluster
from repro.bench.serve import run_serve
from repro.control import Crash, Restart
from repro.mp import MpWorld
from repro.serve import ArrivalSpec, ServerSpec
from repro.verify.fuzz import fingerprint

MS = 1_000_000

# (config, nodes, seed) -> fingerprint of the mp echo run below.
SERVE_OFF_PINNED = {
    ("1L-1G", 4, 0):
        "75d90b1d748c7746913ded2857a2b2ee243d133a5e3cb880bf8d80803ed7e3cb",
    ("2L-1G", 3, 7):
        "a705a7d395dccf86a367367f379cf1d6b2575c8d4d30d2974e2d7e18026fc6d0",
    ("1L-10G", 2, 42):
        "becf6fb4486a3e99dee8b12b3044c0f93fb276ff06994cd81c7319b8de7445db",
}

# run_serve keyword arguments + the fingerprint they produce.
SERVING_PINNED = [
    (
        dict(
            config="1L-1G", n_clients=2, n_servers=2, policy="round-robin",
            duration_ns=8 * MS, seed=1,
        ),
        "ddb88d1c3b5b6dd1a62b50a752b3cf339204b89529a4cd1e5a625f4b005056ee",
    ),
    (
        dict(
            config="2L-1G", n_clients=2, n_servers=3,
            policy="least-outstanding",
            arrival=ArrivalSpec(kind="bursty", rate_rps=15_000),
            duration_ns=8 * MS, seed=5,
        ),
        "e873f2021caadc1023fe60ca18d2667efc1af6f5e7c257e84b5dd0cebc774973",
    ),
    (
        # The crash+replay path, monitor attached.
        dict(
            config="1L-1G", n_clients=2, n_servers=2, policy="round-robin",
            duration_ns=10 * MS, seed=3, use_monitor=True,
            faults=[
                Crash(at_ns=3 * MS, node=2),
                Restart(at_ns=3 * MS, node=2, delay_ns=2 * MS),
            ],
        ),
        "5913422a195a22efaacb8de33037ba1a9a80f0ebdb8eccaf1ca0139f8a723a38",
    ),
]


def _echo_run(config, nodes, seed):
    cluster = make_cluster(config, nodes=nodes, seed=seed)
    world = MpWorld(cluster)

    def program(ep):
        if ep.rank == 0:
            for peer in range(1, ep.size):
                for k in range(4):
                    yield from ep.send(peer, bytes(64 + k), tag=7)
                    msg = yield from ep.recv(source=peer, tag=8)
                    assert len(msg.data) == 128
        else:
            for k in range(4):
                msg = yield from ep.recv(source=0, tag=7)
                yield from ep.send(0, bytes(128), tag=8)
        return ep.stats_received

    world.run(program)
    cluster.sim.run()
    return cluster, fingerprint(cluster)


def test_serve_disabled_runs_match_pre_serving_fingerprints():
    for (config, nodes, seed), want in SERVE_OFF_PINNED.items():
        cluster, got = _echo_run(config, nodes, seed)
        assert got == want, (
            f"serve-off run ({config}, nodes={nodes}, seed={seed}) drifted "
            f"from the pre-serving baseline: {got}"
        )
        # And the serving layer never attached itself.
        assert getattr(cluster, "serve", None) is None


def test_default_serving_runs_match_pre_gray_fingerprints():
    for kwargs, want in SERVING_PINNED:
        res = run_serve(server=ServerSpec(), **kwargs)
        assert not res.violations, (kwargs, res.violations)
        assert res.fingerprint == want, (
            f"default serving run {kwargs} drifted from the pre-gray "
            f"baseline: {res.fingerprint}"
        )
