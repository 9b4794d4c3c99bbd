"""Tests for the deterministic fuzz harness (repro.verify.fuzz)."""

from dataclasses import dataclass, fields, replace

from repro.core import ConnectionStats
from repro.verify.fuzz import (
    FAULT_PROFILES,
    FINGERPRINT_FIELDS,
    WORKLOADS,
    OpSpec,
    ScenarioRun,
    run_family,
    run_scenario,
    scenario_from_seed,
    shrink_scenario,
)


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        for seed in (0, 1, 99):
            assert scenario_from_seed(seed) == scenario_from_seed(seed)

    def test_constrained_generation(self):
        sc = scenario_from_seed(7, "scatter", "outage")
        assert sc.workload == "scatter" and sc.fault_profile == "outage"
        assert all(op.kind == "scatter" for op in sc.ops)

    def test_grid_axes_cover(self):
        assert len(WORKLOADS) == 5 and len(FAULT_PROFILES) == 5


class TestRunScenario:
    def test_clean_run_reports_checks(self):
        res = run_scenario(scenario_from_seed(1))
        assert res.ok, res.failure
        assert res.checks > 0
        assert len(res.fingerprint) == 64

    def test_bit_determinism_with_trace(self):
        sc = scenario_from_seed(11, "mixed", "outage")
        first = run_scenario(sc, trace=True)
        second = run_scenario(sc, trace=True)
        assert first.ok, first.failure
        assert first.fingerprint == second.fingerprint
        assert first.elapsed_ns == second.elapsed_ns

    def test_monitor_optional(self):
        sc = scenario_from_seed(2)
        res = run_scenario(sc, use_monitor=False)
        assert res.ok and res.checks == 0


class TestFingerprintRegression:
    # Pinned fingerprints from before the crash-recovery subsystem landed.
    # The no-crash path must stay bit-identical: new crash fuzz streams
    # draw from their own RNGs, frame incarnation stamping is gated on
    # recovery being enabled, and the fingerprint hashes the counters named
    # in FINGERPRINT_FIELDS, not whatever ConnectionStats happens to hold.
    PINNED = {
        0: "9602b13563a225033d17f44a8a7f6a000f1b3aead3b7963aa5c0ca5e7e52a5dd",
        1: "7170900315165228ba1ed4ae8da7bb44c21b88c9ee64e60bb7f938c2b8699302",
        7: "a35296563d99515e316e117ef054870dd6e0b7dc34ebec061a8eb1fb1839ac23",
        42: "54c8bf57395628440066e52fa19dc508abb7d9180530e7c1ab85d0bfff4ca7c4",
        123: "8e62a7d62f364e104b71b44a396848168507bac1306179dbe03f2a1a9440fea0",
    }

    def test_no_crash_fingerprints_unchanged(self):
        for seed, expected in self.PINNED.items():
            res = run_family("protocol", seed)
            assert res.ok, f"seed {seed}: {res.failure}"
            assert res.fingerprint == expected, (
                f"seed {seed} fingerprint drifted: {res.fingerprint}"
            )


    def test_fingerprint_names_what_it_hashes(self):
        names = [f.name for f in fields(ConnectionStats)]
        assert len(FINGERPRINT_FIELDS) == len(set(FINGERPRINT_FIELDS)) == 29
        # Today's first 29 fields, in declaration order; the counters that
        # moved into ConnectionStats later are present but not hashed.
        assert list(FINGERPRINT_FIELDS) == names[:29]
        assert set(names[29:]) == {
            "ce_frames_received", "ecn_echoes_sent", "ecn_echoes_received",
            "stale_frames_rejected", "duplicate_msgs_suppressed",
        }

    def test_a_new_counter_moves_no_pin(self, monkeypatch):
        """Grow the schema by one live counter: the pins do not see it."""

        @dataclass(slots=True)
        class GrownStats(ConnectionStats):
            frames_counted_by_a_later_pr: int = 7

        monkeypatch.setattr("repro.core.connection.ConnectionStats", GrownStats)
        for seed, expected in self.PINNED.items():
            run = ScenarioRun(scenario_from_seed(seed))
            conns = [
                c
                for s in run.cluster.stacks
                for c in s.protocol.connections.values()
            ]
            assert conns and all(type(c.stats) is GrownStats for c in conns)
            for k, c in enumerate(conns):
                c.stats.frames_counted_by_a_later_pr += k
            res = run.finish()
            assert res.ok, f"seed {seed}: {res.failure}"
            assert res.fingerprint == expected


class TestScenarioRunPause:
    """``run_to(T)`` + ``finish()`` is ``finish()``, however the sender
    processes' completions interleave with the pause."""

    @staticmethod
    def _finish_order(sc):
        """[(time, process index)] in completion order, from a probe run."""
        probe = ScenarioRun(sc, use_monitor=False)
        order = []
        for i, proc in enumerate(probe.procs):
            proc.done.add_callback(
                lambda _v, i=i: order.append((probe.cluster.sim.now, i))
            )
        probe.finish()
        return order

    def test_senders_finishing_out_of_order(self):
        checked = 0
        for seed in range(40):
            sc = scenario_from_seed(seed)
            order = self._finish_order(sc)
            indices = [i for _, i in order]
            if len(indices) < 2 or indices == sorted(indices):
                continue  # one sender, or they finish in list order
            whole = run_scenario(sc)
            assert whole.ok, whole.failure
            first, last = order[0][0], order[-1][0]
            # Before, exactly at, between and after the completions.
            for pause in (first // 2, first, (first + last) // 2, last, last + 10**6):
                run = ScenarioRun(sc)
                run.run_to(pause)
                assert run.cluster.sim.now <= max(pause, 0)
                again = ScenarioRun(sc)
                again.run_to(pause // 3)
                again.run_to(pause)  # a second pause resumes, never rewinds
                assert run.finish() == whole, (seed, pause)
                assert again.finish() == whole, (seed, pause)
            checked += 1
        assert checked >= 5


class TestShrinker:
    def test_reduces_to_minimal_failing_case(self):
        sc = scenario_from_seed(5, "small", "chaos")
        assert len(sc.ops) > 3 and len(sc.faults) >= 1

        def fails(s):
            return len(s.ops) >= 3 and len(s.faults) >= 1

        small = shrink_scenario(sc, fails=fails)
        assert len(small.ops) == 3 and len(small.faults) == 1

    def test_rejects_passing_scenario(self):
        sc = scenario_from_seed(5, "small", "none")
        try:
            shrink_scenario(sc, fails=lambda s: False)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for a passing scenario")


class TestReadFenceRegression:
    def test_cross_fenced_read_scenario_passes(self):
        """The minimal reproducer the shrinker produced for the read-fence
        deadlock (seed 0, read/none); it must now run to completion."""
        base = scenario_from_seed(0, "read", "none")
        sc = replace(
            base,
            nodes=2,
            ops=(
                OpSpec(src=1, dst=0, kind="read", size=4271, wait=True),
                OpSpec(src=0, dst=1, kind="read", size=7202, wait=True),
                OpSpec(src=0, dst=1, kind="read", size=15862, flags=4, wait=True),
                OpSpec(src=1, dst=0, kind="read", size=9061, flags=4, wait=False),
            ),
        )
        res = run_scenario(sc)
        assert res.ok, res.failure


class TestFabricFuzz:
    def test_scenario_derivation_is_deterministic(self):
        from repro.verify.fuzz import fabric_scenario_from_seed

        assert fabric_scenario_from_seed(9) == fabric_scenario_from_seed(9)
        assert fabric_scenario_from_seed(9) != fabric_scenario_from_seed(10)

    def test_scenarios_cover_both_topologies(self):
        from repro.verify.fuzz import fabric_scenario_from_seed

        kinds = {fabric_scenario_from_seed(s).topology for s in range(16)}
        assert kinds == {"leaf-spine", "fat-tree"}

    def test_scenarios_hold_routing_invariants(self):
        for seed in range(4):
            res = run_family("fabric", seed)
            assert res.ok, f"seed {seed}: {res.failure}"

    def test_trunk_churn_seed_repins_and_survives(self):
        """Seed 7 draws a leaf-spine with two trunk events; the run must
        re-pin flows around the churn and still deliver every byte."""
        res = run_family("fabric", 7)
        assert res.scenario.trunk_events, "seed 7 no longer draws trunk events"
        assert res.ok and res.result.repins > 0


class TestServeFuzz:
    """Randomized serving scenarios: conservation + invariants, pinned."""

    # seed -> fingerprint.  Seed 0 dates from the PR that introduced
    # repro.serve; the crash seeds 1 and 5 were re-pinned when the
    # double-replay path was removed (DESIGN.md, "Re-pinning fingerprints").
    PINNED = {
        0: "3284f4b7f2089d687071cc62309a0a478dd1801d43a2a05f808bce9f1f37e848",
        1: "468a73db56f119b7de257426826bbb5c7fc8f6fb9657b6733f6a48b11bebe3e6",
        5: "a89f6b60d1723667722c4d2db7b166434f97c413cd63b3fb3a0f5a852957aaf2",
    }

    def test_request_conservation_across_seeds(self):
        for seed in range(4):
            run = run_family("serve", seed)
            res = run.result
            assert run.ok, f"seed {seed}: {run.failure}"
            assert res.generated == (
                res.completed + res.shed + res.shed_client + res.failed
            ), f"seed {seed} lost requests"

    def test_crash_seed_replays(self):
        """Seed 1 draws a crash profile; the journal must replay."""
        run = run_family("serve", 1)
        assert run.scenario.fault_profile == "crash", (
            "seed 1 no longer draws a crash profile"
        )
        assert run.ok and run.result.replayed > 0

    def test_backed_up_outbox_crash_seeds_conserve(self):
        """Seeds 31 and 91 crash a server while a bounded client outbox
        toward it holds journaled requests; each must be replayed once,
        or a request ends up both shed at the client and completed."""
        for seed in (31, 91):
            run = run_family("serve", seed)
            assert run.scenario.fault_profile == "crash"
            assert run.ok, f"seed {seed}: {run.failure}"

    def test_serve_fingerprints_unchanged(self):
        for seed, expected in self.PINNED.items():
            res = run_family("serve", seed)
            assert res.fingerprint == res.result.fingerprint == expected, (
                f"serve fuzz seed {seed} drifted: {res.fingerprint}"
            )
