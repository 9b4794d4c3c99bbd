"""RNG stream capture: a mid-sequence snapshot is a copy, not a view of
live state (a checkpoint is restored by replay, not from the snapshot)."""

from repro.sim.rng import RngRegistry


class TestMidSequenceRestore:
    def test_snapshot_is_not_aliased_to_live_state(self):
        """Advancing a stream after snapshot must not mutate the snapshot."""
        rng = RngRegistry(seed=3)
        rng.stream("s")
        snap = rng.snapshot_state()
        before = repr(snap["streams"]["s"])
        rng.stream("s").integers(0, 100, size=100)
        assert repr(snap["streams"]["s"]) == before
