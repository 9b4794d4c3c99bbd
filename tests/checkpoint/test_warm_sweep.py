"""Warm-started sweeps: forked continuations bit-identical to cold runs."""

import pytest

from repro.bench.parallel import warm_micro_sweep
from repro.checkpoint.fork import HAVE_FORK

SIZES = (1024, 16384)  # small on purpose: identity, not throughput


class TestWarmSweep:
    @pytest.mark.skipif(not HAVE_FORK, reason="requires os.fork")
    def test_forked_sweep_bit_identical_to_cold(self):
        """The tentpole payoff witness: simulating the shared prefix once
        and forking per sweep point must give byte-for-byte the results of
        rebuilding the prefix for every point."""
        warm = warm_micro_sweep("2Lu-1G", sizes=SIZES, use_fork=True)
        cold = warm_micro_sweep("2Lu-1G", sizes=SIZES, use_fork=False)
        assert warm == cold

    def test_cold_path_deterministic(self):
        a = warm_micro_sweep("1L-1G", sizes=SIZES, use_fork=False)
        b = warm_micro_sweep("1L-1G", sizes=SIZES, use_fork=False)
        assert a == b

    def test_results_cover_requested_sizes(self):
        res = warm_micro_sweep("1L-1G", sizes=SIZES, use_fork=False)
        assert tuple(r.size for r in res) == SIZES
        assert all(r.benchmark == "one-way" for r in res)
        assert all(r.throughput_mbps > 0 for r in res)
