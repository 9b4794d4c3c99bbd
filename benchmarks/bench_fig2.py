"""Figure 2 and the §4 network statistics: the paper's micro-benchmarks.

Each run is simulated once per session: the three Figure 2 tests share
one memoised sweep (``FIG2_CONFIGS`` x ``MICRO_BENCHMARKS`` x
``FIG2_SIZES``, a fresh two-node cluster per point), and the §4 test reads
its 1L-1G and 2L-1G points from it, adding the 2Lu-1G one-way points and
one lossy 512 KiB run.

    PYTHONPATH=src python -m pytest benchmarks/bench_fig2.py -s
"""

from functools import cache

from repro.bench import MICRO_BENCHMARKS, Table, make_cluster, micro_sweep
from repro.bench.micro import run_one_way
from repro.bench.paper_data import (
    FIG2_HOST_OVERHEAD_US,
    FIG2_MAX_CPU_PCT,
    FIG2_MAX_THROUGHPUT_MBPS,
    FIG2_MIN_LATENCY_US,
    LINK_NOMINAL_MBPS,
    MICRO_NET_STATS,
)
from repro.ethernet import LinkParams

# The Figure 2 sweep (the paper sweeps 64 B .. 1 MB).
FIG2_SIZES = (64, 1024, 16384, 262144, 1048576)
FIG2_CONFIGS = ("1L-1G", "2L-1G", "1L-10G")
# The one-way sizes of the §4 statistics.
NET_STATS_SIZES = (16384, 262144, 1048576)


@cache
def fig2_sweeps() -> dict:
    """Every Figure 2 sweep, keyed ``(config, benchmark)``."""
    return {
        (config, bench): micro_sweep(config, bench, FIG2_SIZES)
        for config in FIG2_CONFIGS
        for bench in MICRO_BENCHMARKS
    }


def net_stats_runs():
    """§4's clean one-way points by config, and one lossy run.

    1L-1G and 2L-1G are the Figure 2 sweep's points; drops need actual
    loss, so a bit-error run supplements the clean sweeps.
    """
    sweeps = fig2_sweeps()
    clean = {
        config: tuple(
            r for r in sweeps[(config, "one-way")] if r.size in NET_STATS_SIZES
        )
        for config in ("1L-1G", "2L-1G")
    }
    clean["2Lu-1G"] = micro_sweep("2Lu-1G", "one-way", NET_STATS_SIZES)
    lossy_cluster = make_cluster(
        "1L-1G", nodes=2, link=LinkParams(speed_bps=1e9, bit_error_rate=3e-7)
    )
    return clean, run_one_way(lossy_cluster, 524288, iterations=10)


def show_sweep(title: str, value) -> None:
    """One row per (config, benchmark), one column per transfer size."""
    table = Table(title, ["config", "benchmark"] + [str(s) for s in FIG2_SIZES])
    for (config, bench), sweep in fig2_sweeps().items():
        table.add(config, bench, *[value(r) for r in sweep])
    table.show()


def test_fig2a_latency():
    """Figure 2(a): micro-benchmark latency versus transfer size.

    Paper: minimum latency ≈ 30 µs (1L-10G ping-pong, memory to memory);
    host overhead to initiate an operation ≈ 2 µs (one-way / two-way).
    """
    results = fig2_sweeps()
    show_sweep(
        "Figure 2(a) — latency (us): ping-pong one-way mem-to-mem; "
        "one/two-way host overhead",
        lambda r: r.latency_us,
    )

    # Paper-vs-measured for the stated endpoints.
    check = Table("Figure 2(a) — paper vs measured", ["metric", "paper", "measured"])
    min_pp_10g = min(r.latency_us for r in results[("1L-10G", "ping-pong")])
    check.add("min latency 1L-10G (us)", FIG2_MIN_LATENCY_US["1L-10G"], min_pp_10g)
    overheads = [
        r.latency_us
        for (c, b), sweep in results.items()
        if b in ("one-way", "two-way")
        for r in sweep
        if r.size <= 1024
    ]
    check.add("host overhead small ops (us)", FIG2_HOST_OVERHEAD_US, min(overheads))
    check.show()

    # Shape assertions (generous bands around the paper's endpoints).
    assert 15.0 <= min_pp_10g <= 45.0
    assert 1.0 <= min(overheads) <= 6.0
    # Latency grows monotonically-ish with size for ping-pong.
    for config in FIG2_CONFIGS:
        lats = [r.latency_us for r in results[(config, "ping-pong")]]
        assert lats[-1] > lats[0] * 10


def test_fig2b_throughput():
    """Figure 2(b): micro-benchmark throughput versus transfer size.

    Paper: 1-GbE configurations deliver >95 % of nominal link throughput
    (≈120 MB/s on one link, ≈240 MB/s on two); on 10 GbE one-way reaches
    ≈1100 MB/s (≈88 % of nominal), ping-pong ≈710 MB/s, two-way ≈1500 MB/s.
    """
    results = fig2_sweeps()
    show_sweep(
        "Figure 2(b) — throughput (MBytes/s) vs transfer size",
        lambda r: r.throughput_mbps,
    )

    check = Table(
        "Figure 2(b) — paper vs measured maxima",
        ["config", "benchmark", "paper MB/s", "measured MB/s", "nominal %"],
    )
    measured_max = {}
    for (config, bench), sweep in results.items():
        peak = max(r.throughput_mbps for r in sweep)
        measured_max[(config, bench)] = peak
        paper = FIG2_MAX_THROUGHPUT_MBPS.get((config, bench))
        nominal = LINK_NOMINAL_MBPS[config] * (2 if bench == "two-way" else 1)
        check.add(config, bench, paper, peak, 100 * peak / nominal)
    check.show()

    # Headline claims.
    one_g = measured_max[("1L-1G", "one-way")]
    assert one_g >= 0.93 * 125.0, "1-GbE should deliver >~95% of nominal"
    two_rails = measured_max[("2L-1G", "one-way")]
    assert two_rails >= 1.85 * one_g, "two rails should nearly double"
    ten_g = measured_max[("1L-10G", "one-way")]
    assert 0.80 * 1250 <= ten_g <= 0.97 * 1250, "10-GbE ~88% of nominal"
    # Ordering on 10 GbE: ping-pong < one-way <= two-way.
    assert measured_max[("1L-10G", "ping-pong")] < measured_max[("1L-10G", "one-way")]
    assert measured_max[("1L-10G", "two-way")] >= measured_max[("1L-10G", "one-way")]


def test_fig2c_cpu_utilization():
    """Figure 2(c): protocol CPU utilization versus transfer size.

    Plotted out of 200 % (two CPUs per node), like the paper.  Paper maxima:
    1 GbE — ping-pong ≤35 %, one-way ≤30 %, two-way up to 140 % (small ops);
    10 GbE — ping-pong ≈75 %, one-way ≈95 %, two-way ≈170 %.

    Known deviation (see EXPERIMENTS.md): our simulated driver splits the
    send path across both CPUs and fully accounts interrupt time, so the
    10-GbE utilization runs higher than the paper's (which "somewhat
    underestimates CPU utilization"); orderings and magnitudes per benchmark
    are preserved.
    """
    results = fig2_sweeps()
    show_sweep(
        "Figure 2(c) — protocol CPU utilization (% of 200)",
        lambda r: r.cpu_util_pct,
    )

    check = Table(
        "Figure 2(c) — paper vs measured maxima",
        ["config", "benchmark", "paper %", "measured %"],
    )
    measured = {}
    for (config, bench), sweep in results.items():
        peak = max(r.cpu_util_pct for r in sweep)
        measured[(config, bench)] = peak
        check.add(config, bench, FIG2_MAX_CPU_PCT.get((config, bench)), peak)
    check.show()

    # Shape assertions: 10G costs far more CPU than 1G; large 1G transfers
    # stay cheap; utilization never exceeds the 2-CPU budget.
    for (config, bench), peak in measured.items():
        assert peak <= 200.0
    # Compare at large transfers (small ops saturate the issue path on
    # any link speed, so the sweep peaks converge there).
    big = lambda cfg, bench: max(
        r.cpu_util_pct for r in results[(cfg, bench)] if r.size >= 16384
    )
    assert big("1L-10G", "one-way") > 2.0 * big("1L-1G", "one-way")
    big_1g = [r.cpu_util_pct for r in results[("1L-1G", "one-way")] if r.size >= 16384]
    assert max(big_1g) < 70.0
    # Ping-pong is the least CPU-hungry pattern on 1 GbE.
    assert (
        max(r.cpu_util_pct for r in results[("1L-1G", "ping-pong")])
        < measured[("1L-1G", "two-way")]
    )


def test_micro_network_stats():
    """§4 micro-benchmark network statistics.

    Paper: single-link runs see almost no out-of-order delivery; multi-link
    runs see at most 45–50 % out-of-order frames (closely spaced); explicit
    acks + retransmissions add at most 5.5 % extra frames; dropped frames
    are low — about 20 % of the extra traffic.
    """
    clean, lossy = net_stats_runs()

    table = Table(
        "§4 micro network statistics (one-way)",
        ["config", "size", "out-of-order", "extra frames", "drops"],
    )
    for config, sweep in clean.items():
        for r in sweep:
            table.add(
                config, r.size, r.out_of_order_fraction,
                r.extra_frame_fraction, r.frames_dropped,
            )
    table.add("1L-1G+BER", lossy.size, lossy.out_of_order_fraction,
              lossy.extra_frame_fraction, lossy.frames_dropped)
    table.show()

    check = Table("§4 — paper vs measured", ["metric", "paper", "measured"])
    ooo_1l = max(r.out_of_order_fraction for r in clean["1L-1G"])
    ooo_2l = max(
        max(r.out_of_order_fraction for r in clean[c])
        for c in ("2L-1G", "2Lu-1G")
    )
    extra = max(
        r.extra_frame_fraction for sweep in clean.values() for r in sweep
    )
    check.add("out-of-order 1L (max)", "~0", ooo_1l)
    check.add("out-of-order 2L (max)", "<= 0.45-0.50", ooo_2l)
    check.add("extra frames (max, clean)", "<= 0.055", extra)
    drops_share = lossy.frames_dropped / max(
        1, lossy.frames_dropped + lossy.data_frames * lossy.extra_frame_fraction
    )
    check.add("drops / extra traffic (lossy)", "~0.20", drops_share)
    check.show()

    assert ooo_1l <= MICRO_NET_STATS["out_of_order_1l"][1]
    lo, hi = MICRO_NET_STATS["out_of_order_2l"]
    assert lo <= ooo_2l <= hi + 0.05
    assert extra <= MICRO_NET_STATS["extra_frames_max"]
    assert lossy.frames_dropped > 0
    assert 0.02 <= drops_share <= 0.6
