"""Table 1 and Figures 3–6: the SPLASH-2 applications on the DSM.

Every test reads the memoised :func:`run`, one application run per
(app, config, nodes), so runs that several figures share — the 1-node
baselines, the 16-node 1L-1G and 2L-1G runs — are simulated once per
session.  Together the figures use 80 runs.

    PYTHONPATH=src python -m pytest benchmarks/bench_apps.py -s
"""

from functools import cache

from repro.apps import APP_CLASSES, SCALED, TABLE1, AppResult, run_app
from repro.bench import Table, check_band
from repro.bench.paper_data import (
    APP_ORDER,
    FIG3_NET_STATS,
    FIG3_SPEEDUP_BANDS,
    FIG4_SPEEDUP_BANDS,
    FIG5_NET_STATS,
)


@cache
def run(app: str, config: str, nodes: int) -> AppResult:
    """One application run on a fresh cluster (seed 0)."""
    return run_app(APP_CLASSES[app](), config=config, nodes=nodes)


def show_speedups(fig: str, config: str, node_counts, bands) -> dict:
    """Print a speedup table and return each app's curve over node_counts."""
    table = Table(
        f"Figure {fig}(a) — speedups over {config}",
        ["app"] + [f"{n} nodes" for n in node_counts]
        + [f"paper band @{node_counts[-1]}"],
    )
    curves = {}
    for name in APP_ORDER:
        base = run(name, config, 1)
        curves[name] = [run(name, config, n).speedup_vs(base) for n in node_counts]
        lo, hi = bands[name]
        table.add(name, *curves[name], f"{lo}-{hi}")
    table.show()
    return curves


def test_table1_workloads():
    """Table 1: benchmark applications, problem sizes, sequential times.

    Prints the paper's Table 1 verbatim next to our scaled workloads and
    the *measured* 1-node execution time of each scaled problem (the
    simulated "sequential" baseline every speedup in Figures 3–6 divides
    by).
    """
    singles = {name: run(name, "1L-1G", 1) for name in APP_ORDER}

    paper = Table(
        "Table 1 (paper) — benchmark applications",
        ["application", "problem size", "seq time (ms)", "footprint (MB)"],
    )
    for row in TABLE1:
        paper.add(row.application, row.problem_size, row.seq_exec_time_ms, row.footprint_mb)
    paper.show()

    scaled = Table(
        "Scaled workloads (this reproduction)",
        ["app", "paper size", "scaled size", "scale", "measured T1 (ms)"],
    )
    by_app = {w.app: w for w in SCALED}
    for name in APP_ORDER:
        w = by_app[name]
        scaled.add(
            w.app, w.paper_size, w.scaled_size, w.scale_factor,
            singles[name].elapsed_ms,
        )
    scaled.show()

    for name, result in singles.items():
        assert result.verified, name
        assert result.elapsed_ns > 0
    # Ordering sanity mirroring Table 1: Water-Nsquared is by far the
    # longest sequential run; FFT and Radix sit in the bottom half.
    times = {n: r.elapsed_ms for n, r in singles.items()}
    assert times["water-nsq"] == max(times.values())
    median = sorted(times.values())[len(times) // 2]
    assert times["fft"] <= median and times["radix"] <= median


def test_fig3_apps_single_1g_link():
    """Figure 3: application statistics over a single 1-GbE link (1L-1G).

    Panels reproduced:
      (a) speedup curves at 1..16 nodes — Barnes/Raytrace/Water-Nsquared
          scale well (13–14), LU/Water-Spatial/Water-SpatialFL are medium
          (6–8), FFT/Radix scale poorly;
      (b) execution-time breakdowns (compute / data wait / sync);
      (c) CPU time in the MultiEdge protocol: ≤11 % worst case, ≤4 %
          typical;
      (d) fraction of frames causing interrupts: 10–40 %;
      (e) extra traffic ≤15 %, dominated by acks; out-of-order ≈ 0.
    """
    curves = show_speedups("3", "1L-1G", (1, 2, 4, 8, 16), FIG3_SPEEDUP_BANDS)

    bd = Table(
        "Figure 3(b) — execution-time breakdown at 16 nodes",
        ["app", "compute", "data wait", "sync", "dsm ovh", "other"],
    )
    for name in APP_ORDER:
        b = run(name, "1L-1G", 16).mean_breakdown
        bd.add(name, b.compute, b.data_wait, b.sync, b.dsm_overhead, b.other)
    bd.show()

    net = Table(
        "Figure 3(c,d,e) — network statistics at 16 nodes",
        ["app", "protocol CPU", "irq fraction", "extra traffic",
         "ack share", "out-of-order"],
    )
    for name in APP_ORDER:
        r = run(name, "1L-1G", 16).dsm
        extra = r.network.extra_frame_fraction
        acks = r.network.explicit_acks_sent
        ack_share = acks / max(1, r.network.extra_frames_sent)
        net.add(
            name, r.protocol_cpu_fraction, r.interrupt_fraction,
            extra, ack_share, r.network.out_of_order_fraction,
        )
    net.show()

    # -- assertions --------------------------------------------------------
    for name in APP_ORDER:
        curve = curves[name]
        assert run(name, "1L-1G", 16).verified, name
        assert check_band(curve[-1], FIG3_SPEEDUP_BANDS[name], slack=0.35), (
            name, curve[-1]
        )
        # Speedup curves are monotone up to noise for the scalable apps.
        if FIG3_SPEEDUP_BANDS[name][0] >= 5.0:
            assert all(b >= a * 0.85 for a, b in zip(curve, curve[1:])), name

    for name in APP_ORDER:
        r = run(name, "1L-1G", 16).dsm
        # FFT/Radix run a few points above the paper's 11 % (EXPERIMENTS.md
        # notes our fully-accounted interrupt/copy costs).
        assert r.protocol_cpu_fraction <= FIG3_NET_STATS["protocol_cpu_max"] + 0.08, name
        assert r.network.out_of_order_fraction <= 0.05, name
        assert r.network.extra_frame_fraction <= FIG3_NET_STATS["extra_traffic_max"] + 0.05, name
        # Extra traffic dominated by explicit acks, not retransmissions.
        assert (
            r.network.explicit_acks_sent >= 2 * r.network.retransmitted_frames
        ), name
    # FFT overhead dominated by remote fetches (paper: ~77 % of overhead).
    fft = run("fft", "1L-1G", 16).mean_breakdown
    overhead = fft.data_wait + fft.sync + fft.other
    assert fft.data_wait / overhead > 0.5


def test_fig4_apps_single_10g_link():
    """Figure 4: application statistics over a single 10-GbE link (1L-10G).

    Paper: with only 4 nodes, most applications reach speedups of 3–4
    (except FFT and Radix); synchronization and data-wait time improve by
    about a factor of two versus the 1-GbE setup.
    """
    curves = show_speedups("4", "1L-10G", (1, 2, 4), FIG4_SPEEDUP_BANDS)

    comp = Table(
        "Figure 4(b) — sync + data-wait vs 1L-1G at 4 nodes (ms)",
        ["app", "1L-1G wait", "1L-10G wait", "improvement x"],
    )
    improvements = []
    for name in APP_ORDER:
        ref, r10 = run(name, "1L-1G", 4), run(name, "1L-10G", 4)
        b1, b10 = ref.mean_breakdown, r10.mean_breakdown
        wait_1g = (b1.data_wait + b1.sync) * ref.elapsed_ms
        wait_10g = (b10.data_wait + b10.sync) * r10.elapsed_ms
        factor = wait_1g / wait_10g if wait_10g > 0 else float("inf")
        improvements.append(factor)
        comp.add(name, wait_1g, wait_10g, factor)
    comp.show()

    for name in APP_ORDER:
        assert run(name, "1L-10G", 4).verified, name
        assert check_band(curves[name][-1], FIG4_SPEEDUP_BANDS[name], slack=0.4), (
            name, curves[name][-1]
        )
    # Paper: wait times improve "by about a factor of two on most
    # applications".  Bandwidth-bound waits improve strongly in our model;
    # latency-bound lock/barrier waits less so — require a meaningful
    # improvement on several applications and overall.
    improved = sum(1 for f in improvements if f >= 1.35)
    assert improved >= 3, improvements
    assert sum(improvements) / len(improvements) >= 1.2, improvements
    # FFT and Radix "still spend a significant portion of execution time
    # in communication and barrier synchronization" on 10 GbE.
    for name in ("fft", "radix"):
        b = run(name, "1L-10G", 4).mean_breakdown
        assert b.data_wait + b.sync >= 0.20, name


def test_fig5_apps_two_1g_links_ordered():
    """Figure 5: application statistics over two 1-GbE links, strict ordering.

    Paper: execution times are similar to 1L-1G (the applications cannot
    use the extra bandwidth); 10–50 % of frames arrive out of order (a
    reorder every 2–10 frames) and are buffered for in-order delivery;
    protocol CPU stays ≤12 %; extra traffic ≤10 % (Raytrace, Water-Nsquared)
    and ≤4 % for the rest; 10–35 % of frames generate interrupts
    (coalescing factor 3–10).
    """
    exec_cmp = Table(
        "Figure 5(a) — execution time vs 1L-1G at 16 nodes",
        ["app", "1L-1G (ms)", "2L-1G (ms)", "ratio"],
    )
    ratios = {}
    for name in APP_ORDER:
        t1 = run(name, "1L-1G", 16).elapsed_ms
        t2 = run(name, "2L-1G", 16).elapsed_ms
        ratios[name] = t2 / t1
        exec_cmp.add(name, t1, t2, t2 / t1)
    exec_cmp.show()

    net = Table(
        "Figure 5(b-e) — network statistics at 16 nodes",
        ["app", "protocol CPU", "out-of-order", "reorder dist",
         "extra traffic", "irq fraction", "buffered frames"],
    )
    for name in APP_ORDER:
        r = run(name, "2L-1G", 16).dsm
        net.add(
            name,
            r.protocol_cpu_fraction,
            r.network.out_of_order_fraction,
            r.network.mean_reorder_distance,
            r.network.extra_frame_fraction,
            r.interrupt_fraction,
            r.network.buffered_frames,
        )
    net.show()

    for name in APP_ORDER:
        assert run(name, "2L-1G", 16).verified, name
        r = run(name, "2L-1G", 16).dsm
        # Execution time similar to single link for most applications;
        # bandwidth-bound fetch phases (FFT, Radix) may gain from the
        # second rail in our pipelined-fetch model (see EXPERIMENTS.md).
        assert 0.45 <= ratios[name] <= 1.6, (name, ratios[name])
        # Comm-bound apps (FFT) concentrate the same protocol work into a
        # shorter two-rail run, inflating the *fraction* (EXPERIMENTS.md).
        assert r.protocol_cpu_fraction <= FIG5_NET_STATS["protocol_cpu_max"] + 0.15
        # Multi-rail reorder visible, within the paper's 10-50 % band.
        assert 0.03 <= r.network.out_of_order_fraction <= 0.60, name
        # Frames get buffered for in-order delivery.
        assert r.network.buffered_frames > 0, name
        assert r.network.extra_frame_fraction <= 0.22, name
    high = max(
        run(name, "2L-1G", 16).dsm.network.out_of_order_fraction
        for name in APP_ORDER
    )
    assert high >= 0.10, "at least one app should show heavy reorder"


def test_fig6_apps_two_links_out_of_order():
    """Figure 6: two 1-GbE links with out-of-order delivery allowed (2Lu-1G).

    The GeNIMA port uses the paper's API extension: ordering (a backward
    fence) is requested *only* on DSM control messages; page data and
    diffs are applied in whatever order frames arrive.  Paper finding:
    relaxing ordering does not significantly change application
    performance, and the network-level statistics stay very close to the
    strictly ordered 2L-1G runs.
    """
    ordered = {name: run(name, "2L-1G", 16) for name in APP_ORDER}
    relaxed = {name: run(name, "2Lu-1G", 16) for name in APP_ORDER}

    cmp = Table(
        "Figure 6 — 2Lu-1G (relaxed) vs 2L-1G (ordered) at 16 nodes",
        ["app", "ordered (ms)", "relaxed (ms)", "ratio",
         "ooo ordered", "ooo relaxed", "extra ordered", "extra relaxed"],
    )
    for name in APP_ORDER:
        ro, rr = ordered[name], relaxed[name]
        cmp.add(
            name,
            ro.elapsed_ms,
            rr.elapsed_ms,
            rr.elapsed_ms / ro.elapsed_ms,
            ro.dsm.network.out_of_order_fraction,
            rr.dsm.network.out_of_order_fraction,
            ro.dsm.network.extra_frame_fraction,
            rr.dsm.network.extra_frame_fraction,
        )
    cmp.show()

    for name in APP_ORDER:
        ro, rr = ordered[name], relaxed[name]
        assert rr.verified, name
        # "does not have a significant impact on application performance"
        assert 0.75 <= rr.elapsed_ms / ro.elapsed_ms <= 1.35, (
            name, rr.elapsed_ms / ro.elapsed_ms
        )
        # "network level statistics are very close to those for ordered"
        assert abs(
            rr.dsm.network.out_of_order_fraction
            - ro.dsm.network.out_of_order_fraction
        ) <= 0.25, name
        # Lock-intensive applications run ~19 % here (many 1-frame control
        # messages, each eventually acknowledged); the paper's bound for
        # its worst applications is 10 %.
        assert rr.dsm.network.extra_frame_fraction <= 0.22, name
    # Relaxed mode buffers strictly less than ordered mode overall.
    buffered_relaxed = sum(r.dsm.network.buffered_frames for r in relaxed.values())
    buffered_ordered = sum(r.dsm.network.buffered_frames for r in ordered.values())
    assert buffered_relaxed < buffered_ordered
