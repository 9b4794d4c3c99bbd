"""The size ratchet: one row per check that holds a landed simplification.

A row is a ceiling over the files in its ``scope`` (paths from the
repository root): on their lines, on the lines that match its pattern, on
their bytes or on the annotated fields of their configuration classes.
Or it names the files that alone may match its pattern.  ``py`` keeps
``*.py`` files only (grep's ``--include='*.py'``), ``exclude`` drops a
directory or a file, and ``words`` is grep's ``-w``.  Patterns are Python
``re`` syntax.  Each row also states what it holds, the PR that set it and
one line it must reject.

``test_row`` shows that every row can fail before it checks the tree.  The
row's example line, fed ``bound + 1`` times, is flagged inside each scope
path and passes outside the scope and in every excluded path.  A scope
path that does not exist is flagged too: otherwise a mistyped directory
would pass for ever.  A new removal adds a row here.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE = ("src", "tests", "benchmarks", "examples")
DOCS = ("README.md", "docs/API.md", "docs/PROTOCOL.md")


def _in(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path == p or path.startswith(p + "/") for p in prefixes)


def _regex(row: "Row") -> str:
    return rf"(?<!\w)(?:{row.pattern})(?!\w)" if row.words else row.pattern


def matches(row: "Row", files: dict, keep: Callable = lambda m: True) -> tuple[int, list]:
    """Lines that match, as ``grep -n`` prints them."""
    rx = re.compile(_regex(row), re.M)
    hits = []
    for path, text in sorted(files.items()):
        found = sorted({text.count("\n", 0, m.start()) for m in rx.finditer(text) if keep(m)})
        if found:
            text_lines = text.split("\n")
            hits += [f"{path}:{n + 1}: {text_lines[n].strip()}" for n in found]
    return len(hits), hits


def lines(row: "Row", files: dict) -> tuple[int, list]:
    return sum(t.count("\n") for t in files.values()), []


def size(row: "Row", files: dict) -> tuple[int, list]:
    return sum(len(t.encode()) for t in files.values()), []


def fields(row: "Row", files: dict) -> tuple[int, list]:
    """Annotated fields of the ``*Config`` / ``*Params`` / ``*Spec`` classes
    (``OpSpec`` is an operation, not configuration)."""
    return sum(
        isinstance(s, ast.AnnAssign)
        for t in files.values()
        for c in ast.walk(ast.parse(t))
        if isinstance(c, ast.ClassDef)
        and c.name.endswith(("Config", "Params", "Spec"))
        and c.name != "OpSpec"
        for s in c.body
    ), []


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def unresolved(row: "Row", files: dict) -> tuple[int, list]:
    return matches(row, files, keep=lambda m: not _resolves(m[1]))


@dataclass(frozen=True)
class Row:
    id: str
    pr: int
    holds: str
    scope: tuple[str, ...]
    example: str
    pattern: str = ""
    bound: int = 0
    measure: Callable = matches
    only: tuple[str, ...] = ()
    words: bool = False
    py: bool = False
    exclude: tuple[str, ...] = ()
    removed: bool = False  # bans names that are gone; the docs row reads these too


_COUNTERS = r"dropped_total|irqs_raised|counters\.tx_frames|frames_lost_[a-z]+|ce_marked_total"

ROWS = [
    Row("src-lines", 46, "src/ shrinks", ("src",), "pass",
        bound=21351, measure=lines, py=True),
    Row("fuzz-lines", 26, "one shape for the fuzz families: fuzz.py stays small",
        ("src/repro/verify/fuzz.py",), "pass", bound=1313, measure=lines),
    Row("getattr", 25, "no probing for attributes", ("src/repro",),
        'x = getattr(obj, "name", None)', r"getattr\(", bound=15, py=True),
    Row("bench-lines", 35, "benchmarks/ outside benchmarks/perf shrinks", ("benchmarks",),
        "pass", bound=2517, measure=lines, py=True, exclude=("benchmarks/perf",)),
    Row("unbounded-drain", 18, "no unbounded drain outside repro.sim", ("src/repro",),
        "cluster.sim.run()", r"sim\.run\(\)", py=True, exclude=("src/repro/sim",)),
    Row("ring-credit", 19, "the slot ring's flow control is named in one file",
        ("src/repro",), "self.peer_consumed = 0", "peer_consumed|credit_cell",
        only=("src/repro/core/ring.py",), py=True),
    Row("fault-link-state", 20, "no fault state attached to a link from outside",
        ("src", "tests"), "self._pristine_params = params",
        "_pristine_params|_gray_ber_raised", removed=True),
    Row("trunk-faults", 20, "trunk faults go in through FaultSchedule only",
        ("src", "benchmarks", "examples"), "topology.fail_trunk(0, 1)",
        "fail_trunk|set_trunk_enabled",
        only=("src/repro/control/faults.py", "src/repro/fabric/topology.py"), py=True),
    Row("fault-isinstance", 20, "no per-kind isinstance ladder in the fault path",
        ("src/repro/control/faults.py",), "if isinstance(fault, LinkOutage):",
        "isinstance", bound=4),
    Row("striping-names", 22, "one byte-deficit striping walk", CODE,
        'register_striping_policy("mine", MyPolicy)',
        "register_striping_policy|stateless_on_one_rail|_assigned_bytes|crash_server",
        removed=True),
    Row("switch-names", 24, "one switch and one wiring", CODE,
        "for sw in cluster.all_switches():",
        "_mac_table|flooded|EcmpPort|all_switches|_wire_flat|trunk_utilisation",
        words=True, removed=True),
    Row("bench-layer-names", 25, "no benchmark-only layer in repro.bench", CODE,
        'r = micro_point("1L-1G", "one-way", 4096)',
        "micro_point|app_run|_micro_cache|_app_cache|run_fabric_incast|run_ecmp_evenness"
        "|register_congestion_controller|band_str", words=True, removed=True),
    Row("fuzz-shape-names", 26, "one shape for the fuzz families", CODE,
        "from repro.verify.fuzz import Axes",
        "Axes|FabricScenario|shrink_scenario|shrink_scenario_checkpointed|run_crash_scenario"
        "|run_incarnation_scenario|run_fabric_scenario|run_serve_scenario|run_gray_scenario"
        "|FastForwardProbe", words=True, removed=True),
    Row("run-drives-itself", 27, "no run class drives or drains its own workload",
        ("src/repro/verify/fuzz.py", "src/repro/bench/crash.py", "src/repro/bench/serve.py",
         "src/repro/bench/incast.py", "src/repro/fabric/traffic.py"),
        "cluster.quiesce()", r"run_until_done\(|\.quiesce\(\)"),
    Row("lifecycle-names", 27, "one run lifecycle: no private failure capture", CODE,
        "while not run.traffic_done():", "traffic_done|_failure|_failure_of|traffic_run",
        words=True, removed=True),
    Row("counter-sums", 28, "no file but analysis/summary.py sums a device counter",
        ("src", "benchmarks", "examples"),
        "total = sum(sw.dropped_total for sw in switches)",
        rf"sum\(.*({_COUNTERS})|({_COUNTERS})\b.* for |\+= .*\.({_COUNTERS})",
        py=True, exclude=("src/repro/analysis/summary.py",)),
    Row("rollup-names", 28, "one roll-up: no second drop or interrupt total", CODE,
        "n = cluster.total_irqs()",
        "total_frames_dropped|total_irqs|add_reconnect_watcher|_reconnect_watchers"
        "|RecoveryParams", words=True, removed=True),
    Row("reorder-histogram", 28, "no reorder-histogram function beside the stats field",
        CODE, "h = reorder_histogram(stats)", r"reorder_histogram\(", removed=True),
    Row("config-fields", 35, "knobs only tests set are constants", ("src/repro",),
        "class ExampleConfig: x: int", bound=72, measure=fields, py=True),
    Row("host-knob-names", 31, "knobs nobody sets are constants", CODE,
        "ProtocolParams(nack_holdoff_ns=5000)",
        "HostParams|HealthParams|GrayScoreParams|host_params|health_params|PacingStallProbe"
        "|tx_complete_ns|nack_holdoff_ns|ack_delay_ns|nack_delay_ns|renack_interval_ns"
        "|nack_max_entries|additive_increase_frames|md_factor|pacing_headroom"
        "|pacing_burst_frames|rtt_gain|hedge_quantile|max_hedges|eject_alpha",
        words=True, removed=True),
    Row("cost-knob-names", 31, "host costs nobody sets are constants", CODE,
        "Kernel(syscall_ns=1000)",
        "syscall_ns|op_issue_ns|interrupt_ns|kthread_wakeup_ns|context_switch_ns"
        "|per_frame_send_ns|per_frame_recv_ns|memcpy_base_ns|memcpy_ns_per_kb"
        "|check_interval_ns|rtt_factor|min_population|degrade_after|degraded_score",
        words=True, removed=True),
    Row("busy-time", 32, "busy time is written only in sim/resources.py", ("src",),
        "self.busy_time += ns", r"_busy_since|busy_time \+=", py=True,
        exclude=("src/repro/sim/resources.py",)),
    Row("irq-hold-names", 32, "no interrupt hold, exit callback or wake-up wrapper",
        ("src", "tests"), "self._irq_hold(ns)", "_irq_hold|_irq_exit|_wakeup_cost",
        words=True, removed=True),
    Row("cpu-run", 32, "one way to occupy a core: no Cpu.run", ("src", "tests"),
        "yield from cpu.run(ns)", r"\bcpu\.run\(", removed=True),
    Row("fork-names", 34, "a run is rebuilt from its recipe, never forked", CODE,
        "point = ForkPoint(setup)",
        "ForkPoint|fork_map|HAVE_FORK|CheckpointedShrinker|ShrinkStats|run_with_rewind"
        "|RewindResult|warm_micro_sweep|cancel_pending", words=True, removed=True),
    Row("param-class-names", 35, "no retransmit, detector or congestion parameter class",
        CODE, "cfg.congestion_params = CongestionParams()",
        "RetransmitParams|DetectorParams|CongestionParams|detector_params|congestion_params"
        "|auto_failover|set_ecn_threshold|_scratch_window|_scratch|_edge_params",
        words=True, removed=True),
    Row("test-knob-names", 35, "knobs only tests set are constants", CODE,
        "ProtocolParams(coarse_timeout_ns=10)",
        "coarse_timeout_ns|backoff_factor|max_timeout_ns|probe_timeout_ns"
        "|suspect_after_losses|confirm_window_ns|recovery_probes|min_cwnd_frames"
        "|initial_cwnd_frames|dctcp_g|rtt_init_ns|hedge_min_delay_ns|hedge_max_delay_ns"
        "|hedge_warmup|retry_burst|breaker_failures|breaker_open_ns|breaker_half_open_probes"
        "|eject_factor|eject_min_samples|eject_ns|max_eject_fraction|mean_on_ns|mean_off_ns"
        "|deadline_ns|deadline_missed|deadline_miss_fraction", words=True, removed=True),
    Row("observer-attrs", 36, "observers attach once, to the simulator",
        ("src/repro/ethernet", "src/repro/host", "src/repro/core", "src/repro/control",
         "src/repro/recovery"),
        "self.monitor = monitor", r"self\.(monitor|tracer|fastpath_guard|invariant_monitor)\b"),
    Row("probe-names", 36, "observers attach once; the periodic probes are gone", CODE,
        "probe = ThroughputProbe(cluster)",
        "invariant_monitor|_wire_guards|ThroughputProbe|QueueProbe|InflightProbe"
        "|EdgeScoreProbe|CwndProbe|MarkedFractionProbe|ReconnectLatencyProbe|Sample",
        words=True, removed=True),
    Row("congestion-names", 42, "congestion control is a controller or None", CODE,
        "conn._cc.on_ack(frame)",
        r"StaticWindow|make_congestion_controller|CONTROLLER_NAMES|AdaptiveController"
        r"|\._cc\b|\bstate_time_ns\b|_state_entered_ns", removed=True),
    Row("edge-rail-names", 43, "edges are made with their manager, never attached later",
        CODE, "mgr.watch_new_rail(2)", "watch_new_rail", words=True, removed=True),
    Row("experiments-bytes", 43, "the performance ledger keeps one paragraph per PR",
        ("EXPERIMENTS.md",), "x", bound=50_000, measure=size),
    Row("changes-entry", 43, "a CHANGES.md entry from PR 29 on is at most 1 500 characters",
        ("CHANGES.md",), "- **PR 99 " + "x" * 1491,
        r"^(?=- \*\*PR (?:29|[3-9]\d|[1-9]\d{2,})\b).{1501}"),
    Row("docs-refs", 43, "every backticked repro.… reference in the docs resolves",
        (*DOCS, "DESIGN.md"), "`repro.analysis.probes` held the periodic probes.",
        r"`(repro(?:\.\w+)+)", measure=unresolved),
    Row("wiring-names", 44, "opt-in subsystems find each other on the cluster, any build order",
        CODE, "cluster.recovery.subscribe_crash(world.on_node_crashed)",
        "subscribe_crash|add_reconnect_pair_watcher|attach_recovery|watch_manager"
        r"|peer_down_handler|_watched_pairs|_crash_subscribers|_reconnect_pair_watchers"
        r"|restore_state|kick\(\)", words=True, removed=True),
    Row("reconnect-names", 45, "a reconnect reaches every layer; a failed ring stays failed",
        CODE, "world.rewire_pair(client, server)",
        r"\brewire_pair\b|\.retire\(|\brepair_trunk\b|\bcpu_utilization\b|\bhas_pending\b"
        r"|\buniform_int\b", removed=True),
    Row("layer-slot-names", 46, "every opt-in subsystem is a layer: no named slot, no enable_*",
        CODE, "recovery = cluster.enable_crash_recovery()",
        r"\benable_(?:crash_recovery|gray_detection|fastpath|serving)\b|\b_check_journals\b"
        r"|\w*[Cc]luster\.(?:recovery|gray_scorer|fastpath|serve)\b", removed=True),
]
ROWS.append(
    Row("docs-removed-names", 43, "the docs name no removed name", DOCS,
        "`Cluster.all_switches` lists every switch.",
        "|".join(f"(?:{_regex(r)})" for r in ROWS if r.removed))
)


def flagged(row: Row, files: dict) -> list[str]:
    """What the row finds wrong with ``files`` (path -> text); empty when it holds."""
    missing = [s for s in row.scope if not any(_in(p, (s,)) for p in files)]
    if missing:
        return [f"scope path {s} does not exist" for s in missing]
    scoped = {
        p: t for p, t in files.items()
        if _in(p, row.scope) and not _in(p, row.exclude) and (p.endswith(".py") or not row.py)
    }
    if row.only:
        named = sorted({h.split(":")[0] for h in matches(row, scoped)[1]})
        return [] if named == sorted(row.only) else [f"named in {named}"]
    value, evidence = row.measure(row, scoped)
    return [] if value <= row.bound else [f"{value} > {row.bound}", *evidence[:20]]


@pytest.fixture(scope="module")
def tree() -> dict:
    """Every file under the rows' top-level paths but this one, which names
    every banned pattern; ``__pycache__`` and dot-directories are skipped."""
    files = {}
    for top in {s.split("/")[0] for row in ROWS for s in row.scope}:
        paths = [ROOT / top]
        for parent, dirs, names in os.walk(ROOT / top):
            dirs[:] = [d for d in dirs if not d.startswith(".") and d != "__pycache__"]
            paths += [Path(parent, name) for name in names]
        for path in filter(Path.is_file, paths):
            files[path.relative_to(ROOT).as_posix()] = path.read_text("utf-8", "replace")
    del files[Path(__file__).relative_to(ROOT).as_posix()]
    return files


def _file_in(path: str) -> str:
    return path if Path(path).suffix else f"{path}/example.py"


@pytest.mark.parametrize("row", ROWS, ids=[r.id for r in ROWS])
def test_row(row: Row, tree: dict) -> None:
    base = {_file_in(s): "" for s in row.scope} | {p: row.example + "\n" for p in row.only}
    fed = (row.example + "\n") * (row.bound + 1)
    assert not flagged(row, base)
    for path in map(_file_in, row.scope):
        assert flagged(row, base | {path: fed}), f"{row.id} passes its example in {path}"
    for path in map(_file_in, ("elsewhere", *row.exclude)):
        assert not flagged(row, base | {path: fed}), f"{row.id} flags {path}"
    for s in row.scope:
        assert flagged(row, {p: t for p, t in base.items() if not _in(p, (s,))})
    problems = flagged(row, tree)
    assert not problems, f"{row.id} ({row.holds}, PR {row.pr}): {problems}"
