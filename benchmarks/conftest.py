"""Shared benchmark configuration.

Experiments are deterministic discrete-event simulations: re-running them
adds no statistical information, so a benchmark that times itself uses
``benchmark.pedantic(..., rounds=1, iterations=1)``, and figures that share
runs live in one module that memoises them.
"""

import json
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def tree_commit() -> str | None:
    """Short hash of HEAD, ``+dirty`` when the work tree differs from it.

    Stamped on recorded wall-time rows so a number can be traced to the
    code that produced it; None outside a git checkout.
    """
    try:
        head = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    return head + ("+dirty" if dirty else "")


def record(name: str, update: dict) -> dict:
    """Merge ``update`` into ``BENCH_<name>.json`` at the repo root.

    The one writer of every ``BENCH_*.json``: several tests of a bench
    (smoke, full) each contribute keys to the same file.  What is written is
    stamped with :func:`tree_commit` — each row when ``update`` is a set of
    named rows (all values dicts), the update itself otherwise.  Returns
    the merged contents.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        data = {}
    commit = tree_commit()
    rows = list(update.values())
    for row in rows if all(isinstance(r, dict) for r in rows) else [update]:
        row["commit"] = commit
    data.update(update)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return data
