"""Shared benchmark configuration.

Experiments are deterministic discrete-event simulations: re-running them
adds no statistical information, so every benchmark uses
``benchmark.pedantic(..., rounds=1, iterations=1)`` and the runner module
caches results so related figures share their underlying runs.
"""

import subprocess
from pathlib import Path

# Sweep used by the Figure-2 benchmarks (paper sweeps 64 B .. 1 MB).
FIG2_SIZES = (64, 1024, 16384, 262144, 1048576)
FIG2_CONFIGS = ("1L-1G", "2L-1G", "1L-10G")


def tree_commit() -> str | None:
    """Short hash of HEAD, ``+dirty`` when the work tree differs from it.

    Stamped on recorded wall-time rows so a number can be traced to the
    code that produced it; None outside a git checkout.
    """
    root = Path(__file__).resolve().parent.parent
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    return head + ("+dirty" if dirty else "")
