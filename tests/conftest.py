"""Suite-wide test configuration."""

import pytest


def pytest_collection_modifyitems(config, items):
    """``slow``-marked tests run only when a ``-m`` expression selects them.

    They assert wall-clock ratios, which a loaded machine can miss; the
    tier-1 command (no ``-m``) therefore reports them as skipped.
    """
    if config.getoption("-m"):
        return
    skip = pytest.mark.skip(reason="slow: run with -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
